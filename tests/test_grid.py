"""The per-axis transport kernel on Cartesian grids against a plain N x N reference."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drobandit import ope, opl
from drobandit.distributions import SupportSet, make_distribution
from drobandit.duals import _grid_objective, solve_transport_duals
from drobandit.errors import InstanceTooLarge
from drobandit.ope import RobustCostTable
from drobandit.opl import Parameterization, exact_opl, smoothed_learning_objective
from drobandit.transport import MAX_PAIRWISE_CELLS, GridCost, GroundCost, grid_levels

from oracles import transport_dual_reference

CLAMP, SOFTMAX = Parameterization.GROUP_PROB_CLAMP, Parameterization.GROUP_SOFTMAX


def grid_points(levels) -> np.ndarray:
    return np.stack([g.ravel() for g in np.meshgrid(*levels, indexing="ij")], axis=1)


# uneven levels, 1-4 per axis; ties and negatives among the values; zero weights
LEVELS = st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4, unique=True).map(sorted)
GRIDS = st.integers(2, 3).flatmap(lambda d: st.lists(LEVELS, min_size=d, max_size=d))
VALUES = st.one_of(st.sampled_from([-1.0, -0.25, 0.0, 0.5, 1.0]), st.floats(-2.0, 2.0))
EPSILONS = st.one_of(st.sampled_from([1e-12, 1e3]),
                     st.floats(-12.0, 3.0).map(lambda e: 10.0 ** e))
ETAS = st.one_of(st.none(), st.floats(-1.0, 2.0).map(lambda e: 10.0 ** e))


def draw_problems(levels, data, values=VALUES):
    """(points, weights (P, N), values (P, N)) on the grid of `levels`."""
    points = grid_points(levels)
    n = len(points)
    p = data.draw(st.integers(1, 3), label="problems")
    values = np.array(data.draw(st.lists(st.lists(values, min_size=n, max_size=n),
                                         min_size=p, max_size=p), label="values"))
    raw = np.array(data.draw(st.lists(st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.5]),
                                               min_size=n, max_size=n),
                                      min_size=p, max_size=p), label="weights"))
    raw[:, -1] += raw.sum(axis=1) == 0
    return points, raw / raw.sum(axis=1, keepdims=True), values


@settings(max_examples=300, deadline=None)
@given(levels=GRIDS, data=st.data(), epsilon=EPSILONS, eta=ETAS)
def test_grid_objective_matches_dense(levels, data, epsilon, eta):
    points, weights, values = draw_problems(levels, data)
    grid = GridCost(grid_levels(points))
    cmat = GroundCost.SQUARED_EUCLIDEAN.pairwise(points, points)
    atoms = weights.any(axis=0)
    w, p = weights[:, atoms], len(values)
    # multipliers across the solver's bracket, its ends included
    slack = 0.0 if eta is None else math.log(len(points)) / eta
    hi = (np.ptp(values, axis=1) + slack) / epsilon
    lam = hi * np.array(data.draw(st.lists(st.sampled_from([0.0, 1e-6, 1e-3, 0.1, 0.5, 1.0]),
                                           min_size=p, max_size=p), label="at"))
    fd, (low, high), hd = transport_dual_reference(w, values, cmat[atoms], lam, epsilon, eta)
    scale = epsilon * lam + np.abs(values).max(axis=1) + 1.0
    mean_cost = epsilon - low  # sum_i w_i E[c]: the scale of slope and curvature
    # the per-axis stages, and the dense matrix as one stage
    for cost in (grid, cmat):
        fg, gg, hg = _grid_objective(w, np.flatnonzero(atoms), values, cost, epsilon, eta,
                                     p)(np.arange(p), lam)
        np.testing.assert_allclose(fg, fd, rtol=0, atol=1e-12 * scale.max())
        if eta is None:
            margin = 1e-12 * (epsilon + mean_cost)
            assert np.all(low - margin <= gg) and np.all(gg <= high + margin)
            assert np.all(hg == 0.0)
        else:
            np.testing.assert_allclose(gg, high, rtol=0,
                                       atol=1e-9 * (epsilon + mean_cost).max())
            second = eta * w @ cmat[atoms].max(axis=1) ** 2
            np.testing.assert_allclose(hg, hd, rtol=1e-9, atol=1e-12 * second.max())


@settings(max_examples=150, deadline=None)
@given(levels=GRIDS, data=st.data(), epsilon=EPSILONS, eta=ETAS)
def test_grid_solves_match_dense_solves(levels, data, epsilon, eta):
    points, weights, values = draw_problems(levels, data)
    tol = 1e-9
    cmat = GroundCost.SQUARED_EUCLIDEAN.pairwise(points, points)
    dense = solve_transport_duals(weights, values, cmat, epsilon, tol, eta)
    per_axis = solve_transport_duals(weights, values, GridCost(grid_levels(points)), epsilon,
                                     tol, eta)
    assert np.all(per_axis.gap <= tol) and np.all(dense.gap <= tol)
    scale = np.abs(values).max(axis=1) + 1.0
    assert np.all(np.abs(per_axis.value - dense.value) <= tol + 1e-12 * scale)
    assert np.array_equal(per_axis.upper, dense.upper)


# -- the exact slope where maximisers tie --------------------------------------

def test_exact_slope_at_zero_is_the_right_derivative():
    # all weight on (1, 1); at lam = 0, (0, 0), (0, 1) and (1, 0) tie for the
    # max at costs 2, 1 and 1, so the right derivative is 0.1 - 1
    grid = GridCost((np.array([0.0, 1.0]), np.array([0.0, 1.0])))
    fn = _grid_objective(np.ones((1, 1)), np.array([3]), np.array([[1.0, 1.0, 1.0, 0.5]]),
                         grid, 0.1, None, 1)
    value, slope, _ = fn(np.zeros(1, dtype=np.int64), np.zeros(1))
    assert value[0] == 1.0 and slope[0] == 0.1 - 1.0


# integer levels, values in halves and lam in {0, 1/2, 1}: every cost and
# inner value is exact, so maximisers tie exactly
INTEGER_GRIDS = st.integers(2, 3).flatmap(lambda d: st.lists(
    st.lists(st.integers(-2, 3), min_size=1, max_size=4, unique=True).map(sorted),
    min_size=d, max_size=d))


@settings(max_examples=200, deadline=None)
@given(levels=INTEGER_GRIDS, data=st.data())
def test_exact_slope_is_the_least_cost_among_maximisers(levels, data):
    points, weights, values = draw_problems([np.array(lv, dtype=np.float64) for lv in levels],
                                            data, st.integers(-4, 4).map(lambda k: k / 2))
    p, epsilon = len(values), 0.5
    lam = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=p,
                                      max_size=p), label="lam"))
    cmat = GroundCost.SQUARED_EUCLIDEAN.pairwise(points, points)
    atoms = weights.any(axis=0)
    # contiguous weights, so that einsum sums in the kernel's order
    w, c = np.ascontiguousarray(weights[:, atoms]), cmat[atoms]
    z = values[:, None, :] - lam[:, None, None] * c
    least = np.where(z == z.max(axis=-1, keepdims=True), c, np.inf).min(axis=-1)
    expected = epsilon - np.einsum("pi,pi->p", w, least)
    for cost in (GridCost(grid_levels(points)), cmat):
        fn = _grid_objective(w, np.flatnonzero(atoms), values, cost, epsilon, None, p)
        assert np.array_equal(fn(np.arange(p), lam)[1], expected)


# -- memory --------------------------------------------------------------------

@pytest.mark.parametrize("dead, eta, limit", [
    (0.0, None, 17.2e6), (0.0, 10.0, 24.7e6), (0.5, None, 12.3e6), (0.5, 10.0, 22.6e6)])
def test_batched_grid_solve_memory(dead, eta, limit):
    # 3 problems on a 30 x 30 x 10 grid, every atom live or about half of
    # them: the peaks of a kernel that gathered the argmax costs over a
    # trailing candidate axis were 17.2 and 31.0 MB, and 12.3 and 22.6 MB
    grid = GridCost((np.arange(30.0), np.arange(30.0), np.arange(10.0)))
    rng = np.random.default_rng(3)
    weights = rng.random((3, grid.shape[0])) * (rng.random(grid.shape[0]) >= dead)
    weights /= weights.sum(axis=1, keepdims=True)
    values = rng.random((3, grid.shape[0]))
    tracemalloc.start()
    try:
        solve_transport_duals(weights, values, grid, 50.0, eta=eta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit


# -- detection ---------------------------------------------------------------

def test_grid_levels_detects_the_full_support_and_nothing_else():
    levels = [np.array([0.0, 1.5, 4.0]), np.array([-1.0, 2.0]), np.array([3.0, 5.0, 6.0, 9.0])]
    points = grid_points(levels)
    found = grid_levels(points)
    assert found is not None
    assert all(np.array_equal(a, b) for a, b in zip(found, levels))
    shuffled = points[np.random.default_rng(0).permutation(len(points))]
    assert grid_levels(shuffled) is None
    assert grid_levels(points[1:]) is None  # one point missing
    assert grid_levels(np.vstack([points[:-1], points[:1] + 0.5])) is None  # same count
    assert grid_levels(levels[0]) is None  # 1-d: left to the dense matrix
    assert grid_levels(levels[0][:, None]) is None


def test_grid_cost_refuses_an_oversized_stage():
    side = math.isqrt(MAX_PAIRWISE_CELLS) // 10
    big = (np.arange(side * 10.0), np.arange(side * 10.0), np.arange(2.0))
    with pytest.raises(InstanceTooLarge):
        GridCost(big)
    assert GridCost((np.arange(30.0),) * 3).shape == (27_000, 27_000)


def test_shared_costs_take_the_grid_path_only_on_grids():
    points = grid_points([np.arange(3.0), np.array([0.0, 2.0])])
    assert isinstance(ope._shared_costs(points, "exact"), GridCost)
    assert ope.cost_kernel(points, "regularized") == "grid"
    assert isinstance(ope._shared_costs(points[::-1], "exact"), np.ndarray)
    assert ope.cost_kernel(points[::-1], "exact") == "dense"
    assert ope._shared_costs(points, "kl") is None and ope.cost_kernel(points, "kl") == "none"


# -- learning on a grid --------------------------------------------------------

def dense_only(monkeypatch):
    """Hide every grid from the learners, so they pass the dense matrix."""
    monkeypatch.setattr(ope, "grid_levels", lambda points: None)
    monkeypatch.setattr(opl, "grid_levels", lambda points: None)


def grid_instance(seed: int):
    rng = np.random.default_rng(seed)
    levels = [np.sort(rng.choice(12, size=k, replace=False) * 0.4) for k in (4, 3, 5)]
    support = SupportSet(grid_points(levels))
    raw = rng.random(len(support)) * (rng.random(len(support)) > 0.3)
    return support, make_distribution(support, raw / raw.sum()), rng


@pytest.mark.parametrize("method, eta", [("exact", None), ("regularized", 4.0)])
def test_exact_opl_on_a_grid_matches_the_dense_path(monkeypatch, method, eta):
    support, context_dist, rng = grid_instance(3)
    grouping = (support.points[:, 2] > 1.0).astype(np.int64)
    for kind in (CLAMP, SOFTMAX):
        table = RobustCostTable(rng.random((len(support), 2)))
        args = (table, context_dist, grouping, kind, 0.7, method, eta, 9)
        params, value = exact_opl(*args)
        with monkeypatch.context() as patch:
            dense_only(patch)
            ref_params, ref_value = exact_opl(*args)
        assert np.array_equal(params.theta, ref_params.theta)
        assert abs(value - ref_value) <= 1e-12


def test_smoothed_learning_objective_on_a_grid_matches_the_dense_path(monkeypatch):
    support, context_dist, rng = grid_instance(5)
    table = RobustCostTable(rng.random((len(support), 3)))
    params = opl.PolicyParams(np.array([0.2, 0.5]), np.zeros(len(support), dtype=np.int64),
                              3, CLAMP)
    for lam in (0.0, 0.3, 5.0, 400.0):
        value = smoothed_learning_objective(params, lam, table, context_dist, 6.0, 0.2)
        with monkeypatch.context() as patch:
            dense_only(patch)
            ref = smoothed_learning_objective(params, lam, table, context_dist, 6.0, 0.2)
        assert abs(value - ref) <= 1e-12

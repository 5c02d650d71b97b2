import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

from drobandit import (
    GroundCost,
    SupportSet,
    empirical_distribution,
    kl_divergence,
    make_distribution,
    split_radius_estimate,
    wasserstein_distance,
)
from drobandit import transport
from drobandit.errors import DegenerateInput, InstanceTooLarge, TooFewSamples

from oracles import exact_transport_value


def scalar_dist(points, weights):
    return make_distribution(SupportSet.from_scalars(points), weights)


def test_ground_cost_properties():
    cost = GroundCost.SQUARED_EUCLIDEAN
    pts = np.array([[0.0, 1.0], [2.0, -1.0], [0.5, 0.5]])
    cmat = cost.pairwise(pts, pts)
    assert np.allclose(np.diag(cmat), 0.0)
    assert np.allclose(cmat, cmat.T)
    assert np.all(cmat >= 0.0)
    assert cmat[0, 1] == pytest.approx((0 - 2) ** 2 + (1 + 1) ** 2)
    # against the (n, m, dim) broadcast formula, up to summation order
    a, b = np.random.default_rng(3).normal(size=(2, 40, 3))
    reference = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    assert np.allclose(cost.pairwise(a, b), reference, rtol=1e-15, atol=0.0)


def test_pairwise_refuses_oversized_matrix_before_allocating():
    rows = np.zeros((transport.MAX_PAIRWISE_CELLS // 1000 + 1, 2))
    cols = np.zeros((1000, 2))
    tracemalloc.start()
    try:
        with pytest.raises(InstanceTooLarge):
            GroundCost.SQUARED_EUCLIDEAN.pairwise(rows, cols)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_line_refuses_oversized_plan_before_allocating():
    n = transport.MAX_PAIRWISE_CELLS // 1000 + 1
    p = scalar_dist(np.arange(float(n)), np.full(n, 1.0 / n))
    q = scalar_dist(np.arange(1000.0), np.full(1000, 1e-3))
    tracemalloc.start()
    try:
        with pytest.raises(InstanceTooLarge):
            wasserstein_distance(p, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_identical_distributions_have_zero_distance():
    p = scalar_dist([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])
    d, plan = wasserstein_distance(p, p)
    assert d == pytest.approx(0.0, abs=1e-12)
    off_diag = plan.matrix - np.diag(np.diag(plan.matrix))
    assert np.all(np.abs(off_diag) <= 1e-12)


def test_point_masses():
    d, _ = wasserstein_distance(scalar_dist([0.0], [1.0]), scalar_dist([2.0], [1.0]))
    assert d == pytest.approx(4.0, abs=1e-12)


def test_two_by_two_derived_instance():
    p = scalar_dist([0.0, 1.0], [0.5, 0.5])
    q = scalar_dist([1.0, 2.0], [0.5, 0.5])
    d, plan = wasserstein_distance(p, q)
    assert d == pytest.approx(1.0, abs=1e-9)
    cmat = GroundCost.SQUARED_EUCLIDEAN.pairwise(p.support.points, q.support.points)
    assert plan.cost(cmat) == pytest.approx(d, abs=1e-9)


def test_empty_support_rejected():
    with pytest.raises((DegenerateInput, ValueError)):
        wasserstein_distance(
            scalar_dist([0.0], [1.0]),
            make_distribution(SupportSet(np.empty((0, 1))), np.empty(0)),
        )


def test_symmetry_and_plan_objective_random():
    rng = np.random.default_rng(3)
    for _ in range(30):
        m, n = rng.integers(2, 6, size=2)
        p = scalar_dist(np.sort(rng.normal(size=m) * 3), rng.dirichlet(np.ones(m)))
        q = scalar_dist(np.sort(rng.normal(size=n) * 3), rng.dirichlet(np.ones(n)))
        d_pq, plan = wasserstein_distance(p, q)
        d_qp, _ = wasserstein_distance(q, p)
        assert d_pq == pytest.approx(d_qp, abs=1e-9)
        cmat = GroundCost.SQUARED_EUCLIDEAN.pairwise(p.support.points, q.support.points)
        assert plan.cost(cmat) == pytest.approx(d_pq, abs=1e-9)
        assert np.allclose(plan.matrix.sum(axis=1), p.weights, atol=1e-9)
        assert np.allclose(plan.matrix.sum(axis=0), q.weights, atol=1e-9)


def test_identity_of_indiscernibles():
    rng = np.random.default_rng(5)
    support = SupportSet.from_scalars([0.0, 1.5, 4.0])
    p = make_distribution(support, rng.dirichlet(np.ones(3)))
    d, _ = wasserstein_distance(p, p)
    assert d <= 1e-12
    q = make_distribution(support, rng.dirichlet(np.ones(3)))
    if np.max(np.abs(p.weights - q.weights)) > 1e-6:
        d, _ = wasserstein_distance(p, q)
        assert d > 1e-9


def test_finite_on_disjoint_supports_where_kl_blows_up():
    support = SupportSet.from_scalars([50.0, 55.0, 60.0, 65.0])
    p = make_distribution(support, [0.5, 0.5, 0.0, 0.0])
    q = make_distribution(support, [0.5, 0.0, 0.5, 0.0])
    assert kl_divergence(q, p) == math.inf
    d, _ = wasserstein_distance(p, q)
    assert math.isfinite(d) and d > 0


def test_agreement_with_exact_rational_lp_oracle():
    rng = np.random.default_rng(17)
    cost = GroundCost.SQUARED_EUCLIDEAN
    for _ in range(200):
        m, n = rng.integers(1, 7, size=2)
        dim = int(rng.integers(1, 3))
        p_pts = rng.normal(size=(m, dim)) * 2
        q_pts = rng.normal(size=(n, dim)) * 2
        p = make_distribution(SupportSet(p_pts), rng.dirichlet(np.ones(m)))
        q = make_distribution(SupportSet(q_pts), rng.dirichlet(np.ones(n)))
        d, _ = wasserstein_distance(p, q)
        cmat = cost.pairwise(p_pts, q_pts)
        exact = float(exact_transport_value(p.weights, q.weights, cmat))
        assert d == pytest.approx(exact, abs=1e-8)


def test_multi_d_plan_equals_highs_on_the_kron_built_constraints():
    # the one-call assembly hands HiGHS the same matrix, so the same vertex
    rng = np.random.default_rng(11)
    p_pts, q_pts = rng.random((5, 2)), rng.random((7, 2))
    p = make_distribution(SupportSet(p_pts), rng.dirichlet(np.ones(5)))
    q = make_distribution(SupportSet(q_pts), [0.2, 0.0, 0.1, 0.3, 0.1, 0.2, 0.1])
    _, plan = wasserstein_distance(p, q)
    cmat = GroundCost.SQUARED_EUCLIDEAN.pairwise(p_pts, q_pts)
    a_eq = sparse.vstack([sparse.kron(sparse.eye(5), np.ones((1, 7)), format="csr"),
                          sparse.kron(np.ones((1, 5)), sparse.eye(7), format="csr")],
                         format="csr")
    _, x = transport.solve_max_lp(-cmat.ravel(), a_eq, np.concatenate([p.weights, q.weights]))
    assert np.array_equal(plan.matrix, np.clip(x.reshape(5, 7), 0.0, None))


def test_split_radius_identical_contexts():
    assert split_radius_estimate([1.0, 1.0, 1.0, 1.0], seed=0) == pytest.approx(0.0, abs=1e-12)


def _split_halves(values, seed):
    order = np.random.default_rng(seed).permutation(len(values))
    cut = (len(values) + 1) // 2
    arr = np.asarray(values, dtype=float)
    return sorted(arr[order[:cut]]), sorted(arr[order[cut:]])


def _seed_with_split(values, first_half):
    for seed in range(1000):
        got, _ = _split_halves(values, seed)
        if got == sorted(first_half):
            return seed
    raise AssertionError("no seed produced the requested split")


def test_split_radius_balanced_split_is_zero():
    seed = _seed_with_split([0.0, 0.0, 2.0, 2.0], [0.0, 2.0])
    assert split_radius_estimate([0.0, 0.0, 2.0, 2.0], seed=seed) == pytest.approx(0.0, abs=1e-12)


def test_split_radius_unbalanced_split_moves_half_the_mass():
    # halves {0,0} | {0,2}: move 0.5 mass across distance 2 at squared cost -> 2.0
    seed = _seed_with_split([0.0, 0.0, 0.0, 2.0], [0.0, 0.0])
    assert split_radius_estimate([0.0, 0.0, 0.0, 2.0], seed=seed) == pytest.approx(2.0, abs=1e-9)


def test_split_radius_too_few_samples():
    with pytest.raises(TooFewSamples):
        split_radius_estimate([0.0, 1.0, 2.0], seed=0)


def test_split_radius_odd_count_extra_goes_first():
    first, second = _split_halves([0.0, 1.0, 2.0, 3.0, 4.0], seed=9)
    assert len(first) == 3 and len(second) == 2


def composed_split_radius(contexts, seed):
    """The split radius composed from the public pieces: the union by
    np.unique(axis=0), each half's empirical distribution over it, and
    wasserstein_distance between the two."""
    pts = np.asarray(contexts, dtype=float).reshape(len(contexts), -1)
    order = np.random.default_rng(seed).permutation(len(pts))
    cut = (len(pts) + 1) // 2
    union = SupportSet(np.unique(pts, axis=0))
    return wasserstein_distance(empirical_distribution(pts[order[:cut]], union),
                                empirical_distribution(pts[order[cut:]], union))[0]


@settings(max_examples=120, deadline=None)
@given(dim=st.sampled_from([1, 2]), data=st.data(), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1.0, 0.1, -3.7]))
def test_split_radius_equals_the_composed_distance(dim, data, seed, scale):
    # few distinct levels: many repeated points, odd and even counts
    n = data.draw(st.integers(4, 41))
    levels = data.draw(st.lists(st.integers(0, 5), min_size=n * dim, max_size=n * dim))
    contexts = np.array(levels, dtype=float).reshape(n, dim) * scale
    if dim == 1 and data.draw(st.booleans()):
        contexts = contexts[:, 0]  # a flat sample, as callers pass scalars
    assert split_radius_estimate(contexts, seed) == composed_split_radius(contexts, seed)


@pytest.mark.parametrize("contexts, error", [
    ([], TooFewSamples),
    ([[0.0, 1.0]] * 3, TooFewSamples),
    ([0.0, 1.0, np.nan, 2.0], ValueError),
    ([[0.0, 1.0], [np.inf, 0.0], [0.0, 1.0], [2.0, 2.0]], ValueError),
    ([0.0, 1e-13, 1.0, 1.0], ValueError),  # two points within 1e-12
    ([[0.0, 5.0], [1e-13, 5.0], [1.0, 1.0], [1.0, 1.0]], ValueError),
])
def test_split_radius_refuses_what_the_union_support_refuses(contexts, error):
    with pytest.raises(error):
        split_radius_estimate(contexts, seed=0)


def test_split_radius_on_the_line_forms_no_plan():
    # 6,000 distinct values: a 6,000 x 6,000 plan would need 288 MB
    values = np.random.default_rng(4).permutation(6000) * 0.5
    tracemalloc.start()
    radius = split_radius_estimate(values, seed=1)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    first, second = _split_halves(values, seed=1)
    assert radius == pytest.approx(np.mean((np.array(first) - np.array(second)) ** 2), rel=1e-12)
    assert peak < 4 * 2**20


# -- the monotone coupling on the line ------------------------------------------------

def highs_transport_value(p_weights, q_weights, cost_matrix):
    """The transportation LP, dense, solved by HiGHS."""
    m, n = cost_matrix.shape
    a_eq = np.vstack([np.kron(np.eye(m), np.ones((1, n))), np.kron(np.ones((1, m)), np.eye(n))])
    res = linprog(cost_matrix.ravel(), A_eq=a_eq, b_eq=np.concatenate([p_weights, q_weights]),
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


# (point, raw weight) atoms in drawing order, so unsorted; zero weights are
# common and the small point pool makes the two supports share points
LINE_ATOMS = st.lists(st.tuples(st.integers(-6, 6), st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.5])),
                      min_size=1, max_size=6, unique_by=lambda atom: atom[0])


def line_dist(atoms, shift):
    points = np.array([a[0] for a in atoms], dtype=float) * 0.5 + shift
    raw = np.array([a[1] for a in atoms])
    raw[0] += raw.sum() == 0
    return scalar_dist(points, raw / raw.sum())


@settings(max_examples=80, deadline=None)
@given(p_atoms=LINE_ATOMS, q_atoms=LINE_ATOMS, shift=st.sampled_from([0.0, 0.25, 20.0]))
@example(p_atoms=[(0, 1.0)], q_atoms=[(3, 1.0), (-2, 2.0), (1, 0.0)], shift=0.0)  # 1 x n
@example(p_atoms=[(4, 0.0), (-1, 1.0), (2, 3.5)], q_atoms=[(1, 1.0)], shift=0.0)  # m x 1
@example(p_atoms=[(2, 1.0), (-3, 2.0)], q_atoms=[(5, 1.0), (-6, 1.0)], shift=20.0)  # disjoint
@example(p_atoms=[(1, 1.0), (0, 1.0)], q_atoms=[(0, 1.0), (1, 1.0)], shift=0.0)  # shared
def test_line_coupling_matches_lp_oracles(p_atoms, q_atoms, shift):
    p, q = line_dist(p_atoms, 0.0), line_dist(q_atoms, shift)
    d, plan = wasserstein_distance(p, q)
    cmat = GroundCost.SQUARED_EUCLIDEAN.pairwise(p.support.points, q.support.points)
    assert plan.cost(cmat) == pytest.approx(d, rel=1e-12, abs=1e-12)
    assert np.max(np.abs(plan.matrix.sum(axis=1) - p.weights)) <= transport.MARGINAL_ATOL
    assert np.max(np.abs(plan.matrix.sum(axis=0) - q.weights)) <= transport.MARGINAL_ATOL
    exact = float(exact_transport_value(p.weights, q.weights, cmat))
    assert d == pytest.approx(exact, rel=1e-12, abs=1e-9)
    assert d == pytest.approx(highs_transport_value(p.weights, q.weights, cmat),
                              rel=1e-9, abs=1e-9)


def dense_line_plan(x, p_w, y, q_w):
    """The north-west-corner plan on the line as a dense matrix, its entries
    added cell by cell with np.add.at in the coupling's level order."""
    px, qy = np.argsort(x, kind="stable"), np.argsort(y, kind="stable")
    p_cdf, q_cdf = np.cumsum(p_w[px]), np.cumsum(q_w[qy])
    levels = np.union1d(p_cdf, q_cdf)
    levels = levels[levels > 0]
    mass = np.diff(levels, prepend=0.0)
    i = px[np.minimum(np.searchsorted(p_cdf, levels), len(x) - 1)]
    j = qy[np.minimum(np.searchsorted(q_cdf, levels), len(y) - 1)]
    matrix = np.zeros((len(x), len(y)))
    np.add.at(matrix, (i, j), mass)
    return matrix


@settings(max_examples=80, deadline=None)
@given(p_atoms=LINE_ATOMS, q_atoms=LINE_ATOMS, shift=st.sampled_from([0.0, 0.25, 20.0]))
def test_line_plan_is_the_north_west_corner_plan(p_atoms, q_atoms, shift):
    p, q = line_dist(p_atoms, 0.0), line_dist(q_atoms, shift)
    _, plan = wasserstein_distance(p, q)
    assert np.array_equal(plan.matrix, dense_line_plan(p.support.points[:, 0], p.weights,
                                                        q.support.points[:, 0], q.weights))

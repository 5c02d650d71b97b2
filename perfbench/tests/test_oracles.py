"""The reference computations agree with plain LPs; expect_close rejects values
outside its tolerance. The workloads' checks are shown to reject perturbed
outputs in test_workload_checks.py."""
import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

import oracles
from oracles import CheckFailed, expect_close


def full_budget_lp(weights, values, cost, epsilon):
    """The transport-budget LP over every coupling entry, nothing dropped."""
    m, n = cost.shape
    a_eq = sparse.kron(sparse.eye(m), np.ones((1, n)))
    res = linprog(-np.tile(values, m), A_ub=cost.reshape(1, -1), b_ub=[epsilon],
                  A_eq=a_eq, b_eq=weights, bounds=(0, None), method="highs")
    return -res.fun


def full_transport_lp(p_pts, p_w, q_pts, q_w):
    cost = oracles.squared_euclidean(p_pts, q_pts)
    m, n = cost.shape
    a_eq = sparse.vstack([sparse.kron(sparse.eye(m), np.ones((1, n))),
                          sparse.kron(np.ones((1, m)), sparse.eye(n))])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([p_w, q_w]),
                  bounds=(0, None), method="highs")
    return res.fun


def test_expect_close_rejects_outside_tolerance():
    expect_close("v", 1.0 + 5e-7, 1.0, 1e-6)
    with pytest.raises(CheckFailed):
        expect_close("v", 1.0 + 2e-6, 1.0, 1e-6)
    with pytest.raises(CheckFailed):
        expect_close("v", float("nan"), 1.0, 1e-6)


def test_budget_lp_closed_form():
    # half the mass may move from 0 to 1 at cost 1 per unit: 0.5 + 0.25
    value = oracles.transport_budget_lp([0.5, 0.5], [0.0, 1.0], [[0.0, 1.0], [1.0, 0.0]], 0.25)
    assert value == pytest.approx(0.75, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_budget_lp_matches_full_lp(seed):
    rng = np.random.default_rng(seed)
    atoms, cands = rng.random((12, 2)), rng.random((15, 2))
    weights = rng.dirichlet(np.ones(12))
    weights[:3] = 0.0  # zero-weight rows are dropped
    weights /= weights.sum()
    values = rng.random(15)
    cost = oracles.squared_euclidean(atoms, cands)
    ref = oracles.transport_budget_lp(weights, values, cost, 0.05)
    assert ref == pytest.approx(full_budget_lp(weights, values, cost, 0.05), abs=1e-9)


def test_squared_euclidean_matches_broadcast():
    rng = np.random.default_rng(3)
    a, b = rng.random((5, 3)), rng.random((4, 3))
    want = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    assert np.allclose(oracles.squared_euclidean(a, b), want, atol=1e-15)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_quantile_coupling_matches_transport_lp(seed):
    rng = np.random.default_rng(seed)
    p_pts, q_pts = rng.random(9) * 5, rng.random(7) * 5
    p_w, q_w = rng.dirichlet(np.ones(9)), rng.dirichlet(np.ones(7))
    got = oracles.quantile_coupling_cost(p_pts, p_w, q_pts, q_w)
    assert got == pytest.approx(full_transport_lp(p_pts, p_w, q_pts, q_w), abs=1e-9)


def test_quantile_coupling_of_equal_samples_is_zero():
    pts = np.array([3.0, 1.0, 2.0, 1.0])
    assert oracles.quantile_coupling_cost(pts, np.ones(4), pts[::-1], np.ones(4)) == 0.0


def test_smoothed_dual_min_is_a_minimum():
    rng = np.random.default_rng(4)
    pts = rng.random((10, 2)) * 3
    weights = rng.dirichlet(np.ones(10))
    values = rng.random(10)
    cost = oracles.squared_euclidean(pts, pts)
    lam, value = oracles.smoothed_dual_min(weights, values, cost, 0.2, 5.0)
    grid = np.linspace(0.0, 4 * max(lam, 1.0), 2001)
    sampled = [oracles.smoothed_dual(g, weights, values, cost, 0.2, 5.0) for g in grid]
    assert value <= min(sampled) + 1e-12


def test_smoothed_dual_min_grows_its_bracket():
    # the minimiser lies beyond spread/epsilon on this instance (lam* ~ 13.0)
    rng = np.random.default_rng(0)
    pts = rng.random((20, 2))
    values = rng.random(20)
    weights = np.full(20, 1 / 20)
    cost = oracles.squared_euclidean(pts, pts)
    lam, value = oracles.smoothed_dual_min(weights, values, cost, 0.1, 0.5)
    assert lam > values.max() / 0.1
    assert value == pytest.approx(-0.6629, abs=1e-4)

"""Reference computations the benchmark checks the program against.

Nothing here imports drobandit: every value is recomputed from the raw inputs
with numpy and scipy, so a fault in the package cannot hide in its own check.

- :func:`squared_euclidean` builds ground-cost matrices by per-axis
  accumulation (the package broadcasts an N x M x d difference instead).
- :func:`transport_budget_lp` solves the primal worst-case LP with HiGHS.
- :func:`quantile_coupling_cost` is the closed-form optimal transport cost on
  the line (the monotone coupling, exact for convex costs).
- :func:`smoothed_dual` and :func:`smoothed_dual_min` evaluate and minimise
  the entropy-smoothed dual by bisection on its derivative, over a bracket
  grown until it provably contains the minimiser.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

# HiGHS defaults to 1e-7 feasibility; tighter tolerances keep the LP value
# well inside the 1e-6 agreement the checks ask for
_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


class CheckFailed(AssertionError):
    """An output of the program disagrees with its reference."""


def expect_close(label: str, got: float, want: float, atol: float) -> None:
    """Raise :class:`CheckFailed` unless |got - want| <= atol."""
    if not (math.isfinite(got) and abs(got - want) <= atol):
        raise CheckFailed(f"{label}: got {got!r}, reference {want!r} (atol {atol:g})")


def squared_euclidean(a, b) -> np.ndarray:
    """Matrix of squared Euclidean distances between the rows of a and b."""
    a = np.asarray(a, dtype=np.float64).reshape(len(a), -1)
    b = np.asarray(b, dtype=np.float64).reshape(len(b), -1)
    out = np.zeros((len(a), len(b)))
    for k in range(a.shape[1]):
        diff = np.subtract.outer(a[:, k], b[:, k])
        out += diff * diff
    return out


def _pareto_columns(values: np.ndarray, cost: np.ndarray):
    """Per row, the columns not dominated by a cheaper-or-equal, higher-or-equal one.

    A dropped column j of row i has f_j <= f_k for some kept k with
    c_ik <= c_ij, so moving its mass to k keeps the budget and the objective:
    the LP optimum over the kept columns equals the full one.
    """
    order = np.argsort(cost, axis=1, kind="stable")
    f_sorted = values[order]
    best_before = np.maximum.accumulate(f_sorted, axis=1)
    best_before = np.hstack([np.full((len(cost), 1), -np.inf), best_before[:, :-1]])
    rows, pos = np.nonzero(f_sorted > best_before)
    return rows, order[rows, pos]


def transport_budget_lp(weights, values, cost, epsilon: float) -> float:
    """Worst-case expectation over the transport ball, as the primal LP.

    Maximises sum_ij s_ij f_j over couplings s >= 0 with row sums equal to the
    nominal weights and sum_ij s_ij c_ij <= epsilon, solved by HiGHS. Rows with
    zero weight carry no mass and are dropped; dominated columns are dropped
    per row (see :func:`_pareto_columns`).
    """
    weights = np.asarray(weights, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    cost = np.asarray(cost, dtype=np.float64)
    keep = weights > 0
    w, c = weights[keep], cost[keep]
    rows, cols = _pareto_columns(values, c)
    n_var = len(rows)
    a_eq = sparse.csr_matrix((np.ones(n_var), (rows, np.arange(n_var))), shape=(len(w), n_var))
    a_ub = c[rows, cols][None, :]
    res = linprog(-values[cols], A_ub=a_ub, b_ub=[epsilon], A_eq=a_eq, b_eq=w,
                  bounds=(0, None), method="highs", options=_HIGHS_OPTIONS)
    if res.status != 0:
        raise CheckFailed(f"reference LP failed: {res.message}")
    return float(-res.fun)


def quantile_coupling_cost(p_points, p_weights, q_points, q_weights) -> float:
    """Squared-distance transport cost between two distributions on the line.

    The monotone coupling matches quantiles: on each interval of levels u
    where both quantile functions are constant it moves that much mass
    between the two quantiles. It is optimal for every convex cost.
    """
    def sorted_cdf(points, weights):
        points = np.asarray(points, dtype=np.float64).ravel()
        weights = np.asarray(weights, dtype=np.float64)
        keep = weights > 0
        order = np.argsort(points[keep], kind="stable")
        cdf = np.cumsum(weights[keep][order])
        return points[keep][order], cdf / cdf[-1]

    xp, cp = sorted_cdf(p_points, p_weights)
    xq, cq = sorted_cdf(q_points, q_weights)
    levels = np.union1d(cp, cq)
    widths = np.diff(np.concatenate([[0.0], levels]))
    mid = levels - widths / 2
    ip = np.minimum(np.searchsorted(cp, mid), len(xp) - 1)
    iq = np.minimum(np.searchsorted(cq, mid), len(xq) - 1)
    return float(np.sum(widths * (xp[ip] - xq[iq]) ** 2))


def _softmax_terms(lam, values, cost, eta):
    """Row maxima of eta*(f_j - lam*c_ij), and exp of the shifted terms with their row sums."""
    z = eta * (values[None, :] - lam * cost)
    top = z.max(axis=1, keepdims=True)
    e = np.exp(z - top)
    return top[:, 0], e, e.sum(axis=1)


def smoothed_dual(lam: float, weights, values, cost, epsilon: float, eta: float) -> float:
    """eps*lam + sum_i w_i (1/eta) log mean_j exp(eta (f_j - lam c_ij))."""
    weights = np.asarray(weights, dtype=np.float64)
    cost = np.asarray(cost, dtype=np.float64)
    keep = weights > 0
    top, _, total = _softmax_terms(lam, np.asarray(values, float), cost[keep], eta)
    inner = (top + np.log(total / cost.shape[1])) / eta
    return float(epsilon * lam + weights[keep] @ inner)


def _smoothed_slope(lam, weights, values, cost, epsilon, eta) -> float:
    _, e, total = _softmax_terms(lam, values, cost, eta)
    return float(epsilon - weights @ ((e * cost).sum(axis=1) / total))


def smoothed_dual_min(weights, values, cost, epsilon: float, eta: float,
                      rel_width: float = 1e-13) -> tuple[float, float]:
    """Minimise :func:`smoothed_dual` over lam >= 0; returns (lam*, value).

    The objective is convex in lam, so its slope is non-decreasing. The
    bracket starts at [0, spread/epsilon] and doubles until the slope at its
    upper end is non-negative; bisection on the slope's sign then narrows it.
    """
    weights = np.asarray(weights, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    keep = weights > 0
    w, c = weights[keep], np.asarray(cost, dtype=np.float64)[keep]

    def slope(lam):
        return _smoothed_slope(lam, w, values, c, epsilon, eta)

    if slope(0.0) >= 0:
        lam = 0.0
    else:
        hi = max(float(values.max() - values.min()), 1e-12) / epsilon
        while slope(hi) < 0:
            hi *= 2.0
        lo = 0.0
        while hi - lo > rel_width * hi:
            mid = 0.5 * (lo + hi)
            if slope(mid) < 0:
                lo = mid
            else:
                hi = mid
        lam = 0.5 * (lo + hi)
    return lam, smoothed_dual(lam, weights, values, cost, epsilon, eta)

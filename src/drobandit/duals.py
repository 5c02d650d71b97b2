"""One-dimensional dual solvers for distributionally robust expectations.

Given a nominal discrete distribution, a bounded cost vector f over a finite
candidate support and a radius epsilon, the worst-case expectation over the
transport ball reduces to minimizing

    epsilon * lam + E_nominal[ max_zeta ( f(zeta) - lam * c(x, zeta) ) ]

over the scalar lam >= 0. The objective is convex (a mixture of pointwise
maxima of affine functions of lam), the minimizer lives in [0, f_max/epsilon]
for non-negative f, and golden-section search is exact enough on a bracket of
that size. The entropy-smoothed variant replaces the inner max with a
log-sum-exp at sharpness eta against the uniform reference measure, which
keeps the value within log(support size)/eta of the exact one. The KL-ball
dual and an exact-LP primal oracle complete the toolbox.

One kernel solves every dual: a lockstep golden-section search over a batch
of problems sharing a cost matrix; a single solve is a batch of one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .distributions import DiscreteDistribution, SupportSet, match_indices
from .errors import (
    EmptyInput,
    InstanceTooLarge,
    InvalidTolerance,
    LengthMismatch,
    NegativeEpsilon,
    NegativeLambda,
    NonPositiveEta,
    NumericalError,
)
from .transport import GroundCost, solve_max_lp

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_MACHINE_EPS = float(np.finfo(np.float64).eps)

#: marker stored on solutions returned by the epsilon = 0 convention
NON_ROBUST_SHORTCUT = "non_robust_epsilon_zero"

#: cells of the (problems x atoms x candidates) temporary of one batched step
_BLOCK_CELLS = 1 << 20


@dataclass(frozen=True)
class CostVector:
    """A cost function sampled on a finite candidate support."""

    support: SupportSet
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if v.size == 0:
            raise EmptyInput("cost vector is empty")
        if v.ndim != 1 or len(v) != len(self.support):
            raise LengthMismatch(
                f"{v.size} cost values for {len(self.support)} support points"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("cost values must be finite")

    @property
    def f_max(self) -> float:
        return float(self.values.max())


@dataclass(frozen=True)
class DualSolution:
    """Outcome of a 1-d dual minimization."""

    lambda_star: float
    value: float
    iterations: int
    bracket: tuple[float, float]
    shortcut: str | None = None


@dataclass(frozen=True)
class SmoothingConfig:
    """Sharpness of the log-sum-exp smoothing (uniform reference measure)."""

    eta: float

    def __post_init__(self):
        if not self.eta > 0:
            raise NonPositiveEta(f"eta must be positive, got {self.eta}")


def lse(values, eta: float) -> float:
    """(1/eta) * log of the mean of exp(eta * v_i), evaluated max-shifted.

    Satisfies max(v) - log(n)/eta <= lse(v) <= max(v).
    """
    if not eta > 0:
        raise NonPositiveEta(f"eta must be positive, got {eta}")
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise EmptyInput("lse of an empty collection")
    if not np.all(np.isfinite(v)):
        raise ValueError("lse values must be finite")
    top = float(v.max())
    return top + math.log(float(np.mean(np.exp(eta * (v - top))))) / eta


def golden_section_minimize(fn, lo, hi, value_tol, slope_bound, max_iter: int = 400):
    """Minimize P unimodal functions in lockstep, each to within its `value_tol`.

    `fn(index, x)` returns the values of problems `index` at points `x`; the
    other arguments hold one entry per problem. A problem stops once width x
    `slope_bound` (a Lipschitz bound) < `value_tol` or once width < 1e-15 x
    its upper end; each step evaluates only the open problems. Both ends are
    evaluated, so no minimum exceeds fn(lo) or fn(hi). Returns per-problem
    (argmin, min, number of evaluations). Raises :class:`NumericalError` if
    a problem is still open after `max_iter` evaluations.
    """
    lo, hi, value_tol, slope_bound = np.broadcast_arrays(
        *np.atleast_1d(lo, hi, value_tol, slope_bound))
    f_lo, f_hi = fn(np.arange(len(hi)), lo), fn(np.arange(len(hi)), hi)
    best_x, best_f = np.where(f_lo <= f_hi, [lo, f_lo], [hi, f_hi])
    evals = np.full(len(hi), 2, dtype=np.int64)
    idx = np.flatnonzero(hi - lo > 0)
    floor = np.maximum(value_tol / np.maximum(slope_bound, 1e-300), 1e-15)[idx]
    a, b = lo[idx], hi[idx]
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = fn(idx, c), fn(idx, d)
    count = 4  # every open problem has made the same number of evaluations
    while True:
        go = b - a > np.maximum(floor, 1e-15 * np.abs(b))
        if count >= max_iter and go.any():
            raise NumericalError(f"golden-section search open after {count} evaluations")
        if not go.all():
            # moves drop only the worse interior point: the best one is c or d
            done = idx[~go]
            evals[done] = count
            for point, value in ((c[~go], fc[~go]), (d[~go], fd[~go])):
                better = value < best_f[done]
                best_x[done[better]], best_f[done[better]] = point[better], value[better]
            idx, floor, a, b, c, d, fc, fd = (v[go] for v in (idx, floor, a, b, c, d, fc, fd))
        if not idx.size:
            return best_x, best_f, evals
        left = fc <= fd  # keep [a, d] and c, or [c, b] and d; evaluate one new point
        a, b = np.where(left, a, c), np.where(left, d, b)
        kept, f_kept = np.where(left, c, d), np.where(left, fc, fd)
        step = _INV_PHI * (b - a)
        x = np.where(left, b - step, a + step)
        fx = fn(idx, x)
        count += 1
        c, fc = np.where(left, x, kept), np.where(left, fx, f_kept)
        d, fd = np.where(left, kept, x), np.where(left, f_kept, fx)


# -- matrix-level kernels ----------------------------------------------------
# These operate on a precomputed cost matrix between the nominal atoms (rows)
# and the candidate support (columns), for one multiplier and value vector or
# for k of each at once; the solvers and the learning loops share them.

def _payoffs(lam, values: np.ndarray, cost_matrix: np.ndarray) -> np.ndarray:
    # one temporary, updated in place: a fresh array costs more than the sums
    z = np.multiply(np.asarray(lam, dtype=np.float64)[..., None, None], cost_matrix)
    return np.subtract(values[..., None, :], z, out=z)


def exact_inner_values(lam, values: np.ndarray, cost_matrix: np.ndarray) -> np.ndarray:
    """Per-source max over candidates of f(zeta) - lam * c(x, zeta)."""
    return _payoffs(lam, values, cost_matrix).max(axis=-1)


def smoothed_inner_values(lam, values: np.ndarray, cost_matrix: np.ndarray,
                          eta: float) -> np.ndarray:
    """Per-source log-sum-exp (uniform reference) of f(zeta) - lam * c(x, zeta)."""
    z = _payoffs(lam, values, cost_matrix)
    z *= eta
    top = z.max(axis=-1)
    z -= top[..., None]
    return top / eta + np.log(np.mean(np.exp(z, out=z), axis=-1)) / eta


@dataclass(frozen=True)
class DualBatch:
    """Outcome of P 1-d dual minimizations; problem p searched [0, upper[p]]."""

    lambda_star: np.ndarray
    value: np.ndarray
    iterations: np.ndarray
    upper: np.ndarray
    shortcut: str | None = None

    def solution(self, p: int) -> DualSolution:
        return DualSolution(float(self.lambda_star[p]), float(self.value[p]),
                            int(self.iterations[p]), (0.0, float(self.upper[p])), self.shortcut)


def _tolerances(epsilon, tol, f_max: np.ndarray) -> np.ndarray:
    if epsilon < 0:
        raise NegativeEpsilon(f"epsilon must be non-negative, got {epsilon}")
    if tol is not None and not tol > 0:
        raise InvalidTolerance(f"tolerance must be positive, got {tol}")
    return np.where(f_max > 0, 1e-9 * f_max, 1e-12) if tol is None else np.full(f_max.shape, tol)


def _plugin_batch(expected, f_max: np.ndarray) -> DualBatch:
    cap = np.where(f_max > 0, f_max / _MACHINE_EPS, 0.0)
    return DualBatch(cap, np.atleast_1d(np.asarray(expected, dtype=np.float64)),
                     np.zeros(len(cap), dtype=np.int64), cap, NON_ROBUST_SHORTCUT)


def solve_transport_duals(weights, values, cost_matrix, epsilon, tol=None,
                          eta=None, plugin=None) -> DualBatch:
    """Transport-ball duals of P problems that share one cost matrix.

    Row p of `weights` (P, atoms) and `values` (P, candidates) is a problem;
    `cost_matrix[i, j]` is the cost from atom i to candidate j; `eta=None` is
    the exact dual, a positive `eta` the smoothed one. Problems are solved in
    lockstep per block of at most `_BLOCK_CELLS` problem-atom-candidate cells,
    without the atoms weightless in the whole block. `plugin` (epsilon = 0)
    defaults to row-wise weights . values, right when atoms are the candidates.
    """
    weights, values, cost_matrix = (np.asarray(v, dtype=np.float64)
                                    for v in (weights, values, cost_matrix))
    f_max = values.max(axis=1)
    tol = _tolerances(epsilon, tol, f_max)
    if epsilon == 0:
        return _plugin_batch(np.einsum("pi,pi->p", weights, values) if plugin is None
                             else plugin, f_max)
    # Solve with costs shifted to be >= 0. The objective is then <= f_max at 0
    # and >= epsilon*lam - log(n)/eta (no log term when exact), each atom being
    # a candidate at zero cost, so lam* <= (f_max + log(n)/eta) / epsilon.
    shift = np.minimum(values.min(axis=1), 0.0)
    shifted = values - shift[:, None]
    slack = 0.0 if eta is None else math.log(values.shape[1]) / eta
    hi = (shifted.max(axis=1) + slack) / epsilon
    slope = max(epsilon, float(cost_matrix.max(initial=0.0)))
    lam, value, evals = np.empty((3, len(values)))
    step = max(1, _BLOCK_CELLS // max(cost_matrix.size, 1))
    for block in (slice(s, s + step) for s in range(0, len(values), step)):
        atoms = weights[block].any(axis=0)
        w, v, cmat = weights[block][:, atoms], shifted[block], cost_matrix[atoms]

        def objective(index, x):
            inner = (exact_inner_values(x, v[index], cmat) if eta is None
                     else smoothed_inner_values(x, v[index], cmat, eta))
            return epsilon * x + np.einsum("ki,ki->k", w[index], inner)

        lam[block], value[block], evals[block] = golden_section_minimize(
            objective, 0.0, hi[block], tol[block], slope)
    return DualBatch(lam, value + shift, evals.astype(np.int64), hi)


def solve_transport_dual(weights, values, cost_matrix, epsilon, tol=None,
                         eta=None, plugin_value=None) -> DualSolution:
    """Transport-ball dual of one problem: see :func:`solve_transport_duals`."""
    return solve_transport_duals(np.atleast_2d(weights), np.atleast_2d(values), cost_matrix,
                                 epsilon, tol, eta, plugin_value).solution(0)


def solve_kl_duals(weights, values, epsilon, tol=None) -> DualBatch:
    """KL-ball duals of P problems: min over lam of eps*lam + lam*ln E[exp(f/lam)].

    Rows of `weights` and `values` are problems over atoms of positive weight.
    The objective is f_top (the observed max) at lam = 0 and, by Jensen, at
    least eps*lam + E[f], so lam* lies in [0, (f_top - E[f]) / eps].
    """
    weights, values = np.asarray(weights, dtype=np.float64), np.asarray(values, dtype=np.float64)
    seen = weights > 0
    top = np.where(seen, values, -np.inf).max(axis=1)
    expected = np.einsum("pi,pi->p", weights, values)
    tol = _tolerances(epsilon, tol, values.max(axis=1))
    if epsilon == 0:
        return _plugin_batch(expected, values.max(axis=1))
    lifted = np.where(seen, values - top[:, None], 0.0)  # exp() stays in (0, 1]
    hi = np.maximum(top - expected, 0.0) / epsilon
    # the slope is eps - KL(tilted || nominal), within [eps - ln(1/w_min), eps]
    slope = np.maximum(epsilon, -np.log(np.where(seen, weights, 1.0).min(axis=1)))

    def objective(index, lam):
        positive = lam > 0
        g = lifted[index] / np.where(positive, lam, 1.0)[:, None]
        tilt = np.log1p(np.einsum("ki,ki->k", weights[index], np.expm1(g)))
        return np.where(positive, epsilon * lam + top[index] + lam * tilt, top[index])

    return DualBatch(*golden_section_minimize(objective, 0.0, hi, tol, slope), hi)


def solve_kl_dual(weights, values, epsilon: float, tol: float | None = None) -> DualSolution:
    """KL-ball dual of one problem: see :func:`solve_kl_duals`."""
    return solve_kl_duals(np.atleast_2d(weights), np.atleast_2d(values), epsilon, tol).solution(0)


# -- typed operations ----------------------------------------------------------

def _values_at_atoms(p0: DiscreteDistribution, f: CostVector) -> np.ndarray:
    """f evaluated at the nominal atoms (requires the atoms to be in f's support)."""
    idx = match_indices(p0.support.points, f.support)
    return f.values[idx]


def dual_objective(lam: float, p0: DiscreteDistribution, f: CostVector,
                   epsilon: float) -> float:
    """Evaluate eps*lam + E_p0[ max_zeta ( f(zeta) - lam*c(x, zeta) ) ]."""
    if lam < 0:
        raise NegativeLambda(f"lam must be non-negative, got {lam}")
    if epsilon < 0:
        raise NegativeEpsilon(f"epsilon must be non-negative, got {epsilon}")
    cmat = GroundCost.SQUARED_EUCLIDEAN.pairwise(p0.support.points, f.support.points)
    return float(epsilon * lam + p0.weights @ exact_inner_values(lam, f.values, cmat))


def wasserstein_dual_solve(p0: DiscreteDistribution, f: CostVector, epsilon: float,
                           tol: float | None = None) -> DualSolution:
    """Worst-case expectation of f over the transport ball of radius epsilon.

    Minimizes the convex dual objective over lam in [0, f_max/epsilon] by
    golden-section search; the reported value is accurate to `tol` (default
    1e-9 * f_max) and, because lam = 0 is always evaluated, never exceeds
    f_max. With epsilon = 0 the non-robust expectation E_p0[f] is returned,
    flagged via :data:`NON_ROBUST_SHORTCUT`.
    """
    cmat = GroundCost.SQUARED_EUCLIDEAN.pairwise(p0.support.points, f.support.points)
    plugin = float(p0.weights @ _values_at_atoms(p0, f)) if epsilon == 0 else None
    return solve_transport_dual(p0.weights, f.values, cmat, epsilon, tol, plugin_value=plugin)


def regularized_dual_solve(p0: DiscreteDistribution, f: CostVector, epsilon: float,
                           smoothing: SmoothingConfig | None = None,
                           tol: float | None = None) -> DualSolution:
    """Entropy-smoothed variant of :func:`wasserstein_dual_solve`.

    The inner maximum becomes a log-sum-exp at sharpness `smoothing.eta`
    with uniform reference weights over the candidate support, so the value
    stays within log(|support|)/eta of the exact dual while being smooth in
    every argument. The bracket widens to [0, (f_max + log(|support|)/eta)/epsilon].
    """
    if smoothing is None:
        raise NonPositiveEta("a SmoothingConfig with positive eta is required")
    cmat = GroundCost.SQUARED_EUCLIDEAN.pairwise(p0.support.points, f.support.points)
    plugin = float(p0.weights @ _values_at_atoms(p0, f)) if epsilon == 0 else None
    return solve_transport_dual(
        p0.weights, f.values, cmat, epsilon, tol, eta=smoothing.eta, plugin_value=plugin
    )


def kl_dual_solve(p0: DiscreteDistribution, f: CostVector, epsilon: float,
                  tol: float | None = None) -> DualSolution:
    """Worst-case expectation of f over the KL ball of radius epsilon."""
    return solve_kl_dual(p0.weights, _values_at_atoms(p0, f), epsilon, tol)


def primal_oracle(p0: DiscreteDistribution, f: CostVector, epsilon: float) -> float:
    """Certify the dual by solving the primal transport-budget LP.

    Maximizes E_sigma[f] over couplings sigma with first marginal p0 and
    expected transport cost at most epsilon, with HiGHS on a sparse
    constraint matrix (:func:`drobandit.transport.solve_max_lp`, feasibility
    tolerances 1e-10). Intended as an oracle at desk scale; instances beyond
    10^6 coupling variables are rejected. Raises :class:`InfeasiblePrimal`
    when no coupling fits the budget and :class:`NumericalError` on any other
    solver failure.
    """
    if epsilon < 0:
        raise NegativeEpsilon(f"epsilon must be non-negative, got {epsilon}")
    m, n = len(p0.support), len(f.support)
    if m * n > 1_000_000:
        raise InstanceTooLarge(f"{m} x {n} coupling variables exceed the oracle limit")
    cmat = GroundCost.SQUARED_EUCLIDEAN.pairwise(p0.support.points, f.support.points)

    # variables: sigma (m*n, row-major) then the budget slack
    row_sums = sparse.hstack([sparse.kron(sparse.eye(m), np.ones((1, n))),
                              sparse.csr_matrix((m, 1))])
    budget = sparse.csr_matrix(np.append(cmat.ravel(), 1.0))
    eq = sparse.vstack([row_sums, budget], format="csr")
    rhs = np.append(p0.weights, epsilon)
    obj = np.append(np.tile(f.values, m), 0.0)
    value, _ = solve_max_lp(obj, eq, rhs)
    return value

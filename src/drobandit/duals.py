"""One-dimensional dual solvers for distributionally robust expectations.

Given a nominal discrete distribution, a bounded cost vector f over a finite
candidate support and a radius epsilon, the worst-case expectation over the
transport ball reduces to minimizing

    epsilon * lam + E_nominal[ max_zeta ( f(zeta) - lam * c(x, zeta) ) ]

over the scalar lam >= 0. The objective is convex (a mixture of pointwise
maxima of affine functions of lam), and for non-negative f the minimizer
lives in [0, f_max/(epsilon - reach)], reach = E_nominal[min_zeta c(x, zeta)]
being 0 when every atom is a candidate. The entropy-smoothed variant replaces
the inner max with a log-sum-exp at sharpness eta against the uniform
reference measure, within log(support size)/eta of the exact one; `eta` None
is the exact dual (arguments checked by :func:`check_transport_arguments`).
The KL-ball dual and an exact primal oracle complete the toolbox; the oracle
solves the transport-budget LP by a greedy pass over per-atom concave hulls.

One kernel solves every dual: :func:`convex_minimize` runs a batch of
problems in lockstep. Each evaluation returns the objective's slope from
the argmax or softmax it already computes, and its curvature where it has
one. The exact dual, piecewise linear, takes cutting-plane steps (Kelley,
1960); the smoothed and KL duals take safeguarded Newton steps. Every value
comes with a certified gap: the minimum lies within `gap` below it. A single
solve is a batch of one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteDistribution, SupportSet, match_indices
from .errors import (
    EmptyInput,
    InfeasiblePrimal,
    InvalidTolerance,
    LengthMismatch,
    NegativeEpsilon,
    NegativeLambda,
    NonPositiveEta,
    NumericalError,
)
# perfbench/spans.py's tracer wraps duals.solve_max_lp, so the name stays here
from .transport import GridCost, GroundCost, solve_max_lp  # noqa: F401

_MACHINE_EPS = float(np.finfo(np.float64).eps)

#: marker on solutions whose value comes from a closed form, not a search: the
#: nominal expectation at epsilon = 0, and the exact transport dual's limit at
#: epsilon = reach > 0 (see :func:`solve_transport_duals`)
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
    """Outcome of a 1-d dual minimization.

    `iterations` counts objective evaluations. `gap` certifies the value:
    the minimum over `bracket` lies in [value - gap, value].
    """

    lambda_star: float
    value: float
    iterations: int
    bracket: tuple[float, float]
    gap: float
    shortcut: str | None = None


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


def convex_minimize(fn, hi, tol, max_iter: int = 400):
    """Minimize P convex functions on [0, hi[p]] in lockstep, each to a certified gap.

    `fn(index, x)` returns (values, slopes, curvatures) of problems `index`
    at points `x`: a slope is any subgradient (the right derivative at 0),
    a curvature the second derivative, or 0 where there is none. Each open
    problem keeps a bracket [a, b] with slope(a) < 0 < slope(b) and evaluates
    one point per step: the Newton point from its best iterate if the
    curvature there is positive and the point falls inside (a, b), otherwise
    the crossing of the tangents at a and b. The point replaces the end whose
    slope has its sign. A problem stops at 0 if slope(0) >= 0, at b once
    slope(b) <= 0, and otherwise once its gap, min(best - tangent-model
    minimum, |slope(best)| * (b - a)), is at most its `tol` or rounding
    leaves no point inside (a, b). By convexity the gap bounds best - minimum.

    Returns per-problem (argmin, min, gap, number of evaluations). Raises
    :class:`NumericalError` if a problem is still open after `max_iter`
    evaluations.
    """
    hi, tol = np.broadcast_arrays(*np.atleast_1d(np.asarray(hi, dtype=np.float64), tol))
    best_x = np.zeros(len(hi))
    best_f, g0, h0 = fn(np.arange(len(hi)), best_x)
    best_f, gap = np.array(best_f, dtype=np.float64), np.zeros(len(hi))
    evals = np.ones(len(hi), dtype=np.int64)
    idx = np.flatnonzero((g0 < 0) & (hi > 0))  # the others stop at 0
    a, fa, ga, ha = best_x[idx], best_f[idx], g0[idx], h0[idx]
    b = hi[idx]
    fb, gb, hb = fn(idx, b)
    count = 2  # every open problem has made the same number of evaluations
    while idx.size:
        left = fa <= fb  # the best iterate is always an end of the bracket
        x, f, g, h = (np.where(left, u, v) for u, v in ((a, b), (fa, fb), (ga, gb), (ha, hb)))
        width = b - a
        cross = a + np.clip((fa - fb + gb * width) / (gb - ga), 0.0, width)
        cut = np.maximum(np.minimum(f - (fa + ga * (cross - a)), np.abs(g) * width), 0.0)
        newton = (h > 0) & ((x - b) * h < g) & (g < (x - a) * h)  # x - g/h inside (a, b)
        newton = x - np.divide(g, h, out=np.zeros_like(g), where=newton)
        step = np.where((a < newton) & (newton < b), newton, cross)  # after rounding too
        at_b = gb <= 0
        done = at_b | (cut <= tol[idx]) | ~((a < step) & (step < b))
        if done.any():
            stop = idx[done]
            evals[stop] = count
            best_x[stop] = np.where(at_b[done], b[done], x[done])
            best_f[stop] = np.where(at_b[done], fb[done], f[done])
            gap[stop] = np.where(at_b[done], 0.0, cut[done])
            keep = ~done
            idx, step, a, fa, ga, ha, b, fb, gb, hb = (
                v[keep] for v in (idx, step, a, fa, ga, ha, b, fb, gb, hb))
            if not idx.size:
                break
        if count >= max_iter:
            raise NumericalError(f"convex minimization open after {count} evaluations")
        fx, gx, hx = fn(idx, step)
        count += 1
        right, new = gx >= 0, (step, fx, gx, hx)  # the new point replaces b or a
        a, fa, ga, ha = (np.where(right, u, v) for u, v in zip((a, fa, ga, ha), new))
        b, fb, gb, hb = (np.where(right, v, u) for u, v in zip((b, fb, gb, hb), new))
    return best_x, best_f, gap, evals


@dataclass(frozen=True)
class DualBatch:
    """Outcome of P 1-d dual minimizations; problem p searched [0, upper[p]].

    `gap[p]` certifies the value: the true minimum lies in
    [value[p] - gap[p], value[p]].
    """

    lambda_star: np.ndarray
    value: np.ndarray
    iterations: np.ndarray
    upper: np.ndarray
    gap: np.ndarray
    shortcut: str | None = None

    def solution(self, p: int) -> DualSolution:
        return DualSolution(float(self.lambda_star[p]), float(self.value[p]),
                            int(self.iterations[p]), (0.0, float(self.upper[p])),
                            float(self.gap[p]), self.shortcut)


def check_transport_arguments(epsilon, eta=None, lam=0.0) -> None:
    """Reject a negative radius `epsilon` or multiplier `lam`, and an `eta` that
    is not positive (None is the exact dual), with their typed errors."""
    if lam < 0:
        raise NegativeLambda(f"lam must be non-negative, got {lam}")
    if epsilon < 0:
        raise NegativeEpsilon(f"epsilon must be non-negative, got {epsilon}")
    if eta is not None and not eta > 0:
        raise NonPositiveEta(f"eta must be positive, got {eta}")


def _tolerances(epsilon, tol, f_max: np.ndarray, eta=None) -> np.ndarray:
    check_transport_arguments(epsilon, eta)
    if tol is not None and not tol > 0:
        raise InvalidTolerance(f"tolerance must be positive, got {tol}")
    return np.where(f_max > 0, 1e-9 * f_max, 1e-12) if tol is None else np.full(f_max.shape, tol)


def _refuse_below_reach(epsilon, reach) -> None:
    if np.any(reach > epsilon):
        raise InfeasiblePrimal(f"radius {epsilon} is below {np.max(reach)}, the least cost "
                               "of moving the atoms onto the candidates")


def _plugin_batch(expected, f_max: np.ndarray) -> DualBatch:
    cap = np.where(f_max > 0, f_max / _MACHINE_EPS, 0.0)
    return DualBatch(cap, np.atleast_1d(np.asarray(expected, dtype=np.float64)),
                     np.zeros(len(cap), dtype=np.int64), cap, np.zeros(len(cap)),
                     NON_ROBUST_SHORTCUT)


# -- the transport-dual kernel -------------------------------------------------
# The inner max over candidates runs in stages, one axis of the cost at a time.
# With atoms and candidates the same grid, c(x, zeta) = sum_k (x_k - zeta_k)^2,
# so the max over zeta is a max over zeta_d, then over zeta_{d-1}, ..., each of
# one axis' term (Felzenszwalb & Huttenlocher, Distance Transforms of Sampled
# Functions, 2012), and the log-sum-exp nests the same way (Solomon et al.,
# Convolutional Wasserstein Distances, 2015). An atoms x candidates matrix is
# the one-stage case: its single axis cost is the matrix.

def _stage_source(a, shape, after, rest):
    """Stage output `a` as the source of a stage of `shape`, its last axis the
    axis being reduced: the cells of the axes ahead of it in grid order hold
    candidate levels, the `after` cells of the axes behind it atom levels.
    Shape (P, before, 1, after, n), or, on the first axis, (P, atoms, n) at
    the atoms' behind-cells `rest` (a slice when no axis is behind: then a
    (P, 1, n) view)."""
    if rest is None:
        return a.reshape(shape[:3] + (after,)).transpose(0, 1, 3, 2)[:, :, None]
    return a.reshape(len(a), shape[-1], after)[:, :, rest].transpose(0, 2, 1)


def _exact_stage(z, axis_cost, carried, spare):
    # max over the last axis; carried: cost of the axes behind at the argmax
    star = z.argmax(axis=-1)
    at = (*np.indices(star.shape, sparse=True), star)
    cost = np.broadcast_to(axis_cost, z.shape)[at]
    if carried is not None:
        cost += np.broadcast_to(carried[0], z.shape)[at]
    return z[at], (cost,)


def _smoothed_stage(z, axis_cost, carried, spare):
    # log-sum-exp over the last axis. exp() of arguments below -708 gives
    # subnormals or zeros, several times slower to produce and to multiply;
    # the floor moves each sum (at least 1, from its top term) by under
    # n * 1e-304. The moments of the cost under the softmax: a lone stage's
    # from one product with `spare` = (c, c^2) per atom; otherwise carried
    # holds the mean and variance of the cost of the axes behind, combined
    # with this axis' term by the laws of total expectation and variance
    top = z.max(axis=-1)
    z -= top[..., None]
    np.maximum(z, -700.0, out=z)
    np.exp(z, out=z)
    total = z.sum(axis=-1)
    value = top + np.log(total)
    if spare.ndim == 3:
        mean, square = np.matmul(spare, z.transpose(1, 2, 0)).transpose(1, 2, 0) / total
        return value, (mean, np.maximum(square - mean * mean, 0.0))
    t = spare[: z.size].reshape(z.shape)
    np.add(axis_cost, 0.0 if carried is None else carried[0], out=t)
    mean = np.einsum("...j,...j->...", z, t) / total
    t -= mean[..., None]
    np.square(t, out=t)
    if carried is not None:
        t += carried[1]
    return value, (mean, np.einsum("...j,...j->...", z, t) / total)


def _grid_pass(lam, values, stages, rest, buffers, eta=None):
    """Inner max (`eta` None) or log-sum-exp of values - lam * c, stage by stage.

    `values` (P, N) holds each problem's candidate values (in grid order on a
    grid) and `lam` (P,) its multiplier, both times eta when smoothed.
    `stages` are the axis costs, the first gathered at the atoms, whose
    behind-cells are `rest` (see :func:`_grid_objective`). The stages are
    reduced last first: stage k forms the (P, N, n_k) array of the last
    stage's values minus lam * (l_x - l_zeta)^2 in `buffers[0]` and reduces
    it over zeta_k; the first stage is formed at the atoms only. Returns, per
    problem and atom, the exact inner value and (cost at the argmax,), or the
    log of the sum (not the mean) of the exponentials and (mean, variance) of
    the cost under the softmax, which take `buffers[1]`.
    """
    stage = _exact_stage if eta is None else _smoothed_stage
    v, stats, after = values, None, 1
    for k in reversed(range(len(stages))):
        n = stages[k].shape[-1]
        if k:
            part, axis_cost = None, stages[k][:, None, :]
            shape = (len(v), values.shape[1] // (n * after), n, after, n)
        else:
            part, axis_cost, shape = rest, stages[0], (len(v),) + stages[0].shape
        z = buffers[0][: math.prod(shape)].reshape(shape)
        np.multiply(lam.reshape((-1,) + (1,) * (len(shape) - 1)), axis_cost, out=z)
        np.subtract(_stage_source(v, shape, after, part), z, out=z)
        carried = None if stats is None else [_stage_source(s, shape, after, part)
                                              for s in stats]
        v, stats = stage(z, axis_cost, carried, buffers[1])
        after *= n
    return v, stats


def _grid_objective(weights, rows, values, cost, epsilon, eta, problems):
    """The `fn` of :func:`convex_minimize` for the transport duals of one block:
    `weights` (P, atoms `rows`), `values` (P, candidates) and `cost` the atoms
    x candidates matrix or a :class:`GridCost`, one stage per axis. Each
    evaluation is one :func:`_grid_pass`. Exact: the slope is
    eps - sum_i w_i c(x_i, zeta_i*) at the stages' argmax, any subgradient
    where the argmax ties, and the curvature 0 (the objective is piecewise
    linear). Smoothed: the slope is eps - sum_i w_i E_softmax[c] and the
    curvature eta * sum_i w_i Var_softmax[c].
    """
    grid = isinstance(cost, GridCost)
    stages = cost.axis_costs() if grid else [cost]
    after = cost.shape[1] // stages[0].shape[1]  # cells behind the first axis
    atom, rest = np.divmod(rows, after)
    if not np.array_equal(atom, np.arange(len(stages[0]))):
        stages[0] = stages[0][atom]  # gathered once per block
    spare = None
    if eta is not None:
        values, log_n = eta * values, math.log(cost.shape[1])
        if not grid:  # c and c^2 side by side, the stage's c a view
            spare = np.empty((len(rows), 2, cost.shape[1]))
            spare[:, 0] = stages[0]
            stages[0] = spare[:, 0]
            np.square(stages[0], out=spare[:, 1])
    buffer = np.empty(problems * (cost.stage_cells if grid else stages[0].size))
    buffers = (buffer, np.empty_like(buffer) if eta is not None and grid else spare)
    rest = rest if after > 1 else slice(None)

    def objective(index, lam):
        w = weights[index]
        if eta is None:
            inner, (at_star,) = _grid_pass(lam, values[index], stages, rest, buffers)
            return (epsilon * lam + np.einsum("ki,ki->k", w, inner),
                    epsilon - np.einsum("ki,ki->k", w, at_star), np.zeros(len(index)))
        inner, (mean, spread) = _grid_pass(eta * lam, values[index], stages, rest, buffers, eta)
        return (epsilon * lam + np.einsum("ki,ki->k", w, inner - log_n) / eta,
                epsilon - np.einsum("ki,ki->k", w, mean),
                eta * np.einsum("ki,ki->k", w, spread))

    return objective


def transport_objective(lam, weights, values, cost, epsilon, eta=None) -> float:
    """The transport dual's objective at one multiplier `lam`: epsilon * lam
    plus the `weights`-mean over atoms of the inner max (`eta` None) or
    log-sum-exp (uniform reference) over candidates of values - lam * c, from
    the solvers' kernel (:func:`_grid_objective`). `cost` is the atoms x
    candidates matrix or a :class:`GridCost`. The arguments are checked by
    :func:`check_transport_arguments`."""
    check_transport_arguments(epsilon, eta, lam)
    weights = np.asarray(weights, dtype=np.float64)
    rows = np.flatnonzero(weights)
    fn = _grid_objective(weights[None, rows], rows, np.asarray(values, dtype=np.float64)[None],
                         cost, epsilon, eta, 1)
    return float(fn(np.zeros(1, dtype=np.int64), np.array([float(lam)]))[0][0])


def problem_cells(cost_matrix) -> int:
    """Cells one problem adds to a batched step's temporary: the matrix's size,
    or a :class:`GridCost`'s `stage_cells`."""
    return cost_matrix.stage_cells if isinstance(cost_matrix, GridCost) else cost_matrix.size


def solve_transport_duals(weights, values, cost_matrix, epsilon, tol=None,
                          eta=None, plugin=None) -> DualBatch:
    """Transport-ball duals of P problems that share one cost matrix.

    Row p of `weights` (P, atoms) and `values` (P, candidates) is a problem;
    `cost_matrix[i, j]` is the cost from atom i to candidate j, or a
    :class:`~drobandit.transport.GridCost` when atoms and candidates are the
    same grid (the inner steps then run axis by axis, :func:`_grid_pass`);
    `eta=None` is the exact dual, a positive `eta` the smoothed one. Blocks of
    at most `_BLOCK_CELLS` cells (:func:`problem_cells` per problem), less
    their weightless atoms, run in lockstep in :func:`convex_minimize`, each
    problem to a certified gap of at most `tol`. `plugin` (epsilon = 0)
    defaults to row-wise weights . values, right when atoms are the candidates.

    Every coupling costs at least reach = sum_i w_i min_j c(x_i, zeta_j), 0
    when every atom is a candidate; a radius below it raises
    :class:`InfeasiblePrimal`. At epsilon = reach > 0 the exact objective is
    flat past its last breakpoint, at sum_i w_i max{f_j : c(x_i, zeta_j) =
    min_k c(x_i, zeta_k)}: that minimum is returned with gap 0, flagged via
    :data:`NON_ROBUST_SHORTCUT`, if every problem is at its reach. The smoothed
    minimum is not attained there, and a batch partly at its reach has no
    single flag: both raise :class:`NumericalError`.
    """
    weights, values = np.asarray(weights, dtype=np.float64), np.asarray(values, dtype=np.float64)
    grid = isinstance(cost_matrix, GridCost)
    if not grid:
        cost_matrix = np.asarray(cost_matrix, dtype=np.float64)
    f_max = values.max(axis=1)
    tol = _tolerances(epsilon, tol, f_max, eta)
    reach = 0.0 if grid else weights @ cost_matrix.min(axis=1)
    _refuse_below_reach(epsilon, reach)
    if epsilon == 0:
        return _plugin_batch(np.einsum("pi,pi->p", weights, values) if plugin is None
                             else plugin, f_max)
    if np.any(reach == epsilon):
        if eta is None and np.all(reach == epsilon):
            extra = cost_matrix - cost_matrix.min(axis=1, keepdims=True)
            best = np.where(extra == 0, values[:, None, :], -np.inf).max(axis=2)
            # atom i's inner max stays on its nearest candidates once lam >=
            # (f_j - best_i) / extra_ij for every other candidate j
            kink = np.divide(values[:, None, :] - best[:, :, None], extra,
                             out=np.zeros(best.shape + extra.shape[1:]), where=extra > 0)
            lam = np.where(weights > 0, kink.max(axis=2), 0.0).max(axis=1)
            return DualBatch(lam, np.einsum("pi,pi->p", weights, best),
                             np.zeros(len(lam), dtype=np.int64), lam, np.zeros(len(lam)),
                             NON_ROBUST_SHORTCUT)
        raise NumericalError(f"radius {epsilon} equals the least cost of moving the atoms "
                             "onto the candidates")
    # Solve with values shifted to be >= 0. The objective is then <= f_max at
    # 0 and >= (epsilon - reach) * lam - log(n)/eta (no log term when exact),
    # taking each atom to its cheapest candidate, so lam* <= (f_max +
    # log(n)/eta) / (epsilon - reach).
    shift = np.minimum(values.min(axis=1), 0.0)
    shifted = values - shift[:, None]
    slack = 0.0 if eta is None else math.log(values.shape[1]) / eta
    hi = (shifted.max(axis=1) + slack) / (epsilon - reach)
    lam, value, gap, evals = np.empty((4, len(values)))
    step = max(1, _BLOCK_CELLS // max(problem_cells(cost_matrix), 1))
    for block in (slice(s, s + step) for s in range(0, len(values), step)):
        atoms = weights[block].any(axis=0)
        objective = _grid_objective(weights[block][:, atoms], np.flatnonzero(atoms),
                                    shifted[block], cost_matrix, epsilon, eta,
                                    len(values[block]))
        lam[block], value[block], gap[block], evals[block] = convex_minimize(
            objective, hi[block], tol[block])
    return DualBatch(lam, value + shift, evals.astype(np.int64), hi, gap)


def solve_transport_dual(weights, values, cost_matrix, epsilon, tol=None,
                         eta=None, plugin_value=None) -> DualSolution:
    """Transport-ball dual of one problem: see :func:`solve_transport_duals`."""
    return solve_transport_duals(np.atleast_2d(weights), np.atleast_2d(values), cost_matrix,
                                 epsilon, tol, eta, plugin_value).solution(0)


def solve_kl_duals(weights, values, epsilon, tol=None) -> DualBatch:
    """KL-ball duals of P problems: min over lam of eps*lam + lam*ln E[exp(f/lam)].

    Rows of `weights` and `values` are problems over atoms of positive weight.
    The objective is f_top (the observed max) at lam = 0 and, by Jensen, at
    least eps*lam + E[f], so lam* lies in [0, (f_top - E[f]) / eps]. The slope
    is eps - KL(tilted || nominal), eps + ln(weight on the top atoms) at 0,
    and the curvature Var_tilted(f) / lam^3.
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
    slope_at_zero = epsilon + np.log(np.where(seen & (lifted == 0), weights, 0.0).sum(axis=1))

    def objective(index, lam):
        positive = lam > 0
        scale = np.where(positive, lam, 1.0)
        w, g = weights[index], lifted[index] / scale[:, None]
        tilt = np.log1p(np.einsum("ki,ki->k", w, np.expm1(g)))
        log_ratio = g - tilt[:, None]  # ln(tilted / nominal) on atoms of positive weight
        tilted = w * np.exp(log_ratio)
        mean = np.einsum("ki,ki->k", tilted, g)
        spread = np.einsum("ki,ki->k", tilted, np.square(g - mean[:, None]))
        return (np.where(positive, epsilon * lam + top[index] + lam * tilt, top[index]),
                np.where(positive, epsilon - np.einsum("ki,ki->k", tilted, log_ratio),
                         slope_at_zero[index]),
                np.where(positive, spread / scale, 0.0))  # Var(f)/lam^3 = Var(f/lam)/lam

    lam, value, gap, evals = convex_minimize(objective, hi, tol)
    return DualBatch(lam, value, evals, hi, gap)


def solve_kl_dual(weights, values, epsilon: float, tol: float | None = None) -> DualSolution:
    """KL-ball dual of one problem: see :func:`solve_kl_duals`."""
    return solve_kl_duals(np.atleast_2d(weights), np.atleast_2d(values), epsilon, tol).solution(0)


# -- typed operations ----------------------------------------------------------

def dual_objective(lam: float, p0: DiscreteDistribution, f: CostVector,
                   epsilon: float) -> float:
    """Evaluate eps*lam + E_p0[ max_zeta ( f(zeta) - lam*c(x, zeta) ) ]
    (:func:`transport_objective`, which checks the arguments)."""
    cmat = GroundCost.SQUARED_EUCLIDEAN.pairwise(p0.support.points, f.support.points)
    return transport_objective(lam, p0.weights, f.values, cmat, epsilon)


def wasserstein_dual_solve(p0: DiscreteDistribution, f: CostVector, epsilon: float,
                           tol: float | None = None, eta: float | None = None) -> DualSolution:
    """Worst-case expectation of f over the transport ball of radius epsilon,
    by :func:`solve_transport_duals` on the atoms x candidates costs.

    The value is an attained objective value, so never above f_max (lam = 0),
    and `gap` certifies that the minimum lies in [value - gap, value]: at most
    `tol` (default 1e-9 * f_max) unless rounding leaves no room to search.
    At epsilon = 0 the non-robust E_p0[f] is returned with gap 0, flagged via
    :data:`NON_ROBUST_SHORTCUT`. A positive `eta` solves the entropy-smoothed
    dual (uniform reference over the candidates, within log(|support|)/eta of
    the exact dual) with safeguarded Newton steps.
    """
    cmat = GroundCost.SQUARED_EUCLIDEAN.pairwise(p0.support.points, f.support.points)
    # at epsilon = 0 every atom of positive weight must sit on a candidate at
    # cost 0, its own point, or the solver refuses the radius
    plugin = float(p0.weights @ f.values[cmat.argmin(axis=1)]) if epsilon == 0 else None
    return solve_transport_dual(p0.weights, f.values, cmat, epsilon, tol, eta, plugin)


def kl_dual_solve(p0: DiscreteDistribution, f: CostVector, epsilon: float,
                  tol: float | None = None) -> DualSolution:
    """Worst-case expectation of f over the KL ball of radius epsilon."""
    values = f.values[match_indices(p0.support.points, f.support)]  # f at the atoms
    return solve_kl_dual(p0.weights, values, epsilon, tol)


def _greedy_coupling(p0: DiscreteDistribution, f: CostVector, epsilon: float):
    """:func:`primal_oracle`'s optimal coupling as (atom, candidate, mass) arrays;
    each live atom sits on one candidate, but at most one atom splits over two."""
    check_transport_arguments(epsilon)
    cmat = GroundCost.SQUARED_EUCLIDEAN.pairwise(p0.support.points, f.support.points)
    reach = p0.weights @ cmat.min(axis=1)  # solve_transport_duals' expression
    _refuse_below_reach(epsilon, reach)
    live = np.flatnonzero(p0.weights > 0)
    cost = cmat[live]
    ranked = np.lexsort((np.broadcast_to(-f.values, cost.shape), cost), axis=1)
    best = np.maximum.accumulate(f.values[ranked], axis=1)  # rises where one is kept
    rows, rank = np.nonzero(np.diff(best, axis=1, prepend=-np.inf) > 0)
    cols = ranked[rows, rank]
    kept_cost = cost[rows, cols]
    # the upper concave hull (monotone chain) of each row's kept points, from `first` on
    c, v = kept_cost.tolist(), f.values[cols].tolist()
    first = np.flatnonzero(np.diff(rows, prepend=-1))
    begin, end, slope = [], [], []
    for a, b in zip(first.tolist(), first[1:].tolist() + [len(c)]):
        hull, rises = [a], []
        for k in range(a + 1, b):
            while rises and (v[k] - v[hull[-1]]) / (c[k] - c[hull[-1]]) >= rises[-1]:
                hull.pop(), rises.pop()
            rises.append((v[k] - v[hull[-1]]) / (c[k] - c[hull[-1]]))
            hull.append(k)
        begin += hull[:-1]
        end += hull[1:]
        slope += rises
    # each row starts on its cheapest kept column; the budget left buys whole
    # segments, steepest first (a row's in hull order), then part of the next
    order = np.argsort(-np.array(slope), kind="stable")
    begin, end = (np.array(k, dtype=np.int64)[order] for k in (begin, end))
    row, mass, width = rows[end], p0.weights[live], kept_cost[end] - kept_cost[begin]
    spend = np.cumsum(mass[row] * width)
    budget = epsilon - reach
    whole = int(np.searchsorted(spend, budget, side="right"))
    at = first.copy()
    np.maximum.at(at, row[:whole], end[:whole])
    atoms, columns = live, cols[at]
    if whole < len(end):
        i = row[whole]
        moved = min((budget - (spend[whole - 1] if whole else 0.0)) / width[whole], mass[i])
        mass[i] -= moved
        atoms, columns = np.append(atoms, live[i]), np.append(columns, cols[end[whole]])
        mass = np.append(mass, moved)
    carries = mass > 0
    return atoms[carries], columns[carries], mass[carries]


def primal_oracle(p0: DiscreteDistribution, f: CostVector, epsilon: float) -> float:
    """Certify the dual by solving the primal transport-budget LP exactly.

    Maximizes E_sigma[f] over couplings sigma with first marginal p0 and
    expected transport cost at most epsilon; no dual solver is called. With
    one row per atom and one budget row, the LP is the relaxation of a
    multiple-choice knapsack, solved exactly by a greedy pass over per-row
    concave hulls (Sinha & Zoltners, Oper. Res. 1979; Zemel, Inf. Process.
    Lett. 1984). Per atom of positive weight, candidates are ranked by cost,
    ties by value descending, and kept if worth more than every cheaper one.
    Each atom starts on its cheapest kept candidate; the budget left buys the
    mass-weighted segments of the atoms' upper concave hulls over their kept
    (cost, value) points, steepest first, the last one in part. A radius below
    reach = sum_i w_i min_j c(x_i, zeta_j) (as the dual computes it) raises
    :class:`InfeasiblePrimal`; `GroundCost.pairwise` bounds the instance size.
    """
    _, columns, mass = _greedy_coupling(p0, f, epsilon)
    return float(mass @ f.values[columns])

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
the maximisers or softmax it already computes, and its curvature where it
has one. The exact dual, piecewise linear, takes cutting-plane steps (Kelley,
1960); the smoothed and KL duals take safeguarded Newton steps. Every value
comes with a certified gap: the minimum lies within `gap` below it. A single
solve takes the same steps on Python floats.
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
    evaluations. One problem (P = 1) takes the same steps on floats, bit for
    bit, without the per-step array bookkeeping (:func:`_minimize_one`).
    """
    hi, tol = np.broadcast_arrays(*np.atleast_1d(np.asarray(hi, dtype=np.float64), tol))
    if len(hi) == 1:
        x, f, gap, count = _minimize_one(fn, float(hi[0]), float(tol[0]), max_iter)
        return np.array([x]), np.array([f]), np.array([gap]), np.array([count], dtype=np.int64)
    best_x = np.zeros(len(hi))
    best_f, g0, h0 = fn(np.arange(len(hi)), best_x)
    best_f, gap = np.array(best_f, dtype=np.float64), np.zeros(len(hi))
    evals = np.ones(len(hi), dtype=np.int64)
    idx = np.flatnonzero((g0 < 0) & (hi > 0))  # the others stop at 0
    # each bracket end is one (4, P) array: point, value, slope, curvature
    lo = np.array((best_x, best_f, g0, h0))[:, idx]
    up = np.array((hi[idx], *fn(idx, hi[idx])))
    count = 2  # every open problem has made the same number of evaluations
    while idx.size:
        (a, fa, ga, _), (b, fb, gb, _) = lo, up
        x, f, g, h = np.where(fa <= fb, lo, up)  # the best iterate is always an end
        width = b - a
        cross = np.divide(fa - fb + gb * width, gb - ga, out=np.zeros_like(ga), where=gb > 0)
        cross = a + np.clip(cross, 0.0, width)  # gb <= 0 stops at b, whatever the crossing
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
            idx, step, lo, up = idx[keep], step[keep], lo[:, keep], up[:, keep]
            if not idx.size:
                break
        if count >= max_iter:
            raise NumericalError(f"convex minimization open after {count} evaluations")
        new = np.array((step, *fn(idx, step)))
        count += 1
        right = new[2] >= 0  # the new point replaces b or a
        lo, up = np.where(right, lo, new), np.where(right, new, up)
    return best_x, best_f, gap, evals


def _minimize_one(fn, hi, tol, max_iter):
    """:func:`convex_minimize`'s loop on floats, as (argmin, min, gap, evaluations);
    slope(b) <= 0 is tested first, as equal end slopes would divide by zero."""
    def end(x):  # (point, value, slope, curvature)
        return (x, *(float(r[0]) for r in fn(np.arange(1), np.array([x]))))

    lo = end(0.0)
    if not (lo[2] < 0 and hi > 0):
        return 0.0, lo[1], 0.0, 1
    up, count = end(hi), 2
    while True:
        (a, fa, ga, _), (b, fb, gb, _) = lo, up
        if gb <= 0:
            return b, fb, 0.0, count
        x, f, g, h = lo if fa <= fb else up
        width = b - a
        cross = a + min(max((fa - fb + gb * width) / (gb - ga), 0.0), width)
        cut = max(min(f - (fa + ga * (cross - a)), abs(g) * width), 0.0)
        step = x - g / h if h > 0 and (x - b) * h < g < (x - a) * h else x
        if not a < step < b:
            step = cross
        if cut <= tol or not a < step < b:
            return x, f, cut, count
        if count >= max_iter:
            raise NumericalError(f"convex minimization open after {count} evaluations")
        new, count = end(step), count + 1
        lo, up = (lo, new) if new[2] >= 0 else (new, up)


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
#
# Every stage reduces over the leading axis of its array z, the candidate
# levels zeta_k, where numpy's max and sum run as contiguous passes; over a
# short last axis they run many times slower. On a grid axis z is (n_k, n_k,
# P, R), candidate level j by atom level i by problem by the R cells of the
# other axes: the stage's input, transposed once to (n_k, P, R), minus a
# small (j, i, P) table of lam_p * c(l_i, l_j). The first axis is reduced at
# the atoms only, z (n_0, P, atoms). Where maximisers tie, the exact stage
# carries the least cost among them, so the slope is the right derivative.

def _lead(a, n, before):
    """Stage output `a` (m, P, before * n * tail), m the levels of the axis
    reduced before (1 for the values), as a (n, P, before * m * tail) copy
    led by the n levels of the axis to reduce next."""
    m, p, cells = a.shape
    tail = cells // (before * n)
    return a.reshape(m, p, before, n, tail).transpose(3, 1, 2, 0, 4).reshape(n, p, cells // n * m)


def _stage_costs(out, axis_cost, carried, rest):
    # out = the axis' cost plus the cost carried from the axes behind, led by
    # the candidate levels: (j, i, P, R) on a grid axis (`rest` None), gathered
    # at the atoms' behind-cells `rest` at the atoms
    if carried is None:
        np.copyto(out, axis_cost)
    elif rest is None:
        np.add(axis_cost, carried[:, None], out=out)
    else:
        np.take(carried, rest, axis=2, out=out, mode="clip")
        out += axis_cost


def _exact_stage(z, axis_cost, carried, rest, spare):
    # max over the leading axis, and the least cost (this axis' plus the one
    # carried) among its maximisers, which are marked before z holds the costs
    top = z.max(axis=0)
    off = z != top
    _stage_costs(z, axis_cost, None if carried is None else carried[0], rest)
    np.putmask(z, off, np.inf)
    return top, (z.min(axis=0),)


def _max_stage(z, *_):
    return z.max(axis=0), None


def _lse_stage(z, *_):
    return _log_sum_exp(z)[0], None


def _log_sum_exp(z):
    # over the leading axis, leaving z = exp(z - max); also returns the sum of
    # those. exp() of arguments below -708 gives subnormals or zeros, several
    # times slower to produce and to multiply; the floor moves each sum (at
    # least 1, from its top term) by under n * 1e-304
    top = z.max(axis=0)
    z -= top
    np.maximum(z, -700.0, out=z)
    np.exp(z, out=z)
    total = z.sum(axis=0)
    return top + np.log(total), total


def _smoothed_stage(z, axis_cost, carried, rest, spare):
    # log-sum-exp over the leading axis and the mean and variance of the cost
    # under the softmax, the costs laid out in the flat buffer `spare`. From
    # the second stage reduced on, carried holds the mean and variance of the
    # cost of the axes behind, combined with this axis' term by the laws of
    # total expectation and variance
    value, total = _log_sum_exp(z)
    t = spare[: z.size].reshape(z.shape)
    _stage_costs(t, axis_cost, None if carried is None else carried[0], rest)
    mean = np.einsum("j...,j...->...", z, t) / total
    t -= mean
    np.square(t, out=t)
    if carried is not None:
        t += carried[1][:, None] if rest is None else carried[1][:, :, rest]
    return value, (mean, np.einsum("j...,j...->...", z, t) / total)


def _grid_pass(lam, values, stages, rest, buffers, eta=None, moments=True):
    """Inner max (`eta` None) or log-sum-exp of values - lam * c, stage by stage.

    `values` (P, N) holds each problem's candidate values (in grid order on a
    grid) and `lam` (P,) its multiplier, both times eta when smoothed.
    `stages` are the axis costs, the first as a (levels, atoms) table at the
    atoms, whose behind-cells are `rest` (see :func:`_grid_objective`). The
    stages are reduced last first, each over the leading axis of z in
    `buffers[0]`: stage k > 0 forms the (n_k, n_k, P, R) array of the last
    stage's values, led by zeta_k, minus lam * (l_x - l_zeta)^2; the first
    stage, (n_0, P, atoms), is formed at the atoms only. Returns, per problem
    and atom, the exact inner value and (least cost among the maximisers,),
    or the log of the sum (not the mean) of the exponentials and (mean,
    variance) of the cost under the softmax, which take `buffers[1]`. Without
    `moments`, the value alone and None.
    """
    if moments:
        stage = _exact_stage if eta is None else _smoothed_stage
    else:
        stage = _max_stage if eta is None else _lse_stage
    v, stats, before = values[None], None, values.shape[1]
    for k in reversed(range(len(stages))):
        n = len(stages[k])
        before //= n
        v = _lead(v, n, before)
        if k:
            axis_cost = stages[k].T[:, :, None, None]
            z = buffers[0][: n * v.size].reshape((n,) + v.shape)
            np.subtract(v[:, None], np.multiply.outer(stages[k].T, lam)[..., None], out=z)
        else:
            axis_cost = stages[0][:, None]
            shape = (n, len(lam), axis_cost.shape[-1])
            z = buffers[0][: math.prod(shape)].reshape(shape)
            np.multiply(lam[:, None], axis_cost, out=z)
            np.subtract(v[:, :, rest], z, out=z)
        stats = None if stats is None else [_lead(s, n, before) for s in stats]
        v, stats = stage(z, axis_cost, stats, None if k else rest, buffers[1])
    return v, stats


def _grid_objective(weights, rows, values, cost, epsilon, eta, problems, moments=True):
    """The `fn` of :func:`convex_minimize` for the transport duals of one block:
    `weights` (P, atoms `rows`), `values` (P, candidates) and `cost` the atoms
    x candidates matrix or a :class:`GridCost`, one stage per axis. The first
    stage's costs are copied once, as a (levels, atoms) table with the
    candidates leading; a matrix whose transpose is C-contiguous, and whose
    rows are all atoms, needs no copy. Each evaluation is one
    :func:`_grid_pass`; the softmax moments take a second buffer the size of
    the first, on a matrix as on a grid. Exact: the slope is eps - sum_i w_i
    c(x_i, zeta_i*), zeta_i* the maximiser of least cost where maximisers
    tie, so the slope is the right derivative, and the curvature 0 (the
    objective is piecewise linear). Smoothed: the slope is eps - sum_i w_i E_softmax[c] and the
    curvature eta * sum_i w_i Var_softmax[c]. Without `moments`, the
    objective returns (value,): no least cost, no softmax moments, no buffer
    for them.
    """
    grid = isinstance(cost, GridCost)
    stages = cost.axis_costs() if grid else [cost]
    after = cost.shape[1] // stages[0].shape[1]  # cells behind the first axis
    atom, rest = np.divmod(rows, after)
    first = stages[0].T
    stages[0] = (np.ascontiguousarray(first) if np.array_equal(atom, np.arange(len(stages[0])))
                 else np.take(first, atom, axis=1))
    if eta is not None:
        values, log_n = eta * values, math.log(cost.shape[1])
    buffer = np.empty(problems * (cost.stage_cells if grid else stages[0].size))
    buffers = (buffer, np.empty_like(buffer) if eta is not None and moments else None)
    rest = rest if len(stages) > 1 else slice(None)

    def objective(index, lam):
        w = weights[index]
        if eta is None:
            inner, stats = _grid_pass(lam, values[index], stages, rest, buffers, None, moments)
            value = epsilon * lam + np.einsum("ki,ki->k", w, inner)
            if stats is None:
                return (value,)
            return value, epsilon - np.einsum("ki,ki->k", w, stats[0]), np.zeros(len(index))
        inner, stats = _grid_pass(eta * lam, values[index], stages, rest, buffers, eta, moments)
        value = epsilon * lam + np.einsum("ki,ki->k", w, inner - log_n) / eta
        if stats is None:
            return (value,)
        return (value, epsilon - np.einsum("ki,ki->k", w, stats[0]),
                eta * np.einsum("ki,ki->k", w, stats[1]))

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
                         cost, epsilon, eta, 1, moments=False)
    return float(fn(np.zeros(1, dtype=np.int64), np.array([float(lam)]))[0][0])


def solve_transport_duals(weights, values, cost_matrix, epsilon, tol=None,
                          eta=None, plugin=None) -> DualBatch:
    """Transport-ball duals of P problems that share one cost matrix.

    Row p of `weights` (P, atoms) and `values` (P, candidates) is a problem;
    `cost_matrix[i, j]` is the cost from atom i to candidate j, or a
    :class:`~drobandit.transport.GridCost` when atoms and candidates are the
    same grid (the inner steps then run axis by axis, :func:`_grid_pass`);
    `eta=None` is the exact dual, a positive `eta` the smoothed one. Blocks of
    at most `_BLOCK_CELLS` cells (per problem the matrix's size, or the
    GridCost's `stage_cells`), less their weightless atoms, run in lockstep in
    :func:`convex_minimize`, each problem to a certified gap of at most `tol`,
    so callers pass any number of problems. `plugin` (epsilon = 0) defaults to
    row-wise weights . values, right when atoms are the candidates.

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
    step = max(1, _BLOCK_CELLS // max(cost_matrix.stage_cells if grid else cost_matrix.size, 1))
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

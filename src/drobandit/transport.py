"""Exact optimal transport between finite discrete distributions.

The distance is the minimal expected ground cost over couplings with the two
distributions as marginals. On the line it is the monotone (quantile)
coupling; in higher dimensions it is solved as a transportation linear
program with HiGHS, the package's one LP solver. The ground cost is squared
Euclidean; scalars are treated as 1-d vectors.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .distributions import DiscreteDistribution, SupportSet, empirical_distribution, _as_points
from .errors import (
    DegenerateInput,
    InstanceTooLarge,
    NumericalError,
    TooFewSamples,
)

MARGINAL_ATOL = 1e-9
#: largest cost matrix (rows x columns) :meth:`GroundCost.pairwise` builds
MAX_PAIRWISE_CELLS = 25_000_000

# HiGHS defaults to 1e-7 feasibility; transport plans are checked to the 1e-9 MARGINAL_ATOL
_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


class GroundCost(enum.Enum):
    """Per-point transport cost c(xi, zeta)."""

    SQUARED_EUCLIDEAN = "squared_euclidean"

    def pairwise(self, a, b) -> np.ndarray:
        """Cost matrix between two point sets, shape (len(a), len(b)), of at
        most :data:`MAX_PAIRWISE_CELLS` entries (else :class:`InstanceTooLarge`)."""
        pa, pb = _as_points(a), _as_points(b)
        if len(pa) * len(pb) > MAX_PAIRWISE_CELLS:
            raise InstanceTooLarge(f"{len(pa)} x {len(pb)} costs exceed {MAX_PAIRWISE_CELLS}")
        return self.block(pa, pb)

    def block(self, pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
        """:meth:`pairwise` on two (n, dim) float64 arrays, without conversion or
        size guard: for callers that keep their blocks small, one row at a time
        in the SGD loop. Entries equal those of :meth:`pairwise` bit for bit."""
        if self is GroundCost.SQUARED_EUCLIDEAN:
            out = np.zeros((len(pa), len(pb)))
            for k in range(pa.shape[1]):  # per axis: no (len(a), len(b), dim) array
                diff = np.subtract.outer(pa[:, k], pb[:, k])
                out += np.multiply(diff, diff, out=diff)
            return out
        raise NotImplementedError(self)


def grid_levels(points) -> tuple[np.ndarray, ...] | None:
    """Per-axis levels of `points` if they form a Cartesian grid, else None.

    The points form a grid when they have two or more axes, their number is
    the product of the per-axis `np.unique` counts, and they equal
    `np.meshgrid(*levels, indexing="ij")` in that order: the layout of
    `load_dataset(support="full")`. A 1-d support is left to the dense matrix.
    """
    pts = _as_points(points)
    if pts.shape[1] < 2:
        return None
    levels = tuple(np.unique(pts[:, k]) for k in range(pts.shape[1]))
    if math.prod(len(lv) for lv in levels) != len(pts):
        return None
    grid = np.meshgrid(*levels, indexing="ij", copy=False)
    if not all(np.array_equal(g.ravel(), pts[:, k]) for k, g in enumerate(grid)):
        return None
    return levels


@dataclass(frozen=True)
class GridCost:
    """Squared-Euclidean costs among all points of a Cartesian grid, held as
    the grid's per-axis levels (see :func:`grid_levels`).

    The N x N matrix is never formed: the cost splits into one term per axis,
    so a dual's inner max or log-sum-exp runs axis by axis over arrays of
    `stage_cells` = N x (largest level count) entries per problem, at most
    :data:`MAX_PAIRWISE_CELLS` (else :class:`InstanceTooLarge`). `shape` is the
    (N, N) shape of the matrix it stands for.
    """

    levels: tuple

    def __post_init__(self):
        levels = tuple(np.asarray(lv, dtype=np.float64) for lv in self.levels)
        object.__setattr__(self, "levels", levels)
        if self.stage_cells > MAX_PAIRWISE_CELLS:
            raise InstanceTooLarge(f"{self.shape[0]} grid points x up to "
                                   f"{self.stage_cells // self.shape[0]} levels per axis "
                                   f"exceed {MAX_PAIRWISE_CELLS}")

    @property
    def shape(self) -> tuple[int, int]:
        n = math.prod(len(lv) for lv in self.levels)
        return n, n

    @property
    def stage_cells(self) -> int:
        return self.shape[0] * max(len(lv) for lv in self.levels)

    def axis_costs(self) -> list[np.ndarray]:
        """(levels, levels) matrices (l_x - l_zeta)^2, one per axis."""
        return [GroundCost.SQUARED_EUCLIDEAN.block(lv[:, None], lv[:, None]) for lv in self.levels]


@dataclass(frozen=True)
class TransportPlan:
    """A coupling: row sums equal the source weights, column sums the target's."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if np.any(m < -1e-12):
            raise ValueError("plan entries must be non-negative")
        m = np.clip(m, 0.0, None)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def cost(self, cost_matrix: np.ndarray) -> float:
        return float(np.sum(self.matrix * cost_matrix))


def wasserstein_distance(p: DiscreteDistribution,
                         q: DiscreteDistribution) -> tuple[float, TransportPlan]:
    """Transportation-problem distance between two discrete distributions.

    Supports may differ; the value is always finite. On the line the optimal
    plan is the monotone coupling, built by the north-west-corner rule on the
    sorted supports in O((m+n) log(m+n)); it is optimal for any convex cost
    of the difference and unique for the squared one. Otherwise the LP is
    solved with HiGHS (:func:`solve_max_lp`), which returns a vertex plan
    exact to well below the 1e-9 marginal tolerance at desk scale. Either
    way the dense m x n plan is refused above :data:`MAX_PAIRWISE_CELLS`
    (:class:`InstanceTooLarge`) before it is allocated.

    Returns
    -------
    (distance, plan), where `plan.matrix[i, j]` is the mass moved from
    `p.support.points[i]` to `q.support.points[j]`.
    """
    m, n = len(p.support), len(q.support)
    if m == 0 or n == 0:
        raise DegenerateInput("empty support")
    if p.support.dim != q.support.dim:
        raise DegenerateInput("supports have different dimensions")
    if m * n > MAX_PAIRWISE_CELLS:
        raise InstanceTooLarge(f"{m} x {n} plan exceeds {MAX_PAIRWISE_CELLS} cells")
    if p.support.dim == 1:
        distance, plan = _monotone_coupling(p.support.points[:, 0], p.weights,
                                            q.support.points[:, 0], q.weights)
    else:
        cmat = GroundCost.SQUARED_EUCLIDEAN.pairwise(p.support.points, q.support.points)
        # row-sum then column-sum constraints on the row-major plan entries k;
        # one is redundant but HiGHS copes
        k = np.arange(m * n)
        a_eq = sparse.csr_matrix((np.ones(2 * m * n), (np.concatenate([k // n, m + k % n]),
                                                       np.tile(k, 2))), shape=(m + n, m * n))
        _, x = solve_max_lp(-cmat.ravel(), a_eq, np.concatenate([p.weights, q.weights]))
        plan = TransportPlan(x.reshape(m, n))
        distance = plan.cost(cmat)
    _check_marginals(plan.matrix, p.weights, q.weights)
    return distance, plan


def _monotone_coupling(x, p_w, y, q_w) -> tuple[float, TransportPlan]:
    """North-west-corner coupling of two distributions on the line.

    Each level u in (0, 1] of the merged cumulative weights of the sorted
    supports is sent from p's u-quantile to q's: mass levels[k] - levels[k-1]
    moves between the first atoms whose cumulative weight reaches levels[k].
    Those atoms have positive weight, so zero-weight atoms receive no mass.
    """
    px, qy = np.argsort(x, kind="stable"), np.argsort(y, kind="stable")
    p_cdf, q_cdf = np.cumsum(p_w[px]), np.cumsum(q_w[qy])
    levels = np.union1d(p_cdf, q_cdf)
    levels = levels[levels > 0]
    mass = np.diff(levels, prepend=0.0)
    # the totals agree to rounding; the last level may pass the smaller one
    i = px[np.minimum(np.searchsorted(p_cdf, levels), len(x) - 1)]
    j = qy[np.minimum(np.searchsorted(q_cdf, levels), len(y) - 1)]
    matrix = np.zeros((len(x), len(y)))
    np.add.at(matrix, (i, j), mass)
    gap = x[i] - y[j]
    return float(mass @ (gap * gap)), TransportPlan(matrix)


def solve_max_lp(objective, eq_lhs, eq_rhs) -> tuple[float, np.ndarray]:
    """Maximize objective @ x subject to eq_lhs @ x = eq_rhs, x >= 0, with HiGHS.

    `eq_lhs` may be dense or scipy-sparse. Returns (optimal value, solution
    vector). Raises :class:`NumericalError` on any solver failure (infeasible
    constraints, an unbounded objective, an iteration limit).
    """
    res = linprog(-np.asarray(objective, dtype=np.float64), A_eq=eq_lhs, b_eq=eq_rhs,
                  bounds=(0, None), method="highs", options=_HIGHS_OPTIONS)
    if res.status != 0:
        raise NumericalError(f"LP failed: {res.message}")
    return float(-res.fun), res.x


def _check_marginals(matrix: np.ndarray, p_w: np.ndarray, q_w: np.ndarray):
    if (
        np.max(np.abs(matrix.sum(axis=1) - p_w)) > MARGINAL_ATOL
        or np.max(np.abs(matrix.sum(axis=0) - q_w)) > MARGINAL_ATOL
    ):
        raise NumericalError("transport plan violates marginal constraints")


def split_radius_estimate(contexts, seed: int) -> float:
    """Data-driven uncertainty radius: distance between two halves of a sample.

    The samples are shuffled with the given seed and split evenly (odd counts
    put the extra sample in the first half); both halves become empirical
    distributions over the union of observed points. Because the transport
    distance is finite across differing supports, this is always well defined
    -- unlike a KL-based radius, which is infinite as soon as the halves miss
    one another's points.
    """
    pts = _as_points(contexts)
    if len(pts) < 4:
        raise TooFewSamples(f"need at least 4 samples, got {len(pts)}")
    order = np.random.default_rng(seed).permutation(len(pts))
    cut = (len(pts) + 1) // 2
    first, second = pts[order[:cut]], pts[order[cut:]]
    union = SupportSet(np.unique(pts, axis=0))
    d, _ = wasserstein_distance(
        empirical_distribution(first, union), empirical_distribution(second, union))
    return d

"""Finite discrete distributions: weighted point masses on a known support.

Supports are ordered lists of points in R^m and never shrink: points that
receive zero probability stay in place, because the robust solvers take
suprema over the full known support, not just over observed atoms.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    LengthMismatch,
    NegativeWeight,
    NotNormalizable,
    SampleOffSupport,
    SupportMismatch,
    ValidationError,
)

# Two support points are "the same" iff every coordinate agrees to this
# tolerance; datasets are expected to be pre-binned so no fuzzy matching.
POINT_MATCH_ATOL = 1e-12

# Weight vectors must sum to one within this tolerance before the final
# renormalisation; larger drift is treated as an ingestion bug.
WEIGHT_SUM_ATOL = 1e-9


def _as_points(points) -> np.ndarray:
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValidationError(f"support points must be a (n, dim) array, got shape {arr.shape}")
    return arr


def _has_near_pair(pts: np.ndarray) -> bool:
    """Whether two rows of `pts` agree to POINT_MATCH_ATOL in every coordinate.

    Per coordinate, the sorted values split into runs wherever neighbours
    differ by more than the tolerance, so two such rows share every run; only
    rows that share all their runs, none on binned data, are compared pairwise.
    On the line, near points sort side by side.
    """
    if pts.shape[1] == 1:
        return bool(np.any(np.diff(np.sort(pts[:, 0])) <= POINT_MATCH_ATOL))
    runs = np.zeros(pts.T.shape, dtype=np.int64)
    for run, column in zip(runs, pts.T):
        order = np.argsort(column)
        run[order[1:]] = np.cumsum(np.diff(column[order]) > POINT_MATCH_ATOL)
    order = np.lexsort(runs)  # rows that share all their runs fall side by side
    key = runs[:, order]
    edges = np.flatnonzero(np.concatenate(([True], np.any(key[:, 1:] != key[:, :-1], axis=0),
                                           [True])))
    for j in np.flatnonzero(np.diff(edges) > 1):
        rows = pts[order[edges[j] : edges[j + 1]]]
        for i in range(len(rows) - 1):
            if np.any(np.all(np.abs(rows[i + 1:] - rows[i]) <= POINT_MATCH_ATOL, axis=1)):
                return True
    return False


def unique_rows(points):
    """The distinct rows of a (n, d) array in lexicographic order, and each
    row's index among them, as ``np.unique(points, axis=0, return_inverse=True)``
    but with a 1-d inverse and no sort of rows as records: a 1-d ``np.unique``
    codes each column, another folds it into the codes so far (code * levels +
    next code, below n^2). Of 0.0 and -0.0 the union may keep the other sign."""
    union, inverse = np.unique(points[:, 0], return_inverse=True)
    union, inverse = union[:, None], inverse.ravel()
    for column in points.T[1:]:
        levels, code = np.unique(column, return_inverse=True)
        keys, inverse = np.unique(inverse * len(levels) + code.ravel(), return_inverse=True)
        union = np.column_stack((union[keys // len(levels)], levels[keys % len(levels)]))
        inverse = inverse.ravel()
    return union, inverse


@dataclass(frozen=True)
class SupportSet:
    """Ordered, pairwise-distinct points in R^m. Index i always names the same point."""

    points: np.ndarray

    def __post_init__(self):
        pts = _as_points(self.points)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if len(pts) == 0:
            return
        if not np.all(np.isfinite(pts)):
            raise ValidationError("support points must be finite")
        if _has_near_pair(pts):
            raise ValidationError("support points must be pairwise distinct")

    @classmethod
    def from_scalars(cls, values) -> "SupportSet":
        return cls(np.asarray(values, dtype=np.float64)[:, None])

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])

    def __len__(self) -> int:
        return int(self.points.shape[0])

    def matches(self, other: "SupportSet") -> bool:
        """True if both supports list the same points in the same order."""
        return (
            self.points.shape == other.points.shape
            and bool(np.all(np.abs(self.points - other.points) <= POINT_MATCH_ATOL))
        )


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability weights over a :class:`SupportSet`.

    Weights are non-negative and sum to one (within 1e-12 after
    construction). Zero-weight points are retained.
    """

    support: SupportSet
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or len(w) != len(self.support):
            raise LengthMismatch(
                f"{len(w)} weights for {len(self.support)} support points"
            )
        if not np.all(w >= 0):  # NaN fails too
            raise NegativeWeight("weights must be non-negative")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise NotNormalizable(f"weights sum to {w.sum()!r}, expected 1")


@dataclass(frozen=True)
class DatasetDiagnostics:
    """Coverage summary of a logged dataset.

    `min_pair_frequency` is the smallest empirical frequency over the full
    (context, action) grid: zero as soon as any pair was never logged,
    otherwise the minimum observed count divided by n. It is the empirical
    proxy for the exploration lower bound that the estimators' guarantees
    assume.
    """

    min_pair_frequency: float
    pair_counts: dict = field(repr=False)
    n: int

    def __post_init__(self):
        total = sum(self.pair_counts.values())
        if total != self.n:
            raise ValueError(f"pair counts sum to {total}, dataset has {self.n} records")


def make_distribution(support: SupportSet, weights, pre_normalize: bool = False) -> DiscreteDistribution:
    """Build a distribution from raw weights.

    Weights must be non-negative and, unless `pre_normalize` is set, must
    already sum to one within 1e-9; the residual drift is then divided out.
    With `pre_normalize=True` any positive total is accepted and scaled.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or len(w) != len(support):
        raise LengthMismatch(f"{w.size} weights for {len(support)} support points")
    if not np.all(w >= 0):  # NaN fails too
        raise NegativeWeight("weights must be non-negative")
    total = float(w.sum())
    if not 0 < total < np.inf:
        raise NotNormalizable(f"weights sum to {total!r}, not a positive finite total")
    if not pre_normalize and abs(total - 1.0) > WEIGHT_SUM_ATOL:
        raise NotNormalizable(
            f"weights sum to {total!r}; drift above {WEIGHT_SUM_ATOL} is rejected"
        )
    return DiscreteDistribution(support, w / total)


def uniform_distribution(support: SupportSet) -> DiscreteDistribution:
    n = len(support)
    return DiscreteDistribution(support, np.full(n, 1.0 / n))


def match_indices(samples, support: SupportSet) -> np.ndarray:
    """Map each sample to its support index (exact coordinate match at 1e-12)."""
    s = _as_points(samples)
    if s.shape[1] != support.dim:
        raise SampleOffSupport(
            f"samples have dim {s.shape[1]}, support has dim {support.dim}"
        )
    out = np.empty(len(s), dtype=np.int64)
    pts = support.points
    # chunked broadcast keeps memory bounded for long sample streams
    chunk = max(1, int(2_000_000 // max(len(pts), 1)))
    for start in range(0, len(s), chunk):
        block = s[start : start + chunk]
        hits = np.all(
            np.abs(block[:, None, :] - pts[None, :, :]) <= POINT_MATCH_ATOL, axis=2
        )
        found = hits.any(axis=1)
        if not np.all(found):
            bad = block[np.flatnonzero(~found)[0]]
            raise SampleOffSupport(f"sample {bad.tolist()} matches no support point")
        out[start : start + chunk] = hits.argmax(axis=1)
    return out


def empirical_distribution(samples, support: SupportSet) -> DiscreteDistribution:
    """Empirical frequencies of `samples` over a known support.

    Every sample must match a support point; support points never observed
    keep weight zero but stay in the support.
    """
    idx = match_indices(samples, support)
    if idx.size == 0:
        raise SampleOffSupport("no samples given")
    counts = np.bincount(idx, minlength=len(support)).astype(np.float64)
    return DiscreteDistribution(support, counts / idx.size)


def _check_shared_support(p: DiscreteDistribution, q: DiscreteDistribution):
    if not p.support.matches(q.support):
        raise SupportMismatch("distributions live on different supports")


def total_variation(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Sum of absolute weight differences, in [0, 2] (twice the usual TV)."""
    _check_shared_support(p, q)
    return float(np.abs(p.weights - q.weights).sum())


def kl_divergence(q: DiscreteDistribution, p: DiscreteDistribution) -> float:
    """KL(q || p) with the 0*log(0/.) = 0 convention.

    Returns +inf whenever q puts mass on a point where p has none, which is
    exactly the failure mode that makes KL radii unusable across supports.
    """
    _check_shared_support(q, p)
    qw, pw = q.weights, p.weights
    mask = qw > 0
    if np.any(pw[mask] <= 0):
        return float("inf")
    return float(np.sum(qw[mask] * np.log(qw[mask] / pw[mask])))

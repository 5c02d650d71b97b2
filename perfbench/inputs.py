"""Seeded inputs for the benchmark workloads.

Every generator takes a numpy Generator built from the run's ``--seed``; the
same seed gives the same bytes. The sizes that set the cost of an operation
(context support size N, observation support, instance sizes) do not depend on
the seed: the logs start with a fixed block of rows that visits every bin of
every binned column, so the binned cross product is always complete.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

CONSCIOUS_LEVELS = ("F", "D", "U")
ACTIONS = ("control", "drug")
COST_WEIGHTS = {"event": 1.0, "death": 3.0}


@dataclass(frozen=True)
class LogShape:
    """Column ranges and bin widths of a stroke-trial-like log."""

    rows: int
    age_range: tuple[int, int]
    age_width: int
    rsbp_range: tuple[int, int]
    rsbp_width: int

    def __post_init__(self):
        # the package bins to multiples of the width, this module from the
        # range start: the two agree when the start is a multiple
        if self.age_range[0] % self.age_width or self.rsbp_range[0] % self.rsbp_width:
            raise ValueError("range starts must be multiples of the bin widths")

    @property
    def age_levels(self) -> np.ndarray:
        return np.arange(self.age_range[0], self.age_range[1], self.age_width)

    @property
    def rsbp_levels(self) -> np.ndarray:
        return np.arange(self.rsbp_range[0], self.rsbp_range[1], self.rsbp_width)

    @property
    def n_contexts(self) -> int:
        return len(self.age_levels) * len(self.rsbp_levels) * len(CONSCIOUS_LEVELS)

    def schema(self) -> dict:
        return {
            "context_columns": ["AGE", "RSBP", "conscious"],
            "action_column": "treatment",
            "actions": list(ACTIONS),
            "outcome_columns": list(COST_WEIGHTS),
            "cost_weights": dict(COST_WEIGHTS),
            "binning": {
                "AGE": {"kind": "fixed_width", "width": self.age_width},
                "RSBP": {"kind": "fixed_width", "width": self.rsbp_width},
                "conscious": {"kind": "categorical", "levels": list(CONSCIOUS_LEVELS)},
            },
        }


@dataclass(frozen=True)
class StrokeLog:
    """Raw columns of a generated log, as written to CSV."""

    age: np.ndarray
    rsbp: np.ndarray
    conscious: np.ndarray  # index into CONSCIOUS_LEVELS
    action: np.ndarray     # index into ACTIONS
    event: np.ndarray
    death: np.ndarray

    @property
    def cost(self) -> np.ndarray:
        return COST_WEIGHTS["event"] * self.event + COST_WEIGHTS["death"] * self.death


def stroke_log(shape: LogShape, rng: np.random.Generator) -> StrokeLog:
    """A two-arm log shaped like the stroke trial.

    Age clusters around 72 and blood pressure rises with age, so the joint
    bins are unevenly filled and many (context, action) pairs stay unlogged.
    Death and other events are more likely with age, pressure and impaired
    consciousness, and less likely under the drug.
    """
    ages, rsbps = shape.age_levels, shape.rsbp_levels
    n_cover = max(len(ages), len(rsbps))
    cover_age = ages[np.arange(n_cover) % len(ages)]
    cover_rsbp = rsbps[np.arange(n_cover) % len(rsbps)]

    n = shape.rows - n_cover
    lo_a, hi_a = shape.age_range
    lo_r, hi_r = shape.rsbp_range
    age = np.clip(np.rint(rng.normal(72.0, 18.0, n)), lo_a, hi_a - 1)
    rsbp = np.clip(np.rint(150.0 + 0.8 * (age - 72.0) + rng.normal(0.0, 35.0, n)), lo_r, hi_r - 1)
    age = np.concatenate([cover_age, age]).astype(np.int64)
    rsbp = np.concatenate([cover_rsbp, rsbp]).astype(np.int64)

    rows = shape.rows
    conscious = rng.choice(3, size=rows, p=[0.75, 0.2, 0.05])
    action = rng.integers(0, 2, size=rows)
    risk = (-3.0 + 0.04 * (age - 72) + 0.01 * (rsbp - 150) + 0.9 * conscious - 0.3 * action)
    death = rng.random(rows) < 1.0 / (1.0 + np.exp(-risk))
    event = rng.random(rows) < 1.0 / (1.0 + np.exp(-(risk + 1.0)))
    return StrokeLog(age, rsbp, conscious, action, event.astype(np.int64), death.astype(np.int64))


def write_log(log: StrokeLog, path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["AGE", "RSBP", "conscious", "treatment", "event", "death"])
        yes_no = ("N", "Y")
        for row in zip(log.age.tolist(), log.rsbp.tolist(), log.conscious.tolist(),
                       log.action.tolist(), log.event.tolist(), log.death.tolist()):
            writer.writerow([row[0], row[1], CONSCIOUS_LEVELS[row[2]], ACTIONS[row[3]],
                             yes_no[row[4]], yes_no[row[5]]])


@dataclass(frozen=True)
class BinnedLog:
    """The log binned independently of the package: context support, indices
    and the (context, action) cost-observation counts."""

    points: np.ndarray        # (N, 3) context support, in cross-product order
    context_idx: np.ndarray   # per record
    xi_values: np.ndarray     # distinct costs, ascending
    counts: np.ndarray        # (N, n_actions, |xi|)

    @property
    def context_weights(self) -> np.ndarray:
        w = np.bincount(self.context_idx, minlength=len(self.points)).astype(np.float64)
        return w / w.sum()


def bin_log(log: StrokeLog, shape: LogShape) -> BinnedLog:
    """Bin a log by the schema's rules, with the support in lexicographic order
    of (AGE bin, RSBP bin, conscious level)."""
    ages, rsbps = shape.age_levels, shape.rsbp_levels
    ia = (log.age - shape.age_range[0]) // shape.age_width
    ir = (log.rsbp - shape.rsbp_range[0]) // shape.rsbp_width
    ctx = (ia * len(rsbps) + ir) * len(CONSCIOUS_LEVELS) + log.conscious
    grid = np.meshgrid(ages, rsbps, np.arange(len(CONSCIOUS_LEVELS)), indexing="ij")
    points = np.stack([g.ravel() for g in grid], axis=1).astype(np.float64)
    cost = log.cost
    xi_values, xi_idx = np.unique(cost, return_inverse=True)
    counts = np.zeros((len(points), len(ACTIONS), len(xi_values)), dtype=np.int64)
    np.add.at(counts, (ctx, log.action, xi_idx), 1)
    return BinnedLog(points, ctx, xi_values.astype(np.float64), counts)


def transport_instance(rng: np.random.Generator, n_atoms: int, n_extra: int):
    """A 2-d strong-duality instance: nominal atoms in the unit square, and
    costs on the candidate support made of the atoms plus `n_extra` points
    (so every radius is feasible)."""
    atoms = rng.random((n_atoms, 2))
    candidates = np.vstack([atoms, rng.random((n_extra, 2))])
    weights = rng.dirichlet(np.full(n_atoms, 2.0))
    values = rng.random(n_atoms + n_extra)
    return atoms, weights, candidates, values


def scalar_contexts(rng: np.random.Generator, n_samples: int, n_distinct: int) -> np.ndarray:
    """Scalar context samples taking exactly `n_distinct` values.

    Every value appears once; the rest are drawn with a skew toward the low
    end, so the two halves of a split differ.
    """
    levels = np.round(np.sort(rng.random(n_distinct)) * 10.0, 6)
    levels = np.unique(levels)
    while len(levels) < n_distinct:  # rounding collapsed two draws
        levels = np.unique(np.concatenate([levels, np.round(rng.random(1) * 10.0, 6)]))
    skew = np.linspace(2.0, 1.0, n_distinct)
    extra = rng.choice(n_distinct, size=n_samples - n_distinct, p=skew / skew.sum())
    idx = np.concatenate([np.arange(n_distinct), extra])
    return levels[rng.permutation(idx)]

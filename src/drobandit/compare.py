"""Side-by-side KL-ball vs transport-ball robust values on a shared instance.

The default instance is a 51-point support spanning [0, 10] with quadratic
costs f(x) = x^2, a nominal distribution with a small outlier mass on the top
point, and a target distribution carrying no mass there. Radii are set from
the measured divergences between nominal and target, so at multiplier >= 1
both robust values are valid upper bounds on the target expectation. The
outlier scenario then drags the top support point outward at unchanged
probability: the KL radius cannot see the move (the weights are untouched)
while the transport radius grows slightly, and the exponential tilting of the
KL dual latches onto the now much larger top cost.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteDistribution, SupportSet, kl_divergence
from .duals import solve_kl_dual, solve_transport_dual
from .errors import InvalidShift, ValidationError
from .transport import GroundCost, wasserstein_distance


@dataclass(frozen=True)
class ComparisonSpec:
    """A nominal/target pair with costs and an optional outlier move."""

    support: SupportSet
    values: np.ndarray
    p_hat: DiscreteDistribution
    q: DiscreteDistribution
    outlier_index: int
    outlier_point: np.ndarray
    outlier_value: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        pt = np.atleast_1d(np.asarray(self.outlier_point, dtype=np.float64))
        pt.setflags(write=False)
        object.__setattr__(self, "outlier_point", pt)
        if v.shape != (len(self.support),):
            raise ValidationError("need one cost value per support point")
        if not (self.p_hat.support.matches(self.support) and self.q.support.matches(self.support)):
            raise ValidationError("nominal and target must live on the declared support")
        if not 0 <= self.outlier_index < len(self.support):
            raise ValidationError("outlier index outside the support")


def default_comparison_spec() -> ComparisonSpec:
    """The built-in 51-point quadratic-cost instance."""
    points = np.linspace(0.0, 10.0, 51)
    support = SupportSet.from_scalars(points)

    def bell(mu, sig):
        w = np.exp(-0.5 * ((points - mu) / sig) ** 2)
        return w / w.sum()

    p = 0.98 * bell(4.0, 1.5) + 0.02 / 51.0  # full support, so the KL radius is finite
    p[-1] += 0.01                             # visible outlier mass on the top point
    p /= p.sum()
    q = bell(5.0, 1.8)
    q[-1] = 0.0                               # the target never visits the outlier point
    q /= q.sum()
    return ComparisonSpec(
        support=support,
        values=points**2,
        p_hat=DiscreteDistribution(support, p),
        q=DiscreteDistribution(support, q),
        outlier_index=50,
        outlier_point=np.array([12.0]),
        outlier_value=144.0,
    )


def shifted_instance(spec: ComparisonSpec):
    """Move the outlier support point outward at unchanged probability."""
    if spec.q.weights[spec.outlier_index] != 0:
        raise InvalidShift("the target carries mass on the outlier point; moving it "
                           "would change the target distribution")
    points = spec.support.points.copy()
    points[spec.outlier_index] = spec.outlier_point
    support = SupportSet(points)
    values = spec.values.copy()
    values[spec.outlier_index] = spec.outlier_value
    p_hat = DiscreteDistribution(support, spec.p_hat.weights)
    q = DiscreteDistribution(support, spec.q.weights)
    return support, values, p_hat, q


def measured_radii(spec: ComparisonSpec) -> tuple[float, float]:
    """(transport radius, KL radius) between nominal and target."""
    w_radius, _ = wasserstein_distance(spec.p_hat, spec.q)
    return w_radius, kl_divergence(spec.q, spec.p_hat)


def run_comparison(spec: ComparisonSpec, multipliers, include_outlier: bool,
                   tol: float | None = None) -> list[dict]:
    """Robust values per scenario, method and radius multiplier.

    Rows carry the scenario ("base" or "outlier"), the method, the radius
    actually used, the robust value and the target expectation under q.
    """
    cost = GroundCost.SQUARED_EUCLIDEAN
    scenarios = [("base", spec.support, spec.values, spec.p_hat, spec.q)]
    if include_outlier:
        scenarios.append(("outlier", *shifted_instance(spec)))

    rows = []
    for name, support, values, p_hat, q in scenarios:
        w_radius, _ = wasserstein_distance(p_hat, q)
        kl_radius = kl_divergence(q, p_hat)
        e_q_f = float(q.weights @ values)
        cmat = cost.pairwise(support.points, support.points)
        for mult in multipliers:
            w_value = solve_transport_dual(
                p_hat.weights, values, cmat, mult * w_radius, tol
            ).value
            kl_value = solve_kl_dual(p_hat.weights, values, mult * kl_radius, tol).value
            rows.append({"scenario": name, "method": "wasserstein",
                         "multiplier": mult, "epsilon": mult * w_radius,
                         "value": w_value, "expectation_under_q": e_q_f})
            rows.append({"scenario": name, "method": "kl",
                         "multiplier": mult, "epsilon": mult * kl_radius,
                         "value": kl_value, "expectation_under_q": e_q_f})
    return rows


def value_deltas(rows: list[dict]) -> dict:
    """Outlier-minus-base value change per method at multiplier 1."""
    deltas = {}
    for method in ("wasserstein", "kl"):
        pair = {
            row["scenario"]: row["value"]
            for row in rows
            if row["method"] == method and row["multiplier"] == 1.0
        }
        if {"base", "outlier"} <= pair.keys():
            deltas[method] = pair["outlier"] - pair["base"]
    return deltas

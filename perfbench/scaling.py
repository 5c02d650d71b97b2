"""Reference figures: single layers at several sizes, timed by the span tracer.

    python3 perfbench/scaling.py            # prints one line per (layer, size)

Rows: BSGD microseconds per iteration (self time, without the cost matrix)
against the support size |X|; the exact transport dual against the number
of atoms n; the 1-d transport distance (HiGHS LP) against the number of
support points; the dense-simplex primal oracle against the number of
atoms. Each figure is the median of a few calls on seeded inputs.
"""
from __future__ import annotations

import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import spans  # noqa: E402
from drobandit import duals, ope, opl, transport  # noqa: E402
from drobandit.distributions import SupportSet, make_distribution  # noqa: E402


def traced(fn, repeats: int, span_name: str, quantity: str = "total"):
    """Median over `repeats` calls of one span quantity ('total' or 'self', ms)."""
    values = []
    for _ in range(repeats):
        tracer = spans.Tracer()
        tracer.install()
        try:
            fn()
        finally:
            tracer.uninstall()
        per_op = spans.per_op(tracer.spans, ["setup"])["setup"]
        values.append(per_op[span_name][quantity])
    return statistics.median(values)


def bsgd_us_per_iter(n_contexts: int, iterations: int = 2000) -> float:
    rng = np.random.default_rng(0)
    support = SupportSet.from_scalars(np.arange(n_contexts, dtype=float))
    context_dist = make_distribution(support, rng.dirichlet(np.ones(n_contexts)))
    table = ope.RobustCostTable(rng.random((n_contexts, 2)), method="exact", epsilon_c=0.1)
    grouping = np.zeros(n_contexts, dtype=np.int64)
    clamp = opl.Parameterization.GROUP_PROB_CLAMP
    policy0 = opl.PolicyParams(np.array([0.5]), grouping, 2, clamp)
    config = opl.BsgdConfig(iterations=iterations, inner_batch=64, eta=10.0,
                            epsilon_x=0.1, seed=3)
    ms = traced(lambda: opl.bsgd_learn(table, context_dist, support, config, policy0),
                3, "opl.bsgd_learn", "self")
    return ms * 1e3 / iterations


def transport_dual_ms(n: int) -> float:
    rng = np.random.default_rng(1)
    atoms, weights, candidates, values = inputs.transport_instance(rng, n, 0)
    cost = transport.GroundCost.SQUARED_EUCLIDEAN.pairwise(atoms, candidates)
    return traced(lambda: ope.solve_transport_dual(weights, values, cost, 0.05), 5,
                  "duals.solve_transport_dual")


def distance_1d_ms(n: int) -> float:
    rng = np.random.default_rng(2)
    support = SupportSet.from_scalars(np.sort(rng.random(n)) * 10)
    p = make_distribution(support, rng.dirichlet(np.ones(n)))
    q = make_distribution(support, rng.dirichlet(np.ones(n)))
    return traced(lambda: transport.wasserstein_distance(p, q), 1 if n > 200 else 3,
                  "transport.wasserstein_distance")


def primal_oracle_ms(n: int) -> float:
    rng = np.random.default_rng(3)
    atoms, weights, candidates, values = inputs.transport_instance(rng, n, 0)
    nominal = make_distribution(SupportSet(atoms), weights)
    costs = duals.CostVector(SupportSet(candidates), values)
    return traced(lambda: duals.primal_oracle(nominal, costs, 0.05), 3, "duals.primal_oracle")


ROWS = (
    ("opl.bsgd_us_per_iter", "|X|", (10, 1000, 4096), bsgd_us_per_iter, "us"),
    ("duals.solve_transport_dual_ms (exact)", "n", (10, 100, 1000), transport_dual_ms, "ms"),
    ("transport.wasserstein_distance_ms (1-d)", "n", (50, 200, 400), distance_1d_ms, "ms"),
    ("duals.primal_oracle_ms (2-d)", "n", (12, 30, 60), primal_oracle_ms, "ms"),
)


def main() -> int:
    for metric, size_name, sizes, fn, unit in ROWS:
        for size in sizes:
            print(f"{metric:42s} {size_name}={size:<6d} {fn(size):12.4g} {unit}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

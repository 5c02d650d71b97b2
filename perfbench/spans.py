"""Spans around the program's public functions, recorded from outside it.

:class:`Tracer` replaces each function in :data:`TARGETS` at the name its
callers look it up by (``drobandit.cli.robust_cost_table`` for the CLI,
``drobandit.ope.solve_transport_dual`` for the per-pair loop, ...) with a
wrapper that records a span: name, start, end, parent span and operation id,
plus counts read from the arguments and the result. Spans stay in memory and
are written out when the run ends. :func:`layer_metrics` turns them into the
per-layer metrics: a layer's self time is its span's length minus the time
its child spans cover.
"""
from __future__ import annotations

import functools
import json
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from drobandit import cli, data, duals, ope, opl, transport

_MB = 1e6


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _count_dual(args, kwargs, result):
    weights = np.asarray(_arg(args, kwargs, 0, "weights"))
    rows, cols = np.shape(_arg(args, kwargs, 2, "cost_matrix"))
    evals = int(result.iterations)
    hi = result.bracket[1]
    at_edge = result.shortcut is None and hi > 0 and result.lambda_star >= hi * (1 - 1e-6)
    return {"solves": 1, "evals": evals, "cells": evals * rows * cols,
            "useful_cells": evals * int(np.count_nonzero(weights > 0)) * cols,
            "edge_solves": int(at_edge)}


def _count_pairwise(args, kwargs, result):
    a = np.asarray(_arg(args, kwargs, 1, "a"))
    rows, cols = result.shape
    dim = a.shape[1] if a.ndim == 2 else 1
    return {"mb": (rows * cols * dim + rows * cols) * 8 / _MB}


def _count_pairs(args, kwargs, result):
    dataset = _arg(args, kwargs, 0, "dataset")
    keys = dataset.context_idx * len(dataset.actions) + dataset.action_idx
    return {"pairs": len(np.unique(keys))}


def _count_lp_vars(args, kwargs, result):
    p, q = _arg(args, kwargs, 0, "p"), _arg(args, kwargs, 1, "q")
    return {"lp_vars": len(p.support) * len(q.support)}


def _count_tableau(args, kwargs, result):
    m, n = np.shape(_arg(args, kwargs, 1, "eq_lhs"))
    return {"mb": (m + 1) * (n + m + 1) * 8 / _MB}


def _count_iterations(args, kwargs, result):
    return {"iterations": _arg(args, kwargs, 3, "config").iterations}


# (owner, attribute, span name, counter); every name a caller looks up
TARGETS = (
    (cli, "main", "cli.main", None),
    (cli, "load_dataset", "data.load_dataset", None),
    (data, "load_dataset", "data.load_dataset", None),
    (cli, "robust_cost_table", "ope.robust_cost_table", _count_pairs),
    (ope, "robust_cost_table", "ope.robust_cost_table", _count_pairs),
    (cli, "evaluate_policy", "ope.evaluate_policy", None),
    (ope, "solve_transport_dual", "duals.solve_transport_dual", _count_dual),
    (duals, "solve_transport_dual", "duals.solve_transport_dual", _count_dual),
    (duals, "primal_oracle", "duals.primal_oracle", None),
    (duals, "solve_max_lp", "simplex.solve_max_lp", _count_tableau),
    (opl, "exact_opl", "opl.exact_opl", None),
    (opl, "bsgd_learn", "opl.bsgd_learn", _count_iterations),
    (opl, "smoothed_learning_objective", "opl.smoothed_learning_objective", None),
    (transport.GroundCost, "pairwise", "transport.pairwise", _count_pairwise),
    (transport, "wasserstein_distance", "transport.wasserstein_distance", _count_lp_vars),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: str
    counts: dict = field(default_factory=dict)


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`; set
    :attr:`op` to the id of the operation about to run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = "setup"
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def _wrap(self, original, name, counter):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, 0.0, 0.0, parent, tracer.op)
            tracer.spans.append(span)
            tracer._stack.append(index)
            span.start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        for owner, attr, name, counter in TARGETS:
            original = getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(vars(span)) + "\n")


# metric name -> (span name, quantity); quantities: "total" and "self" in ms,
# "count:<key>" summed, "max:<key>" the largest value in one operation
LAYER_METRICS = {
    "data.load_dataset_ms": ("data.load_dataset", "total"),
    "cli.self_ms": ("cli.main", "self"),
    "ope.robust_cost_table_ms": ("ope.robust_cost_table", "total"),
    "ope.pairs": ("ope.robust_cost_table", "count:pairs"),
    "ope.evaluate_policy_ms": ("ope.evaluate_policy", "total"),
    "duals.solve_transport_dual_ms": ("duals.solve_transport_dual", "total"),
    "duals.solves": ("duals.solve_transport_dual", "count:solves"),
    "duals.evals": ("duals.solve_transport_dual", "count:evals"),
    "duals.cells": ("duals.solve_transport_dual", "count:cells"),
    "duals.edge_solves": ("duals.solve_transport_dual", "count:edge_solves"),
    "opl.exact_opl_ms": ("opl.exact_opl", "self"),
    "opl.bsgd_learn_ms": ("opl.bsgd_learn", "self"),
    "opl.smoothed_learning_objective_ms": ("opl.smoothed_learning_objective", "total"),
    "transport.pairwise_ms": ("transport.pairwise", "total"),
    "transport.pairwise_mb": ("transport.pairwise", "max:mb"),
    "transport.wasserstein_distance_ms": ("transport.wasserstein_distance", "total"),
    "transport.lp_vars": ("transport.wasserstein_distance", "count:lp_vars"),
    "duals.primal_oracle_ms": ("duals.primal_oracle", "total"),
    "simplex.solve_max_lp_ms": ("simplex.solve_max_lp", "total"),
    "simplex.tableau_mb": ("simplex.solve_max_lp", "max:mb"),
}
UNITS = {"ms": "ms", "mb": "MB"}


def _unit(metric: str) -> str:
    return UNITS.get(metric.rsplit("_", 1)[-1], "count")


def per_op(spans, op_ids):
    """Per operation id: name -> {"total", "self", counts...} summed over spans,
    plus "max:<key>" for the largest count of one span."""
    child_time = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    out = {op: defaultdict(lambda: defaultdict(float)) for op in op_ids}
    for index, span in enumerate(spans):
        if span.op not in out:
            continue
        acc = out[span.op][span.name]
        length = span.end - span.start
        acc["total"] += length * 1e3
        acc["self"] += (length - child_time[index]) * 1e3
        for key, value in span.counts.items():
            acc[f"count:{key}"] += value
            acc[f"max:{key}"] = max(acc[f"max:{key}"], value)
    return out


def layer_metrics(spans, op_ids, setup_ids) -> dict:
    """Per-layer metrics over the traced operations.

    Times are the median over operations of the layer's time in one
    operation; counts are per operation, averaged over whole cycles, so they
    repeat exactly. A layer that runs in no timed operation but in setup is
    reported per setup instead; one that never runs reads 0.
    """
    in_ops = per_op(spans, op_ids)
    in_setup = per_op(spans, setup_ids)
    metrics = {}

    def series(name, quantity):
        for groups in (in_ops, in_setup):
            if any(name in g for g in groups.values()):
                return [g[name][quantity] if name in g else 0.0 for g in groups.values()]
        return [0.0]

    for metric, (name, quantity) in LAYER_METRICS.items():
        values = series(name, quantity)
        if quantity.startswith("count:"):
            value = sum(values) / len(values)
        else:
            value = statistics.median(values)
        metrics[metric] = (value, _unit(metric))

    cells = sum(series("duals.solve_transport_dual", "count:cells"))
    useful = sum(series("duals.solve_transport_dual", "count:useful_cells"))
    dual_ms = sum(series("duals.solve_transport_dual", "total"))
    metrics["duals.ns_per_cell"] = (dual_ms * 1e6 / cells if cells else 0.0, "ns")
    metrics["duals.useful_row_ratio"] = (useful / cells if cells else 0.0, "ratio")
    grid_points = [
        sum(1 for s in spans if s.op == op and s.name == "duals.solve_transport_dual"
            and s.parent >= 0 and spans[s.parent].name == "opl.exact_opl")
        for op in op_ids
    ]
    metrics["opl.grid_points"] = (sum(grid_points) / len(grid_points), "count")
    bsgd_ms = series("opl.bsgd_learn", "self")
    iterations = series("opl.bsgd_learn", "count:iterations")
    per_iter = [ms * 1e3 / it for ms, it in zip(bsgd_ms, iterations) if it]
    metrics["opl.bsgd_us_per_iter"] = (statistics.median(per_iter) if per_iter else 0.0, "us")
    return metrics

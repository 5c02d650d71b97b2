"""Each workload's check accepts the program's output and rejects it perturbed.

The workloads run here on shrunken inputs; the checks are the ones the
benchmark runs after its timed region.
"""
import csv
import dataclasses

import numpy as np
import pytest

import inputs
import workloads
from oracles import CheckFailed

SMALL_LOG = dict(rows=1500, age_range=(50, 80), age_width=10, rsbp_range=(120, 180),
                 rsbp_width=20)


def run_ops(workload, state, cycles=2):
    done = []
    for _ in range(cycles):
        for params in workload.cycle:
            index = len(done)
            done.append((index, params, workload.op(state, index, params)))
    return done


def replace_output(done, position, new_output):
    index, params, _ = done[position]
    return done[:position] + [(index, params, new_output)] + done[position + 1:]


def test_ope_cli_check(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "OPE_SHAPE", inputs.LogShape(**SMALL_LOG))
    monkeypatch.setattr(workloads, "OPE_SAMPLED_PAIRS", 8)
    w = workloads.WORKLOADS["ope-cli"]
    state = w.setup(1, tmp_path)
    done = run_ops(w, state)
    w.check(state, done)

    summary, table = done[1][2]
    rows = list(csv.DictReader(open(table, newline="")))
    observed = np.argwhere(state.binned.counts.sum(axis=2) > 0)
    x, a = observed[0]
    for row in rows:
        if (int(row["context_index"]), int(row["action_index"])) == (x, a):
            row["m_hat"] = repr(float(row["m_hat"]) + 1e-4)
    with open(table, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=rows[0].keys())
        writer.writeheader()
        writer.writerows(rows)
    with pytest.raises(CheckFailed, match="m_hat"):
        w.check(state, done)

    state = w.setup(1, tmp_path)
    done = run_ops(w, state)
    summary, _ = done[2][2]
    text = summary.read_text().splitlines()
    head, row = text[0].split(","), text[1].split(",")
    row[head.index("value")] = repr(float(row[head.index("value")]) + 1e-4)
    summary.write_text(text[0] + "\n" + ",".join(row) + "\n")
    with pytest.raises(CheckFailed, match="policy value"):
        w.check(state, done)


@pytest.fixture()
def grid(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "GRID_SHAPE", inputs.LogShape(**SMALL_LOG))
    w = workloads.WORKLOADS["opl-grid"]
    state = w.setup(2, tmp_path)
    return w, state, run_ops(w, state)


@pytest.mark.parametrize("field, delta", [(1, 1e-4), (3, 1e-4), (3, -1.0)])
def test_opl_grid_check_rejects_perturbed_values(grid, field, delta):
    w, state, done = grid
    w.check(state, done)
    out = list(done[0][2])
    out[field] += delta
    with pytest.raises(CheckFailed):
        w.check(state, replace_output(done, 0, tuple(out)))


def test_opl_grid_check_rejects_a_worse_grid_point(grid):
    w, state, done = grid
    out = list(done[0][2])
    axis = np.linspace(0.0, 1.0, workloads.GRID_RESOLUTION)
    out[0] = float(axis[0] if out[0] != axis[0] else axis[-1])
    with pytest.raises(CheckFailed):
        w.check(state, replace_output(done, 0, tuple(out)))


def test_opl_grid_check_rejects_unequal_repeats(grid):
    w, state, done = grid
    out = list(done[-1][2])
    out[1] = np.nextafter(out[1], np.inf)
    with pytest.raises(CheckFailed, match="repeats"):
        w.check(state, replace_output(done, len(done) - 1, tuple(out)))


@pytest.fixture()
def bsgd(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "BSGD_SHAPE", inputs.LogShape(**SMALL_LOG))
    monkeypatch.setattr(workloads, "BSGD_ITERATIONS", 60)
    w = workloads.WORKLOADS["opl-bsgd"]
    state = w.setup(3, tmp_path)
    return w, state, run_ops(w, state)


def test_opl_bsgd_check_rejects_perturbed_outputs(bsgd):
    w, state, done = bsgd
    w.check(state, done)
    theta, lam, trace, value = done[0][2]
    cap = state.table.m_hat.max() / workloads.BSGD_EPS_X
    for bad in ((theta, lam, trace, value + 1e-8),
                (theta, cap * 1.01, trace, value),
                (theta + 2.0, lam, trace, value)):
        with pytest.raises(CheckFailed):
            w.check(state, replace_output(done, 0, bad))
    theta, lam, trace, value = done[-1][2]
    objective = trace.objective.copy()
    objective[5] += 1e-12
    bad = (theta, lam, dataclasses.replace(trace, objective=objective), value)
    with pytest.raises(CheckFailed, match="repeats"):
        w.check(state, replace_output(done, len(done) - 1, bad))


def test_lp_certify_check_rejects_perturbed_outputs(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "LP_ATOMS", 8)
    monkeypatch.setattr(workloads, "LP_EXTRA", 4)
    monkeypatch.setattr(workloads, "LP_DISTINCT", 15)
    w = workloads.WORKLOADS["lp-certify"]
    state = w.setup(4, tmp_path)
    done = run_ops(w, state)
    w.check(state, done)
    dual, primal, radius = done[0][2][3]
    for bad in ((dual + 1e-5, primal + 1e-5, radius), (dual, primal + 1e-5, radius),
                (dual, primal, radius + 1e-8)):
        outputs = list(done[0][2])
        outputs[3] = bad
        with pytest.raises(CheckFailed):
            w.check(state, replace_output(done, 0, tuple(outputs)))
    outputs = list(done[-1][2])
    outputs[0] = (dual, primal, np.nextafter(radius, np.inf))
    with pytest.raises(CheckFailed, match="repeats"):
        w.check(state, replace_output(done, len(done) - 1, tuple(outputs)))

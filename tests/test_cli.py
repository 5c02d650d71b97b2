import csv
import json
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from drobandit import cli
from drobandit.cli import main
from drobandit.data import load_canonical, save_dataset
from drobandit.distributions import SupportSet, kl_divergence, make_distribution
from drobandit.transport import MAX_PAIRWISE_CELLS

SYNTH_SPEC = {
    "context_points": [[0.0], [1.0], [2.0]],
    "context_weights": [0.4, 0.35, 0.25],
    "xi_points": [[0.0], [0.5], [1.0]],
    "xi_weights": [
        [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3]],
        [[0.3, 0.4, 0.3], [0.4, 0.4, 0.2]],
        [[0.25, 0.5, 0.25], [0.2, 0.2, 0.6]],
    ],
    "behavior": [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]],
    "n": 600,
    "seed": 21,
}


def write_dist(path, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x0", "weight"])
        writer.writerows(rows)
    return str(path)


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


@pytest.fixture()
def canonical_data(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SYNTH_SPEC))
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    code = main([
        "synth", "--spec", str(spec), "--out-train", str(train),
        "--out-test", str(test), "--manifest-out", str(tmp_path / "synth.manifest.json"),
    ])
    assert code == 0
    return train


# -- distance -----------------------------------------------------------------------

def test_distance_identical_files(tmp_path, capsys):
    p = write_dist(tmp_path / "p.csv", [[0.0, 0.5], [1.0, 0.5]])
    out = tmp_path / "d.csv"
    assert main(["distance", "--p", p, "--q", p, "--out", str(out)]) == 0
    rows = read_rows(out)
    assert float(rows[0]["wasserstein"]) == pytest.approx(0.0, abs=1e-12)


def test_distance_disjoint_supports_reports_inf_kl(tmp_path):
    p = write_dist(tmp_path / "p.csv", [[0.0, 0.5], [1.0, 0.5]])
    q = write_dist(tmp_path / "q.csv", [[2.0, 0.5], [3.0, 0.5]])
    out = tmp_path / "d.csv"
    assert main(["distance", "--p", p, "--q", q, "--kl", "--out", str(out)]) == 0
    row = read_rows(out)[0]
    assert math.isfinite(float(row["wasserstein"]))
    assert float(row["kl"]) == math.inf


def test_distance_overlapping_supports_reports_finite_kl(tmp_path):
    p = write_dist(tmp_path / "p.csv", [[0.0, 0.2], [1.0, 0.3], [2.0, 0.5]])
    q = write_dist(tmp_path / "q.csv", [[2.0, 0.6], [1.0, 0.4]])
    out = tmp_path / "d.csv"
    assert main(["distance", "--p", p, "--q", q, "--kl", "--out", str(out)]) == 0
    union = SupportSet.from_scalars([0.0, 1.0, 2.0])
    want = kl_divergence(make_distribution(union, [0.0, 0.4, 0.6]),
                         make_distribution(union, [0.2, 0.3, 0.5]))
    assert math.isfinite(want)
    assert float(read_rows(out)[0]["kl"]) == pytest.approx(want, abs=1e-12)


def test_distance_two_by_two_fixture(tmp_path):
    p = write_dist(tmp_path / "p.csv", [[0.0, 0.5], [1.0, 0.5]])
    q = write_dist(tmp_path / "q.csv", [[1.0, 0.5], [2.0, 0.5]])
    out = tmp_path / "d.csv"
    plan = tmp_path / "plan.csv"
    assert main(["distance", "--p", p, "--q", q, "--out", str(out),
                 "--plan-out", str(plan)]) == 0
    assert float(read_rows(out)[0]["wasserstein"]) == pytest.approx(1.0, abs=1e-9)
    masses = [float(r["mass"]) for r in read_rows(plan)]
    assert sum(masses) == pytest.approx(1.0, abs=1e-9)


def test_distance_missing_file_is_io_error(tmp_path):
    assert main(["distance", "--p", str(tmp_path / "nope.csv"),
                 "--q", str(tmp_path / "nope.csv")]) == 2


def test_distance_file_without_coordinates_exits_2(tmp_path):
    p = tmp_path / "w.csv"
    p.write_text("weight\n0.5\n0.5\n")
    assert main(["distance", "--p", str(p), "--q", str(p)]) == 2


# -- radius --------------------------------------------------------------------------

def test_radius_finite_on_raw_contexts(tmp_path, capsys):
    data = tmp_path / "ctx.csv"
    data.write_text("x\n" + "\n".join(str(v) for v in [0, 0, 1, 2, 2, 3, 5, 5]) + "\n")
    out = tmp_path / "r.csv"
    assert main(["radius", "--data", str(data), "--seed", "4", "--out", str(out)]) == 0
    radius = float(read_rows(out)[0]["radius"])
    assert math.isfinite(radius) and radius >= 0


def test_radius_reads_the_observed_contexts_beyond_the_full_support_guard(tmp_path, capsys):
    # five identity columns of 40 levels: a 40^5 full support, 40 observed points
    columns = ["c0", "c1", "c2", "c3", "c4"]
    rows = [[i * m % 40 for m in (1, 3, 7, 9, 11)] for i in range(40)]
    assert 40 ** 5 > MAX_PAIRWISE_CELLS
    data, contexts = tmp_path / "wide.csv", tmp_path / "contexts.csv"
    data.write_text(",".join(columns + ["arm", "cost"]) + "\n" + "".join(
        ",".join(map(str, r)) + f",{'ab'[r[0] % 2]},{r[1] % 3}\n" for r in rows))
    contexts.write_text(",".join(columns) + "\n" + "".join(",".join(map(str, r)) + "\n"
                                                        for r in rows))
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"context_columns": columns, "action_column": "arm",
                                  "cost_column": "cost"}))
    assert main(["radius", "--data", str(data), "--config", str(schema), "--seed", "3"]) == 0
    assert main(["radius", "--data", str(contexts), "--seed", "3"]) == 0
    from_schema, from_contexts = capsys.readouterr().out.splitlines()
    assert from_schema == from_contexts and from_schema != "radius=0.0"


# -- malformed input -----------------------------------------------------------------

RAW_SCHEMA = {"context_columns": ["x", "age"], "action_column": "arm", "cost_column": "cost",
              "binning": {"age": {"kind": "fixed_width", "width": 10}}}
CANONICAL_SIDECAR = {"contexts": [[0.0], [1.0]], "actions": ["a0", "a1"],
                     "xi_support": [[0.0], [1.0]], "y_max": 1.0}


def raw_ope(tmp_path, rows):
    data, schema = tmp_path / "raw.csv", tmp_path / "schema.json"
    data.write_text("x,age,arm,cost\n0,61,drug,0.5\n" + rows + "\n")
    schema.write_text(json.dumps(RAW_SCHEMA))
    return ["ope", "--data", str(data), "--config", str(schema), "--impute-missing-ymax"]


def canonical_ope(tmp_path, rows):
    data = tmp_path / "canon.csv"
    data.write_text("context_index,action_index,xi_index,cost\n" + rows + "\n")
    (tmp_path / "canon.csv.meta.json").write_text(json.dumps(CANONICAL_SIDECAR))
    return ["ope", "--data", str(data)]


def distance(tmp_path, rows):
    p = tmp_path / "p.csv"
    p.write_text("x0,weight\n0.0,0.5\n" + rows + "\n")
    return ["distance", "--p", str(p), "--q", str(p)]


def raw_radius(tmp_path, rows):
    data = tmp_path / "ctx.csv"
    data.write_text("x\n0\n1\n" + rows + "\n")
    return ["radius", "--data", str(data)]


@pytest.mark.parametrize("command, rows, line", [
    (raw_ope, "1,70,control", 3),
    (canonical_ope, "0,0,0,0.0\n1,1", 3),
    (distance, "1.0", 3),
    (raw_ope, "1,70,control,0.5\nnan,70,drug,0.5", 4),
    (raw_ope, "inf,70,control,0.5", 3),
    (raw_ope, "1,inf,control,0.5", 3),
    (raw_radius, "2\nabc", 5),
], ids=["ope-short-row", "canonical-short-row", "distance-short-row", "context-nan",
        "context-inf", "fixed-width-inf", "radius-unparsable"])
def test_malformed_input_exits_2_naming_its_line(tmp_path, capsys, command, rows, line):
    assert main(command(tmp_path, rows)) == 2
    assert f"error: line {line}:" in capsys.readouterr().err


@pytest.mark.parametrize("text, line", [
    (b"x,arm,cost\n1,caf\xe9,0.5\n", 2),
    (b"x,arm,cost\n1,drug,0.5\n2," + b"d" * 200_000 + b",0.5\n", 3),
    # csv.reader before 3.11 refuses the NUL; from 3.11 the cost does not parse
    (b"x,arm,cost\n1,drug,0.5\n2,drug,0\x005\n", 3),
], ids=["not-utf8", "field-over-size-limit", "nul"])
def test_reader_faults_exit_2_naming_their_line(tmp_path, capsys, text, line):
    data, schema = tmp_path / "raw.csv", tmp_path / "schema.json"
    data.write_bytes(text)
    schema.write_text(json.dumps({"context_columns": ["x"], "action_column": "arm",
                                  "cost_column": "cost"}))
    assert main(["ope", "--data", str(data), "--config", str(schema),
                 "--impute-missing-ymax"]) == 2
    assert f"error: line {line}:" in capsys.readouterr().err


TRUNCATED_JSON = '{\n  "probs": [[1.0, 0.0],\n'  # ends on line 3


def json_file(tmp_path, obj=None):
    path = tmp_path / "input.json"
    path.write_text(TRUNCATED_JSON if obj is None else json.dumps(obj))
    return str(path)


def truncated_sidecar(tmp_path, train):
    Path(f"{train}.meta.json").write_text(TRUNCATED_JSON)
    return ["ope", "--data", train]


@pytest.mark.parametrize("command, message", [
    (lambda tmp, train: ["ope", "--data", train, "--policy", json_file(tmp)], "not JSON"),
    (lambda tmp, train: ["opl", "--data", train, "--algo", "grid", "--resolution", "3",
                         "--grouping", json_file(tmp)], "not JSON"),
    (lambda tmp, train: ["ope", "--data", train, "--config", json_file(tmp)], "not JSON"),
    (lambda tmp, train: ["compare", "--spec", json_file(tmp)], "not JSON"),
    (lambda tmp, train: ["synth", "--spec", json_file(tmp), "--out-train", str(tmp / "a.csv"),
                         "--out-test", str(tmp / "b.csv")], "not JSON"),
    (truncated_sidecar, "not JSON"),
    (lambda tmp, train: ["rerun", json_file(tmp)], "not JSON"),
    (lambda tmp, train: ["ope", "--data", train, "--policy", json_file(tmp, {"p": []})],
     "missing 'probs'"),
    (lambda tmp, train: ["compare", "--spec", json_file(tmp, {
        "support_points": [[0.0], [1.0]], "p_hat": [0.5, 0.5], "q": [0.5, 0.5]})],
     "missing ['values']"),
], ids=["policy", "grouping", "config", "compare-spec", "synth-spec", "sidecar", "manifest",
        "policy-without-probs", "compare-spec-without-values"])
def test_malformed_json_input_exits_2(tmp_path, capsys, canonical_data, command, message):
    assert main(command(tmp_path, str(canonical_data))) == 2
    err = capsys.readouterr().err
    assert message in err
    if message == "not JSON":
        assert err.startswith("error: line 3: ")


@pytest.mark.parametrize("bad_row", ["-1,0,0,0.0", "0,-1,0,0.0"], ids=["context", "action"])
def test_negative_canonical_index_exits_3(tmp_path, capsys, bad_row):
    rows = "0,0,0,0.0\n0,1,1,1.0\n1,0,0,0.0\n1,1,1,1.0\n" + bad_row
    assert main(canonical_ope(tmp_path, rows)) == 3
    assert "outside the declared supports" in capsys.readouterr().err


def distance_kl(tmp_path, rows):
    q = write_dist(tmp_path / "q.csv", [[0.3, 0.5], [1.0, 0.5]])
    return [*distance(tmp_path, rows)[:-1], q, "--kl"]


@pytest.mark.parametrize("command, rows", [
    (distance, "0.0,0.5"),
    (distance_kl, "0.30000000000000004,0.5"),
    (raw_radius, "1.0000000000000002\n2"),
], ids=["distance-repeated-point", "distance-kl-union-1-ulp-apart", "radius-1-ulp-apart"])
def test_refused_points_exit_3(tmp_path, capsys, command, rows):
    assert main(command(tmp_path, rows)) == 3
    assert "error: support points must be pairwise distinct" in capsys.readouterr().err


# -- ope -----------------------------------------------------------------------------

@pytest.mark.parametrize("args, eta", [
    (["ope", "--method", "exact", "--eta", "10"], ""),
    (["ope", "--method", "regularized", "--eta", "10"], "10.0"),
    (["opl", "--algo", "grid", "--method", "kl", "--eta", "4", "--resolution", "3"], ""),
    (["opl", "--algo", "bsgd", "--iterations", "20"], "10.0"),
], ids=["ope-exact", "ope-regularized", "opl-grid-kl", "opl-bsgd-default"])
def test_summary_eta_is_the_eta_the_run_used(tmp_path, canonical_data, args, eta):
    out = tmp_path / "summary.csv"
    assert main([*args, "--data", str(canonical_data), "--epsilon-x", "0.1",
                 "--out", str(out)]) == 0
    assert read_rows(out)[0]["eta"] == eta


def test_ope_plugin_control_matches_zero_radii(tmp_path, canonical_data):
    out_a = tmp_path / "plugin.csv"
    out_b = tmp_path / "zero.csv"
    assert main(["ope", "--data", str(canonical_data), "--method", "plugin",
                 "--out", str(out_a)]) == 0
    assert main(["ope", "--data", str(canonical_data), "--method", "exact",
                 "--epsilon-x", "0", "--epsilon-c", "0", "--out", str(out_b)]) == 0
    assert read_rows(out_a)[0]["value"] == read_rows(out_b)[0]["value"]


def test_ope_regularized_close_to_exact(tmp_path, canonical_data):
    out_exact = tmp_path / "exact.csv"
    out_reg = tmp_path / "reg.csv"
    args = ["--data", str(canonical_data), "--epsilon-x", "0.1", "--epsilon-c", "0.1"]
    assert main(["ope", *args, "--method", "exact", "--out", str(out_exact)]) == 0
    assert main(["ope", *args, "--method", "regularized", "--eta", "10000",
                 "--out", str(out_reg)]) == 0
    v_exact = float(read_rows(out_exact)[0]["value"])
    v_reg = float(read_rows(out_reg)[0]["value"])
    assert abs(v_exact - v_reg) <= (math.log(3) + math.log(3)) / 10000 + 1e-6


def test_ope_missing_pair_exits_3_with_pair_list(tmp_path, capsys):
    data = tmp_path / "raw.csv"
    data.write_text(
        "risk,treatment,event,death\n"
        "0,drug,N,N\n"
        "0,control,Y,N\n"
        "1,drug,N,N\n"
    )
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({
        "context_columns": ["risk"],
        "action_column": "treatment",
        "actions": ["control", "drug"],
        "outcome_columns": ["event", "death"],
        "cost_weights": {"event": 1.0, "death": 3.0},
    }))
    code = main(["ope", "--data", str(data), "--config", str(schema),
                 "--epsilon-x", "0.1", "--epsilon-c", "0.1"])
    assert code == 3
    err = capsys.readouterr().err
    assert "(1, 0)" in err  # context 1 x action 'control'
    # the imputation flag turns the same run into a success
    assert main(["ope", "--data", str(data), "--config", str(schema),
                 "--epsilon-x", "0.1", "--epsilon-c", "0.1",
                 "--impute-missing-ymax"]) == 0


def test_ope_accepts_policy_file(tmp_path, canonical_data):
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps({"probs": [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]}))
    out = tmp_path / "o.csv"
    assert main(["ope", "--data", str(canonical_data), "--epsilon-x", "0.1",
                 "--epsilon-c", "0.1", "--policy", str(policy), "--out", str(out)]) == 0
    assert 0.0 <= float(read_rows(out)[0]["value"]) <= 1.0


def test_ope_accepts_policy_file_rounded_to_ten_decimals(tmp_path, canonical_data):
    values = []
    for name, third in (("exact.json", 1.0 / 3.0), ("rounded.json", 0.3333333333)):
        policy = tmp_path / name
        # the rounded rows sum to 0.9999999999, 1e-10 off one
        policy.write_text(json.dumps({"probs": [[third, 2 * third]] * 3}))
        out = tmp_path / f"{name}.csv"
        assert main(["ope", "--data", str(canonical_data), "--epsilon-x", "0.1",
                     "--epsilon-c", "0.1", "--policy", str(policy), "--out", str(out)]) == 0
        values.append(float(read_rows(out)[0]["value"]))
    assert values[1] == pytest.approx(values[0], abs=1e-9)


def test_ope_policy_file_holding_nan_exits_3(tmp_path, capsys, canonical_data):
    policy = tmp_path / "policy.json"
    policy.write_text('{"probs": [[NaN, 1.0], [0.5, 0.5], [0.5, 0.5]]}')
    assert main(["ope", "--data", str(canonical_data), "--policy", str(policy)]) == 3
    assert "each policy row must be a probability vector" in capsys.readouterr().err


def test_ope_table_out_covers_grid(tmp_path, canonical_data):
    table = tmp_path / "table.csv"
    assert main(["ope", "--data", str(canonical_data), "--epsilon-c", "0.05",
                 "--table-out", str(table)]) == 0
    rows = read_rows(table)
    assert len(rows) == 6  # 3 contexts x 2 actions
    assert all(0.0 <= float(r["m_hat"]) <= 1.0 for r in rows)


def test_column_writers_match_the_row_writers(tmp_path, canonical_data):
    # --table-out against a per-cell row loop over the values it holds
    table = tmp_path / "table.csv"
    assert main(["ope", "--data", str(canonical_data), "--epsilon-c", "0.05",
                 "--table-out", str(table)]) == 0
    expected = tmp_path / "expected.csv"
    with open(expected, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("context_index", "action_index", "m_hat"))
        for r in read_rows(table):
            writer.writerow([int(r["context_index"]), int(r["action_index"]),
                             repr(float(r["m_hat"]))])
    assert table.read_bytes() == expected.read_bytes()
    # save_dataset against its former per-record loop
    dataset = load_canonical(canonical_data)
    save_dataset(dataset, tmp_path / "canon.csv")
    with open(expected, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("context_index", "action_index", "xi_index", "cost"))
        for x, a, k, c in zip(dataset.context_idx, dataset.action_idx,
                              dataset.xi_idx, dataset.costs):
            writer.writerow([int(x), int(a), int(k), repr(float(c))])
    assert (tmp_path / "canon.csv").read_bytes() == expected.read_bytes()


# -- opl -----------------------------------------------------------------------------

def test_opl_grid_toy_prefers_cheap_action(tmp_path):
    data = tmp_path / "raw.csv"
    rows = ["risk,treatment,event,death"]
    rows += ["0,drug,N,N"] * 10 + ["0,control,Y,N"] * 10
    data.write_text("\n".join(rows) + "\n")
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({
        "context_columns": ["risk"],
        "action_column": "treatment",
        "actions": ["control", "drug"],
        "outcome_columns": ["event", "death"],
        "cost_weights": {"event": 1.0, "death": 3.0},
    }))
    out = tmp_path / "opl.csv"
    assert main(["opl", "--data", str(data), "--config", str(schema),
                 "--algo", "grid", "--grouping", "single", "--out", str(out)]) == 0
    row = read_rows(out)[0]
    # action 'control' (index 0) always costs 1, 'drug' costs 0
    assert float(row["theta_0"]) == pytest.approx(0.0)
    assert float(row["value"]) == pytest.approx(0.0, abs=1e-9)


def test_opl_bsgd_trace_deterministic(tmp_path, canonical_data):
    traces = []
    for name in ("t1.csv", "t2.csv"):
        trace = tmp_path / name
        assert main(["opl", "--data", str(canonical_data), "--algo", "bsgd",
                     "--iterations", "200", "--batch", "8", "--eta", "5",
                     "--epsilon-x", "0.1", "--epsilon-c", "0.1", "--seed", "13",
                     "--grouping", "single", "--trace-out", str(trace)]) == 0
        traces.append(trace.read_bytes())
    assert traces[0] == traces[1]


def test_opl_bsgd_starts_at_theta0(tmp_path, canonical_data):
    trace = tmp_path / "trace.csv"
    args = ["opl", "--data", str(canonical_data), "--algo", "bsgd", "--iterations", "20",
            "--batch", "8", "--epsilon-x", "0.1", "--epsilon-c", "0.1", "--seed", "13",
            "--grouping", "single", "--trace-out", str(trace)]
    assert main([*args, "--theta0", "0.2"]) == 0
    assert float(read_rows(trace)[0]["theta_0"]) == 0.2
    assert main([*args, "--theta0", "0.2,0.3"]) == 3  # one parameter expected


def test_opl_bsgd_near_grid_value(tmp_path, canonical_data):
    out_grid = tmp_path / "grid.csv"
    out_bsgd = tmp_path / "bsgd.csv"
    shared = ["--data", str(canonical_data), "--epsilon-x", "0.1",
              "--epsilon-c", "0.1", "--grouping", "single",
              "--method", "regularized", "--eta", "8"]
    assert main(["opl", *shared, "--algo", "grid", "--out", str(out_grid)]) == 0
    assert main(["opl", *shared, "--algo", "bsgd", "--iterations", "6000",
                 "--batch", "32", "--seed", "3", "--out", str(out_bsgd)]) == 0
    v_grid = float(read_rows(out_grid)[0]["value"])
    v_bsgd = float(read_rows(out_bsgd)[0]["value"])
    assert v_bsgd - v_grid <= 5e-2


# -- compare --------------------------------------------------------------------------

def test_compare_upper_bounds_and_outlier_ordering(tmp_path):
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--radii", "0.8,1.0,1.2", "--outlier-shift",
                 "--out", str(out)]) == 0
    rows = read_rows(out)
    for row in rows:
        if row["scenario"] == "base" and float(row["multiplier"]) >= 1.0:
            assert float(row["value"]) >= float(row["expectation_under_q"]) - 1e-9
    def value(scenario, method):
        return next(float(r["value"]) for r in rows
                    if r["scenario"] == scenario and r["method"] == method
                    and float(r["multiplier"]) == 1.0)
    kl_delta = value("outlier", "kl") - value("base", "kl")
    w_delta = value("outlier", "wasserstein") - value("base", "wasserstein")
    assert kl_delta >= 2.0 * w_delta > 0


def test_compare_zero_radius_prints_plugin(tmp_path):
    out = tmp_path / "cmp0.csv"
    assert main(["compare", "--radii", "0", "--out", str(out)]) == 0
    rows = read_rows(out)
    values = {r["method"]: float(r["value"]) for r in rows}
    assert values["kl"] == pytest.approx(values["wasserstein"], abs=1e-12)


# -- rate (smoke) ----------------------------------------------------------------------

def test_rate_smoke(tmp_path):
    out = tmp_path / "rate.csv"
    assert main(["rate", "--contexts", "3", "--xi-size", "3", "--n-grid", "64,256",
                 "--trials", "8", "--seed", "5", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 2
    assert {"n", "median_abs_error", "loglog_slope"} <= set(rows[0])


# -- manifests and reruns ----------------------------------------------------------------

def test_manifest_rerun_reproduces_outputs_byte_identically(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SYNTH_SPEC))
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    manifest = tmp_path / "synth.manifest.json"
    assert main(["synth", "--spec", str(spec), "--out-train", str(train),
                 "--out-test", str(test), "--manifest-out", str(manifest)]) == 0
    first = {p.name: p.read_bytes() for p in (train, test)}

    ope_out = tmp_path / "ope.csv"
    assert main(["ope", "--data", str(train), "--epsilon-x", "0.1",
                 "--epsilon-c", "0.1", "--out", str(ope_out)]) == 0
    ope_manifest = tmp_path / "ope.csv.manifest.json"
    assert ope_manifest.exists()
    ope_first = ope_out.read_bytes()

    assert main(["rerun", str(manifest)]) == 0
    assert {p.name: p.read_bytes() for p in (train, test)} == first
    assert main(["rerun", str(ope_manifest)]) == 0
    assert ope_out.read_bytes() == ope_first

    recorded = json.loads(ope_manifest.read_text())
    assert recorded["command"] == "ope"
    assert recorded["inputs"]
    assert recorded["outputs"] == [str(ope_out)]


def manifest_distance(tmp, train):
    p = write_dist(tmp / "p.csv", [[0.0, 0.2], [1.0, 0.5], [2.5, 0.3]])
    q = write_dist(tmp / "q.csv", [[0.5, 0.4], [1.0, 0.1], [3.0, 0.5]])
    out, plan = str(tmp / "d.csv"), str(tmp / "plan.csv")
    return ["distance", "--p", p, "--q", q, "--kl", "--out", out, "--plan-out", plan], \
        [p, q], [out, plan]


def raw_log(tmp):
    data, schema = tmp / "raw.csv", tmp / "schema.json"
    data.write_text("x,arm,cost\n" + "".join(f"{i % 5},{'ab'[i % 2]},{(i % 3) / 2}\n"
                                             for i in range(30)))
    schema.write_text(json.dumps({"context_columns": ["x"], "action_column": "arm",
                                  "cost_column": "cost"}))
    return str(data), str(schema)


def manifest_radius(tmp, train):
    data, schema = raw_log(tmp)
    out = str(tmp / "r.csv")
    return ["radius", "--data", data, "--config", schema, "--seed", "2", "--out", out], \
        [data, schema], [out]


def manifest_ope(tmp, train):
    policy = json_file(tmp, {"probs": [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]})
    out, table = str(tmp / "ope.csv"), str(tmp / "table.csv")
    return ["ope", "--data", train, "--epsilon-x", "0.1", "--epsilon-c", "0.1", "--policy",
            policy, "--out", out, "--table-out", table], \
        [train, f"{train}.meta.json", policy], [out, table]


def manifest_opl_bsgd(tmp, train):
    grouping = json_file(tmp, [0, 1, 1])
    out, trace = str(tmp / "bsgd.csv"), str(tmp / "trace.csv")
    return ["opl", "--data", train, "--algo", "bsgd", "--grouping", grouping, "--iterations",
            "50", "--batch", "8", "--epsilon-x", "0.1", "--epsilon-c", "0.1", "--seed", "3",
            "--out", out, "--trace-out", trace], \
        [train, f"{train}.meta.json", grouping], [trace, out]


def manifest_opl_grid(tmp, train):
    data, schema = raw_log(tmp)
    out = str(tmp / "grid.csv")
    return ["opl", "--data", data, "--config", schema, "--algo", "grid", "--grouping", "single",
            "--method", "regularized", "--eta", "5", "--resolution", "5", "--epsilon-x", "0.1",
            "--epsilon-c", "0.1", "--out", out], [data, schema], [out]


def manifest_compare(tmp, train):
    spec = json_file(tmp, {"support_points": [[0.0], [1.0], [2.0], [4.0]],
                           "values": [0.0, 0.5, 1.0, 3.0], "p_hat": [0.3, 0.3, 0.3, 0.1],
                           "q": [0.25, 0.25, 0.25, 0.25]})
    out = str(tmp / "cmp.csv")
    return ["compare", "--spec", spec, "--out", out], [spec], [out]


def manifest_rate(tmp, train):
    out = str(tmp / "rate.csv")
    return ["rate", "--contexts", "3", "--xi-size", "3", "--n-grid", "64,256", "--trials", "4",
            "--seed", "5", "--out", out], [], [out]


def manifest_synth(tmp, train):
    spec = json_file(tmp, SYNTH_SPEC)
    a, b = str(tmp / "a.csv"), str(tmp / "b.csv")
    return ["synth", "--spec", spec, "--out-train", a, "--out-test", b, "--manifest-out",
            str(tmp / "a.csv.manifest.json")], [spec], [a, f"{a}.meta.json", b, f"{b}.meta.json"]


@pytest.mark.parametrize("case", [
    manifest_distance, manifest_radius, manifest_ope, manifest_opl_bsgd, manifest_opl_grid,
    manifest_compare, manifest_rate, manifest_synth,
], ids=["distance", "radius-config", "ope", "opl-bsgd", "opl-grid", "compare-spec", "rate",
        "synth"])
def test_manifest_records_its_files_and_rerun_rewrites_them(tmp_path, canonical_data, case):
    argv, inputs, outputs = case(tmp_path, str(canonical_data))
    assert main(argv) == 0
    manifest_path = (argv[argv.index("--manifest-out") + 1] if "--manifest-out" in argv
                     else f"{argv[argv.index('--out') + 1]}.manifest.json")
    manifest = json.loads(Path(manifest_path).read_text())
    assert manifest["command"] == argv[0]
    assert manifest["argv"] == argv
    assert sorted(manifest["inputs"]) == sorted(inputs)
    assert manifest["outputs"] == outputs
    assert manifest["wall_clock_s"] >= 0.0
    first = {path: Path(path).read_bytes() for path in outputs}
    for path in outputs:
        os.remove(path)
    assert main(["rerun", manifest_path]) == 0
    assert {path: Path(path).read_bytes() for path in outputs} == first


def test_main_reuses_one_parser_and_reads_fresh_defaults(tmp_path, monkeypatch):
    # the parser is built once per process; each call still starts from the
    # defaults, whatever flags and subcommand the call before it used
    seen, load = [], cli.load_dataset

    def recording_load(*args, support):
        seen.append(support)
        return load(*args, support=support)

    monkeypatch.setattr(cli, "load_dataset", recording_load)
    ope = raw_ope(tmp_path, "1,70,control,0.25\n0,61,control,0.75\n1,70,drug,0.1")
    assert main([*ope, "--support", "observed", "--out", str(tmp_path / "a.csv")]) == 0
    assert main(raw_radius(tmp_path, "2\n3")) == 0
    assert main([*ope, "--out", str(tmp_path / "b.csv")]) == 0
    assert seen == ["observed", "full"]
    assert cli.build_parser() is cli.build_parser()


def test_ope_manifest_records_solver_and_coverage_diagnostics(tmp_path):
    # 2 contexts x 2 actions, 3 records: pair (1, control) is imputed
    data = tmp_path / "raw.csv"
    data.write_text("risk,treatment,event,death\n0,drug,N,N\n0,control,Y,N\n1,drug,N,N\n")
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({
        "context_columns": ["risk"],
        "action_column": "treatment",
        "actions": ["control", "drug"],
        "outcome_columns": ["event", "death"],
        "cost_weights": {"event": 1.0, "death": 3.0},
    }))
    out = tmp_path / "ope.csv"
    assert main(["ope", "--data", str(data), "--config", str(schema), "--epsilon-x", "0.1",
                 "--epsilon-c", "0.1", "--impute-missing-ymax", "--out", str(out)]) == 0
    diagnostics = json.loads((tmp_path / "ope.csv.manifest.json").read_text())["diagnostics"]
    solve = diagnostics["outer_solve"]
    assert set(solve) == {"iterations", "lambda_star", "bracket", "gap"}
    assert solve["iterations"] >= 1 and 0.0 <= solve["gap"] <= 1e-9 * 4.0
    assert solve["bracket"][0] == 0.0 <= solve["lambda_star"] <= solve["bracket"][1]
    assert diagnostics["min_pair_frequency"] == 0.0
    assert diagnostics["imputed_pairs"] == 1
    # a 1-d support stays on the dense N x N kernel
    assert diagnostics["support_size"] == 2 and diagnostics["cost_kernel"] == "dense"
    # the diagnostics stay out of the output CSV
    assert set(read_rows(out)[0]) == {"method", "epsilon_x", "epsilon_c", "eta", "value",
                                      "lambda_star"}

    # two context columns: the full support is their 2 x 3 grid; KL reads no costs
    data.write_text("risk,site,treatment,event,death\n0,a,drug,N,N\n0,b,control,Y,N\n"
                    "1,c,drug,N,N\n")
    schema.write_text(json.dumps({
        "context_columns": ["risk", "site"],
        "action_column": "treatment",
        "actions": ["control", "drug"],
        "outcome_columns": ["event", "death"],
        "cost_weights": {"event": 1.0, "death": 3.0},
        "binning": {"site": {"kind": "categorical", "levels": ["a", "b", "c"]}},
    }))
    for method, kernel in (("exact", "grid"), ("regularized", "grid"), ("kl", "none")):
        assert main(["ope", "--data", str(data), "--config", str(schema), "--method", method,
                     "--eta", "5", "--epsilon-x", "0.1", "--epsilon-c", "0.1",
                     "--impute-missing-ymax", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "ope.csv.manifest.json").read_text())
        assert manifest["diagnostics"]["support_size"] == 6
        assert manifest["diagnostics"]["cost_kernel"] == kernel
        assert not {"support_size", "cost_kernel"} & set(read_rows(out)[0])


# -- full context supports: the size guard and a 30 x 30 x 30 grid ---------------------

def test_ope_full_support_beyond_the_size_guard_exits_3(tmp_path, capsys):
    # five identity columns of 9,000 levels: 9000^5 points overflow even int64
    columns = ["c0", "c1", "c2", "c3", "c4"]
    data = tmp_path / "wide.csv"
    data.write_text(",".join(columns + ["arm", "cost"]) + "\n" + "".join(
        f"{i},{i},{i},{i},{i},{'ab'[i % 2]},{i % 3}\n" for i in range(9000)))
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"context_columns": columns, "action_column": "arm",
                                  "cost_column": "cost"}))
    assert main(["ope", "--data", str(data), "--config", str(schema), "--support", "full",
                 "--impute-missing-ymax"]) == 3
    assert "full context support" in capsys.readouterr().err


def test_ope_full_support_on_a_30_cubed_grid_runs_in_bounded_memory(tmp_path):
    # 27,000 contexts: one dense cost matrix alone would take 5.8 GB
    rng = np.random.default_rng(8)
    rows = 3000
    levels = rng.integers(0, 30, size=(rows, 3))
    levels[:30] = np.arange(30)[:, None]  # every level of every column is seen
    data = tmp_path / "grid.csv"
    data.write_text("age,rsbp,conscious,arm,cost\n" + "".join(
        f"{a},{b},{c},{'ab'[k]},{y}\n"
        for (a, b, c), k, y in zip(levels, rng.integers(0, 2, rows),
                                   rng.integers(0, 5, rows) / 4)))
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"context_columns": ["age", "rsbp", "conscious"],
                                  "action_column": "arm", "cost_column": "cost"}))
    values = {}
    tracemalloc.start()
    try:
        for method in ("plugin", "exact"):
            out = tmp_path / f"{method}.csv"
            assert main(["ope", "--data", str(data), "--config", str(schema), "--support",
                         "full", "--method", method, "--epsilon-x", "0.5", "--epsilon-c",
                         "0.1", "--impute-missing-ymax", "--out", str(out)]) == 0
            values[method] = float(read_rows(out)[0]["value"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    manifest = json.loads((tmp_path / "exact.csv.manifest.json").read_text())
    assert manifest["diagnostics"]["support_size"] == 27_000
    assert manifest["diagnostics"]["cost_kernel"] == "grid"
    # within the solver's default tolerance of y_max, the largest cost logged
    assert values["plugin"] <= values["exact"] <= 1.0 + 1e-9
    assert peak <= 200e6

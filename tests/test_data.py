import csv
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drobandit import (
    DiscreteDistribution,
    SupportSet,
    kl_divergence,
    load_canonical,
    load_dataset,
    save_dataset,
    synth_generate,
    wasserstein_distance,
)
from drobandit.data import (
    ColumnBinning,
    CsvColumns,
    ContextExtension,
    ShiftSpec,
    SyntheticConfig,
    _read_rows,
    apply_shift,
    canonical_rate_config,
    synthetic_config_from_json,
)
from drobandit.distributions import match_indices
from drobandit.errors import EmptyDataset, InvalidShift, SchemaMismatch, UnparsableRow

TOY_SCHEMA = {
    "context_columns": ["risk"],
    "action_column": "treatment",
    "actions": ["control", "drug"],
    "outcome_columns": ["event", "death"],
    "cost_weights": {"event": 1.0, "death": 3.0},
}


def write_csv(path, text):
    path.write_text(text.strip() + "\n")
    return str(path)


def test_load_toy_csv(tmp_path):
    data = write_csv(
        tmp_path / "toy.csv",
        """
risk,treatment,event,death
0,drug,Y,N
1,control,N,N
""",
    )
    ds = load_dataset(data, TOY_SCHEMA)
    assert len(ds.contexts) == 2
    assert ds.actions == ("control", "drug")
    assert ds.n == 2
    assert list(ds.costs) == [1.0, 0.0]
    assert ds.y_max == 4.0
    assert ds.diagnostics.n == 2
    assert ds.diagnostics.min_pair_frequency == 0.0  # 2 of 4 pairs unobserved


def test_unknown_action_label_is_unparsable(tmp_path):
    data = write_csv(
        tmp_path / "bad.csv",
        """
risk,treatment,event,death
0,placebo,N,N
""",
    )
    with pytest.raises(UnparsableRow):
        load_dataset(data, TOY_SCHEMA)


def test_fixed_width_binning_floors():
    rule = ColumnBinning(kind="fixed_width", width=10.0)
    assert rule.apply("63") == 60.0
    assert rule.apply("70") == 70.0
    assert rule.apply("9.9") == 0.0


def test_binning_applied_during_load(tmp_path):
    data = write_csv(
        tmp_path / "age.csv",
        """
AGE,treatment,event,death
63,drug,N,N
77,control,Y,N
""",
    )
    schema = {
        "context_columns": ["AGE"],
        "action_column": "treatment",
        "outcome_columns": ["event", "death"],
        "cost_weights": {"event": 1.0, "death": 3.0},
        "binning": {"AGE": {"kind": "fixed_width", "width": 10}},
    }
    ds = load_dataset(data, schema)
    assert ds.contexts.points[:, 0].tolist() == [60.0, 70.0]


def test_full_support_is_cross_product(tmp_path):
    data = write_csv(
        tmp_path / "cross.csv",
        """
a,b,treatment,event,death
0,0,drug,N,N
1,1,drug,N,N
""",
    )
    schema = dict(TOY_SCHEMA, context_columns=["a", "b"])
    full = load_dataset(data, schema)
    observed = load_dataset(data, schema, support="observed")
    assert len(full.contexts) == 4  # {0,1} x {0,1}
    assert len(observed.contexts) == 2


def test_observed_support_codes_stay_1d_when_unique_returns_a_column(tmp_path, monkeypatch):
    # numpy 2.0.0 returns np.unique(..., axis=0, return_inverse=True)'s inverse
    # as an (n, 1) column, which np.bincount refuses
    data = write_csv(tmp_path / "cross.csv", """
a,b,treatment,event,death
0,0,drug,N,N
1,1,drug,N,N
1,1,control,Y,N
""")
    unique = np.unique

    def column_inverse(ar, *args, **kwargs):
        out = unique(ar, *args, **kwargs)
        if kwargs.get("axis") == 0 and kwargs.get("return_inverse"):
            k = 1 + bool(kwargs.get("return_index"))
            out = out[:k] + (out[k].reshape(-1, 1),) + out[k + 1:]
        return out

    monkeypatch.setattr(np, "unique", column_inverse)
    ds = load_dataset(data, dict(TOY_SCHEMA, context_columns=["a", "b"]), support="observed")
    assert ds.context_idx.tolist() == [0, 1, 1]
    assert ds.empirical_context_distribution().weights.tolist() == [1 / 3, 2 / 3]


def test_categorical_binning_declares_levels(tmp_path):
    data = write_csv(
        tmp_path / "cat.csv",
        """
conscious,treatment,event,death
F,drug,N,N
F,control,N,Y
""",
    )
    schema = {
        "context_columns": ["conscious"],
        "action_column": "treatment",
        "outcome_columns": ["event", "death"],
        "cost_weights": {"event": 1.0, "death": 3.0},
        "binning": {"conscious": {"kind": "categorical", "levels": ["F", "D", "U"]}},
    }
    ds = load_dataset(data, schema)
    # declared levels stay in the support even when unobserved
    assert len(ds.contexts) == 3


def test_schema_mismatch(tmp_path):
    data = write_csv(tmp_path / "x.csv", "foo,bar\n1,2")
    with pytest.raises(SchemaMismatch):
        load_dataset(data, TOY_SCHEMA)


def test_indicator_costs_during_load(tmp_path):
    schema = {
        "context_columns": ["x"],
        "action_column": "a",
        "outcome_columns": ["ISC14", "PE14", "DDEAD"],
        "cost_weights": {"ISC14": 1.0, "PE14": 1.0, "DDEAD": 3.0},
    }
    data = write_csv(
        tmp_path / "events.csv",
        """
x,a,ISC14,PE14,DDEAD
0,drug,N,N,N
0,drug,N,N,Y
0,drug,Y,Y,N
""",
    )
    assert load_dataset(data, schema).costs.tolist() == [0.0, 3.0, 2.0]
    bad = write_csv(tmp_path / "maybe.csv", "x,a,ISC14,PE14,DDEAD\n0,drug,N,N,N\n0,drug,maybe,N,N")
    with pytest.raises(UnparsableRow, match="line 3"):
        load_dataset(bad, schema)


# -- the column-wise loader against a per-row reading of the same log ----------

_YES = {"y", "yes", "true", "t", "1"}


def reference_load(path, schema, support):
    """Per-row reading: bin each record, index its point tuple in the support."""
    binning = schema.get("binning", {})

    def bin_value(column, raw):
        rule = binning.get(column, {})
        if rule.get("kind") == "categorical":
            return float(rule["levels"].index(raw))
        if rule.get("kind") == "fixed_width":
            return math.floor(float(raw) / rule["width"]) * rule["width"]
        return float(raw)

    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    columns = schema["context_columns"]
    points = [tuple(bin_value(c, row[c]) for c in columns) for row in rows]
    labels = [row[schema["action_column"]].strip() for row in rows]
    if "cost_column" in schema:
        costs = [float(row[schema["cost_column"]]) for row in rows]
    else:
        costs = []
        for row in rows:
            total = 0.0
            for column, weight in schema["cost_weights"].items():
                if row[column].strip().lower() in _YES:
                    total += weight
            costs.append(total)
    if support == "full":
        levels = []
        for j, column in enumerate(columns):
            seen = {p[j] for p in points}
            if binning.get(column, {}).get("kind") == "categorical":
                seen |= {float(i) for i in range(len(binning[column]["levels"]))}
            levels.append(sorted(seen))
        support_points = list(itertools.product(*levels))
    else:
        support_points = sorted(set(points))
    point_index = {p: i for i, p in enumerate(support_points)}
    actions = tuple(schema.get("actions") or sorted(set(labels)))
    xi_values = sorted(set(costs))
    xi_index = {v: i for i, v in enumerate(xi_values)}
    context_idx = [point_index[p] for p in points]
    action_idx = [actions.index(label) for label in labels]
    pairs = {}
    for x, a in zip(context_idx, action_idx):
        pairs[(x, a)] = pairs.get((x, a), 0) + 1
    return {
        "context_idx": context_idx,
        "action_idx": action_idx,
        "xi_idx": [xi_index[c] for c in costs],
        "costs": costs,
        "contexts": support_points,
        "actions": actions,
        "xi_support": xi_values,
        "pair_counts": dict(sorted(pairs.items())),
    }


def write_mixed_log(path, rng, rows=400):
    """Identity, fixed-width (negative values too) and categorical columns;
    categorical level "D" is declared but never written."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["score", "age", "grade", "arm", "event", "death", "cost"])
        for _ in range(rows):
            writer.writerow([
                repr(float(rng.integers(-4, 5)) / 4),
                repr(float(np.round(rng.uniform(-20.0, 90.0), 1))),
                "ABC"[rng.integers(3)],
                ["drug", " drug", "control"][rng.integers(3)],
                ["Y", "n", "yes", "0", ""][rng.integers(5)],
                ["N", "t", "false", "1"][rng.integers(4)],
                repr(float(rng.integers(0, 9)) / 8),
            ])
    return str(path)


MIXED_BINNING = {
    "age": {"kind": "fixed_width", "width": 7.5},
    "grade": {"kind": "categorical", "levels": ["A", "B", "C", "D"]},
}
MIXED_SCHEMAS = (
    {"context_columns": ["score", "age", "grade"], "action_column": "arm",
     "actions": ["control", "drug"], "outcome_columns": ["event", "death"],
     "cost_weights": {"death": 3.0, "event": 1.0}, "binning": MIXED_BINNING},
    {"context_columns": ["grade", "score", "age"], "action_column": "arm",
     "cost_column": "cost", "binning": MIXED_BINNING},
)


@pytest.mark.parametrize("support", ["full", "observed"])
@pytest.mark.parametrize("schema", MIXED_SCHEMAS, ids=["cost_weights", "cost_column"])
def test_load_dataset_matches_per_row_reference(tmp_path, schema, support):
    path = write_mixed_log(tmp_path / "mixed.csv", np.random.default_rng(17))
    ds = load_dataset(path, schema, support=support)
    ref = reference_load(path, schema, support)
    assert ds.context_idx.tolist() == ref["context_idx"]
    assert ds.action_idx.tolist() == ref["action_idx"]
    assert ds.xi_idx.tolist() == ref["xi_idx"]
    assert ds.costs.tolist() == ref["costs"]
    assert ds.contexts.points.tolist() == [list(p) for p in ref["contexts"]]
    assert ds.actions == ref["actions"]
    assert ds.xi_support.points[:, 0].tolist() == ref["xi_support"]
    assert ds.diagnostics.pair_counts == ref["pair_counts"]
    grade = schema["context_columns"].index("grade")
    assert (3.0 in ds.contexts.points[:, grade]) == (support == "full")


@pytest.mark.parametrize("row, line", [
    ("0,drug,N", 3),                # short row
    ("0,drug,N,N,N", 3),            # long row
    ("nan,drug,N,N", 3),            # non-finite context value
    ("0,drug,N,maybe", 3),          # unparsable outcome
])
def test_malformed_record_names_its_line(tmp_path, row, line):
    data = write_csv(tmp_path / "bad.csv", f"risk,treatment,event,death\n1,control,N,N\n{row}\n0,drug,Y,Y")
    with pytest.raises(UnparsableRow, match=f"^line {line}:"):
        load_dataset(data, TOY_SCHEMA)


def test_earliest_bad_line_across_columns(tmp_path):
    data = write_csv(tmp_path / "bad.csv", "risk,treatment,event,death\n1,control,N,N\n"
                     "0,drug,N,maybe\n1,placebo,N,N\ninf,drug,N,N")
    with pytest.raises(UnparsableRow, match="^line 3:"):
        load_dataset(data, TOY_SCHEMA)


# -- the byte scan against csv.reader --------------------------------------------

def reference_columns(path):
    """csv.reader, one record at a time: the header, each record's line and,
    per distinct header name, its levels in order of first appearance and
    each record's code; the errors CsvColumns raises, at the same line."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise EmptyDataset("no header")
        lines, rows = [], []
        for row in reader:
            if row and len(row) != len(header):
                raise UnparsableRow(reader.line_num, "field count")
            if row:
                lines.append(reader.line_num)
                rows.append(row)
    if not rows:
        raise EmptyDataset("no records")
    columns = {}
    for column in dict.fromkeys(header):
        table = {}
        codes = [table.setdefault(row[header.index(column)], len(table)) for row in rows]
        columns[column] = (list(table), codes)
    return header, lines, columns


def assert_reads_like_csv_reader(path):
    try:
        header, lines, columns = reference_columns(path)
    except (EmptyDataset, UnparsableRow) as exc:
        with pytest.raises(type(exc)) as raised:
            CsvColumns(path)
        assert getattr(raised.value, "line_number", None) == getattr(exc, "line_number", None)
        return
    table = CsvColumns(path)
    assert table.header == header
    assert table._lines.tolist() == lines
    parsed = table.parse([(column, str) for column in columns])
    assert [(levels, codes.tolist()) for levels, codes in parsed] == list(columns.values())


CHARACTERS = "0123456789abyzABYZ é"
# fields of 0-20 bytes; the heads give long fields that share their first 8 bytes
FIELDS = st.builds(lambda head, tail: (head + tail).encode()[:20].decode(errors="ignore"),
                   st.sampled_from(["", "", "abcdefg", "0.10000000000000"]),
                   st.text(CHARACTERS, max_size=20))


@st.composite
def csv_logs(draw):
    """Header and records of 1-4 fields of 0-20 bytes; some lines free text
    with commas (other field counts) or blank; \n or \r\n endings."""
    width = draw(st.integers(1, 4))
    lines = [",".join(draw(st.lists(FIELDS, min_size=width, max_size=width)))]
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 9)) < 8:
            lines.append(",".join(draw(st.lists(FIELDS, min_size=width, max_size=width))))
        else:
            lines.append(draw(st.sampled_from(["", draw(st.text(CHARACTERS + ",", max_size=30))])))
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                            max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, endings))
    return text if draw(st.booleans()) else text[: -len(endings[-1])]


@settings(max_examples=300, deadline=None)
@given(text=csv_logs())
def test_byte_scan_reads_like_csv_reader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("scan") / "log.csv"
    path.write_bytes(text.encode())
    # no quote, NUL or lone \r: the byte scan alone reads the file
    with mock.patch("drobandit.data._read_rows", side_effect=AssertionError("csv.reader used")):
        assert_reads_like_csv_reader(path)
    with mock.patch("drobandit.data._scan", return_value=None):
        assert_reads_like_csv_reader(path)


def test_plain_logs_take_the_byte_scan(tmp_path):
    path = write_mixed_log(tmp_path / "mixed.csv", np.random.default_rng(5))
    schema = MIXED_SCHEMAS[0]
    with mock.patch("drobandit.data._read_rows", side_effect=AssertionError("csv.reader used")):
        ds = load_dataset(path, schema, support="observed")
    assert ds.context_idx.tolist() == reference_load(path, schema, "observed")["context_idx"]


def test_quoted_fields_keep_csv_reader(tmp_path):
    path = tmp_path / "quoted.csv"
    path.write_bytes(b'x,arm,note\r\n1,"a,b",plain\r\n2,"two\nlines",\r\n\r\n3,"a,b",""\r\n')
    table = CsvColumns(path)
    assert table.header == ["x", "arm", "note"]
    assert table._lines.tolist() == [2, 4, 6]  # a record's line is its last
    (arms, codes), = table.parse([("arm", str)])
    assert arms == ["a,b", "two\nlines"] and codes.tolist() == [0, 1, 0]
    assert_reads_like_csv_reader(path)


@pytest.mark.parametrize("text, scanned", [
    (b"x,arm\r\n1,a\r2,b\r\n", False),  # a lone CR mid-record: csv.reader ends the line there
    (b"x,arm\r\n1,a\r\n2,b\r", False),  # a trailing CR with no newline after it
    (b"x,arm\r\n1,a\r\n\r\n2,b\r\n", True),  # CRLF endings only
])
def test_lone_carriage_returns_keep_csv_reader(tmp_path, text, scanned):
    path = tmp_path / "log.csv"
    path.write_bytes(text)
    with mock.patch("drobandit.data._read_rows", wraps=_read_rows) as read_rows:
        assert_reads_like_csv_reader(path)
    assert read_rows.called is not scanned
    assert CsvColumns(path).parse([("arm", str)])[0][0] == ["a", "b"]


def test_round_trip_canonical(tmp_path):
    config = canonical_rate_config(n_contexts=3, n_xi=4, seed=9, n=200)
    train, _, _ = synth_generate(config)
    path = tmp_path / "canon.csv"
    save_dataset(train, path)
    back = load_canonical(path)
    assert np.array_equal(back.context_idx, train.context_idx)
    assert np.array_equal(back.action_idx, train.action_idx)
    assert np.array_equal(back.xi_idx, train.xi_idx)
    assert np.max(np.abs(back.costs - train.costs)) <= 1e-12
    assert np.max(np.abs(back.contexts.points - train.contexts.points)) <= 1e-12


def test_diagnostics_positive_iff_all_pairs_observed():
    config = canonical_rate_config(n_contexts=2, n_xi=3, seed=2, n=500)
    train, _, _ = synth_generate(config)
    assert train.diagnostics.min_pair_frequency > 0
    assert sum(train.diagnostics.pair_counts.values()) == train.n


def test_synth_zero_shift_keeps_distributions():
    config = canonical_rate_config(n_contexts=3, n_xi=3, seed=4, n=50)
    ctx, xi, behavior, cost_model = apply_shift(config)
    assert ctx is config.context_dist
    assert xi is config.xi_dists
    assert behavior is config.behavior_policy
    assert cost_model is config.cost_model


def test_synth_bit_reproducible():
    config = canonical_rate_config(n_contexts=3, n_xi=3, seed=6, n=300)
    a_train, a_test, _ = synth_generate(config)
    b_train, b_test, _ = synth_generate(config)
    assert np.array_equal(a_train.context_idx, b_train.context_idx)
    assert np.array_equal(a_train.xi_idx, b_train.xi_idx)
    assert np.array_equal(a_test.costs, b_test.costs)


def test_reweighting_shift_matches_hand_computation():
    config = canonical_rate_config(n_contexts=3, n_xi=3, seed=8)
    config = SyntheticConfig(
        **{**config.__dict__, "shift": ShiftSpec(context_scale={0: 0.5})}
    )
    ctx, _, _, _ = apply_shift(config)
    w = config.context_dist.weights
    expected = np.array([0.5 * w[0], w[1], w[2]]) / (0.5 * w[0] + w[1] + w[2])
    assert np.allclose(ctx.weights, expected, atol=1e-15)


def test_invalid_shift_rejected():
    config = canonical_rate_config(n_contexts=3, n_xi=3, seed=8)
    bad = SyntheticConfig(**{**config.__dict__, "shift": ShiftSpec(context_scale={0: -1.0})})
    with pytest.raises(InvalidShift):
        apply_shift(bad)


def _lift(dist, union):
    w = np.zeros(len(union))
    np.add.at(w, match_indices(dist.support.points, union), dist.weights)
    return DiscreteDistribution(union, w)


def test_support_extension_breaks_kl_but_not_transport():
    config = canonical_rate_config(n_contexts=3, n_xi=3, seed=12, n=400)
    shifted = SyntheticConfig(
        **{
            **config.__dict__,
            "shift": ShiftSpec(
                context_extension=(ContextExtension(point=(2.5,), prob=0.3, copy_like=0),)
            ),
            "shift_target": "test",
        }
    )
    train, test, _ = synth_generate(shifted)
    train_emp = train.empirical_context_distribution()
    test_emp = test.empirical_context_distribution()
    assert np.any(test_emp.weights[len(config.context_dist.support):] > 0)
    pts = np.vstack([train_emp.support.points, test_emp.support.points])
    union = SupportSet(np.unique(pts, axis=0))
    train_u, test_u = _lift(train_emp, union), _lift(test_emp, union)
    assert kl_divergence(test_u, train_u) == math.inf
    d, _ = wasserstein_distance(train_u, test_u)
    assert math.isfinite(d)


def test_synthetic_config_json_round_trip():
    obj = {
        "context_points": [[0.0], [1.0]],
        "context_weights": [0.5, 0.5],
        "xi_points": [[0.0], [0.5], [1.0]],
        "xi_weights": [
            [[0.2, 0.5, 0.3], [0.6, 0.2, 0.2]],
            [[0.1, 0.8, 0.1], [0.3, 0.3, 0.4]],
        ],
        "behavior": [[0.5, 0.5], [0.5, 0.5]],
        "n": 100,
        "seed": 3,
        "shift": {"context_scale": {"0": 0.5}},
    }
    config = synthetic_config_from_json(obj)
    assert config.n == 100
    assert config.shift.context_scale == {0: 0.5}
    train, test, truth = synth_generate(config)
    assert train.n == test.n == 100
    assert truth is config  # the true, unshifted distributions
    assert truth.cost_model.y_max == 1.0

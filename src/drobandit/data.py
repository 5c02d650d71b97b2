"""Dataset ingestion, binning, cost construction and synthetic generation.

Raw CSV logs become a :class:`BanditDataset`: integer-indexed records over
explicit context / observation supports. The context support is the full
cross product of the binned levels seen (plus any declared levels), not just
the observed combinations, because the robust solvers take suprema over the
whole known support; an "observed only" mode exists for the sub-support
approximation used when the cross product is unmanageable. Binning comes
only from the schema's "binning" key.

Every CSV input is read once, by :class:`CsvColumns`, as bytes decoded as
UTF-8. A numpy scan of the bytes finds the records and fields; a file
holding a quote character, a NUL or a lone carriage return goes through
``csv.reader`` instead. It rejects bytes that are not UTF-8, a missing
header, a missing required column, a record with more or fewer fields than
the header, a field longer than ``csv.field_size_limit()``, a file without
records, and a value that does not parse (a non-finite number, an
undeclared categorical value or action label, an outcome that is not a
yes/no token) with a DataFormatError, exit code 2 in the CLI, that names the
first bad line.
"""
from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    DatasetDiagnostics,
    DiscreteDistribution,
    SupportSet,
    unique_rows,
)
from .errors import (
    EmptyDataset,
    InstanceTooLarge,
    InvalidShift,
    SchemaMismatch,
    UnparsableRow,
    ValidationError,
)
from .ope import CostModel, Policy
from .transport import MAX_PAIRWISE_CELLS

_EVENT_TOKENS = {**dict.fromkeys(("y", "yes", "true", "t", "1"), True),
                 **dict.fromkeys(("n", "no", "false", "f", "0", ""), False)}


@dataclass(frozen=True)
class BanditDataset:
    """Logged (context, action, observation, cost) tuples with explicit supports."""

    context_idx: np.ndarray
    action_idx: np.ndarray
    xi_idx: np.ndarray
    costs: np.ndarray
    contexts: SupportSet
    actions: tuple
    xi_support: SupportSet
    y_max: float
    diagnostics: DatasetDiagnostics = field(init=False)

    def __post_init__(self):
        for name in ("context_idx", "action_idx", "xi_idx"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        costs = np.asarray(self.costs, dtype=np.float64)
        costs.setflags(write=False)
        object.__setattr__(self, "costs", costs)
        n = len(self.costs)
        if not (len(self.context_idx) == len(self.action_idx) == len(self.xi_idx) == n):
            raise ValidationError("record columns have inconsistent lengths")
        if n == 0:
            raise EmptyDataset("dataset has no records")
        if (
            min(self.context_idx.min(), self.action_idx.min(), self.xi_idx.min()) < 0
            or self.context_idx.max() >= len(self.contexts)
            or self.action_idx.max() >= len(self.actions)
            or self.xi_idx.max() >= len(self.xi_support)
        ):
            raise ValidationError("record indices outside the declared supports")
        if np.any(costs < -1e-12) or np.any(costs > self.y_max + 1e-12):
            raise ValidationError(f"costs must lie in [0, {self.y_max}]")
        object.__setattr__(self, "diagnostics", compute_diagnostics(
            self.context_idx, self.action_idx, len(self.contexts), len(self.actions)))

    @property
    def n(self) -> int:
        return len(self.costs)

    def empirical_context_distribution(self) -> DiscreteDistribution:
        w = np.bincount(self.context_idx, minlength=len(self.contexts)) / self.n
        return DiscreteDistribution(self.contexts, w)


def compute_diagnostics(context_idx, action_idx, n_contexts, n_actions) -> DatasetDiagnostics:
    counts = np.zeros((n_contexts, n_actions), dtype=np.int64)
    np.add.at(counts, (context_idx, action_idx), 1)
    n = int(len(context_idx))
    x, a = np.nonzero(counts)
    pair_counts = dict(zip(zip(x.tolist(), a.tolist()), counts[x, a].tolist()))
    # zero as soon as any pair of the declared grid was never logged
    min_freq = 0.0 if counts.min() == 0 else float(counts.min()) / n
    return DatasetDiagnostics(min_pair_frequency=min_freq, pair_counts=pair_counts, n=n)


# -- binning -------------------------------------------------------------------

@dataclass(frozen=True)
class ColumnBinning:
    """Per-column binning rule: identity, fixed-width, or categorical levels."""

    kind: str = "identity"
    width: float | None = None
    levels: tuple | None = None

    def __post_init__(self):
        if self.kind not in ("identity", "fixed_width", "categorical"):
            raise SchemaMismatch(f"unknown binning kind {self.kind!r}")
        if self.kind == "fixed_width" and not (self.width and self.width > 0):
            raise SchemaMismatch("fixed_width binning needs a positive width")
        if self.kind == "categorical" and not self.levels:
            raise SchemaMismatch("categorical binning needs declared levels")

    def apply(self, raw: str) -> float:
        if self.kind == "categorical":
            if raw not in self.levels:
                raise ValueError(f"value {raw!r} not among declared levels")
            return float(self.levels.index(raw))
        value = finite_float(raw)
        if self.kind == "fixed_width":  # OverflowError if value / width overflows
            return math.floor(value / self.width) * self.width
        return value


def finite_float(raw: str) -> float:
    """`float(raw)`, with nan and infinities rejected by ValueError."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {raw!r}")
    return value


def _event_cost(weight: float):
    """Parser of a yes/no outcome into its cost: `weight` on yes, 0 on no."""
    def parse(raw: str) -> float:
        token = raw.strip().lower()
        if token not in _EVENT_TOKENS:
            raise ValueError(f"cannot parse {raw!r} as a boolean event")
        return weight if _EVENT_TOKENS[token] else 0.0
    return parse


# -- CSV ingestion ---------------------------------------------------------------

_PAD = 8  # zero bytes after the file's, so that every 8-byte read stays inside the buffer
_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)  # the low n bytes


class CsvColumns:
    """A CSV file read once, column by column.

    The file is read as bytes and decoded as UTF-8; bytes that are not UTF-8
    raise :class:`UnparsableRow` naming their line. Reading checks that the
    header holds every one of `columns`, that every record has as many fields
    as the header and that there is a record; blank lines are skipped. Per
    kept column (`columns`, or all of them) it holds each distinct raw string
    once, in order of first appearance, and each record's code into those
    strings.

    Two tokenisers give the same result. The byte scan (:func:`_scan`) finds
    line breaks and commas with numpy and codes each kept column with one
    :func:`numpy.unique` over fixed-width keys of its fields' bytes. It leaves
    to ``csv.reader``, one record at a time (:func:`_read_rows`), any file
    holding a quote character, a NUL or a lone carriage return (quoting is
    the syntax the scan does not parse), a line longer than
    ``csv.field_size_limit()`` (whose check then refuses a field over the
    limit), and a kept column so uneven in width that its keys would take
    more than four times the file's size plus 1 MB.
    """

    def __init__(self, path, columns=None):
        with open(path, "rb") as handle:
            buffer = bytearray(os.fstat(handle.fileno()).st_size + _PAD)
            size = handle.readinto(memoryview(buffer)[:-_PAD])
        if not buffer.isascii():
            try:
                str(memoryview(buffer)[:size], "utf-8")
            except UnicodeDecodeError as exc:
                head = buffer[: exc.start]
                line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
                raise UnparsableRow(line, f"not UTF-8 text: {exc.reason}") from None
        self.header, self._lines, self._columns = (_scan(buffer, size, path, columns)
                                                   or _read_rows(buffer, size, path, columns))
        if not len(self._lines):
            raise EmptyDataset(f"{path} contains a header but no records")

    def parse(self, parsers) -> list:
        """Apply each (column, parse) pair once to every distinct raw string.

        Returns, per pair, the parsed values in order of first appearance and
        each record's index into them. A string that `parse` rejects with
        ValueError or OverflowError raises :class:`UnparsableRow` naming the
        earliest line that holds a rejected string.
        """
        parsed, errors = [], []
        for column, parse in parsers:
            levels, codes = self._columns[column]
            values = []
            for code, raw in enumerate(levels):
                try:
                    values.append(parse(raw))
                except (ValueError, OverflowError) as exc:
                    line = int(self._lines[int(np.argmax(codes == code))])
                    errors.append((line, f"column {column!r}: {exc}"))
            parsed.append((values, codes))
        if errors:
            raise UnparsableRow(*min(errors))
        return parsed

    def expand(self, parsers) -> list:
        """:meth:`parse`, with each column's values expanded to one per record."""
        return [np.asarray(values)[codes] for values, codes in self.parse(parsers)]


def _kept_columns(header, columns, path):
    """The distinct requested columns (all of `header`'s when None) and their positions."""
    if header is None:
        raise EmptyDataset(f"{path} has no header row")
    columns = list(dict.fromkeys(columns or header))
    missing = set(columns) - set(header)
    if missing:
        raise SchemaMismatch(f"columns missing from {path}: {sorted(missing)}")
    return columns, [header.index(column) for column in columns]


def _read_rows(buffer, size, path, columns):
    """(header, record line numbers, {column: (levels, codes)}) from csv.reader."""
    reader = csv.reader(io.StringIO(buffer[:size].decode(), newline=""))
    try:
        header = next(reader, None)
        columns, positions = _kept_columns(header, columns, path)
        tables = [{} for _ in columns]
        codes = [[] for _ in columns]
        lines = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise UnparsableRow(reader.line_num,
                                    f"{len(row)} fields, the header has {len(header)}")
            lines.append(reader.line_num)
            for position, table, code in zip(positions, tables, codes):
                code.append(table.setdefault(row[position], len(table)))
    except csv.Error as exc:  # a field over csv.field_size_limit(), a NUL before 3.11
        raise UnparsableRow(reader.line_num, str(exc)) from None
    return header, np.array(lines, dtype=np.int64), {
        column: (list(table), np.array(code, dtype=np.int64))
        for column, table, code in zip(columns, tables, codes)}


def _scan(buffer, size, path, columns):
    """:func:`_read_rows`' result from numpy scans of the bytes, or None for a
    file the scan leaves to csv.reader (see :class:`CsvColumns`).

    `buffer` holds the file's `size` bytes and `_PAD` zeros. A line ends at
    a newline (a carriage return before it is dropped) or at the end of the
    file; a line is blank when nothing comes before its end. Offsets are
    int32 below 2 GB.
    """
    if buffer.find(b'"', 0, size) >= 0 or buffer.find(b"\0", 0, size) >= 0:
        return None
    data = np.frombuffer(buffer, dtype=np.uint8)
    offset = np.int32 if len(buffer) < 2**31 else np.int64
    ends = np.flatnonzero(data[:size] == ord("\n")).astype(offset)
    if np.count_nonzero(data[:size] == ord("\r")) != np.count_nonzero(data[ends - 1] == ord("\r")):
        return None  # a lone carriage return, one not just before a newline
    if size and data[size - 1] != ord("\n"):
        ends = np.append(ends, offset(size))
    if not len(ends):
        _kept_columns(None, columns, path)
    starts = np.concatenate([np.zeros(1, offset), ends[:-1] + 1])
    ends -= data[ends - 1] == ord("\r")  # at the first line's start, ends - 1 reads a pad byte
    if int((ends - starts).max()) > csv.field_size_limit():
        return None
    commas = np.flatnonzero(data[:size] == ord(",")).astype(offset)
    # a line's commas: those ahead of its end less those ahead of the last's
    fields = np.diff(np.searchsorted(commas, ends), prepend=0).astype(offset) + 1
    fields[starts == ends] = 0
    header = buffer[: ends[0]].decode().split(",") if fields[0] else []
    columns, positions = _kept_columns(header, columns, path)
    width = len(header)
    bad = np.flatnonzero((fields[1:] != width) & (fields[1:] > 0)) + 1
    if len(bad):
        raise UnparsableRow(int(bad[0]) + 1, f"{fields[bad[0]]} fields, the header has {width}")
    records = np.flatnonzero(fields[1:]) + 1
    if not len(records):
        return header, records, {}
    # records hold every comma after the header's width - 1, width - 1 each
    grid = commas[width - 1 :].reshape(len(records), width - 1)
    starts, ends = starts[records], ends[records]
    window = np.ndarray((len(buffer) - 7,), dtype="<u8", buffer=buffer, strides=(1,))
    coded = {}
    for column, p in zip(columns, positions):  # one column's bounds at a time
        start = starts if p == 0 else grid[:, p - 1] + 1
        end = ends if p == width - 1 else grid[:, p]
        if int((end - start).max()) * len(records) > 4 * size + 2**20:
            return None
        coded[column] = _code_fields(buffer, window, start, end)
    return header, records + 1, coded


def _code_fields(buffer, window, start, end):
    """The distinct fields buffer[start:end] in order of first appearance,
    decoded, and each field's code into them.

    A field's key is its bytes in 8-byte words, each read through `window`
    (the buffer as 8-byte integers at every byte offset) and masked to the
    field's length: one integer per field when none is longer than 8 bytes
    (16 bits wide when none is longer than 2: np.unique radix-sorts those),
    a fixed-width byte string otherwise. No field holds a NUL, so equal keys
    are equal fields. np.unique's first indices rank the keys by first
    appearance.
    """
    length = end - start
    longest = int(length.max())
    words = max(1, -(-longest // 8))
    keys = np.empty((len(start), words), dtype="<u8")
    for k in range(words):
        np.bitwise_and(window[start + np.minimum(length, 8 * k)],
                       _MASKS[np.clip(length - 8 * k, 0, 8)], out=keys[:, k])
    if words > 1:
        keys = keys.view(f"S{8 * words}")[:, 0]
    else:
        keys = keys[:, 0].astype(np.uint16) if longest <= 2 else keys[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    levels = [buffer[s:e].decode() for s, e in zip(start[first[order]].tolist(),
                                                    end[first[order]].tolist())]
    return levels, rank[inverse.ravel()]


def load_dataset(path, schema: dict, support: str = "full") -> BanditDataset:
    """Read a raw CSV log into a :class:`BanditDataset`.

    `schema` names the context columns, the action column, and either outcome
    columns with `cost_weights` (costs become weighted event-indicator sums)
    or a single numeric `cost_column`. Binning rules live under the schema's
    "binning" key. `support="full"` builds the context support as the cross
    product of per-column levels, and raises :class:`InstanceTooLarge` when
    it would exceed `transport.MAX_PAIRWISE_CELLS` points; `support="observed"`
    keeps only the combinations actually seen. Both list points in
    lexicographic order.
    """
    try:
        context_columns = list(schema["context_columns"])
        action_column = schema["action_column"]
    except KeyError as exc:
        raise SchemaMismatch(f"schema is missing {exc}") from exc
    if not context_columns:
        raise SchemaMismatch("schema names no context columns")
    outcome_columns = list(schema.get("outcome_columns", []))
    cost_weights = dict(schema.get("cost_weights", {}))
    cost_column = schema.get("cost_column")
    if cost_column is None and not (outcome_columns and cost_weights):
        raise SchemaMismatch("schema needs either cost_column or outcome_columns + cost_weights")
    if support not in ("full", "observed"):
        raise ValidationError(f"support mode must be 'full' or 'observed', got {support!r}")
    declared_actions = [str(a) for a in schema.get("actions", [])]
    binning = schema.get("binning") or {}
    rules = [ColumnBinning(spec.get("kind", "identity"), spec.get("width"),
                           tuple(spec["levels"]) if "levels" in spec else None)
             for spec in (binning.get(column, {}) for column in context_columns)]

    def action_label(raw: str) -> str:
        label = raw.strip()
        if declared_actions and label not in declared_actions:
            raise ValueError(f"action label {label!r} not in schema")
        return label

    cost_parsers = ([(cost_column, finite_float)] if cost_column is not None
                    else [(column, _event_cost(w)) for column, w in cost_weights.items()])
    table = CsvColumns(path, context_columns + [action_column] + outcome_columns
                       + [column for column, _ in cost_parsers])
    parsed = table.parse([(column, rule.apply) for column, rule in zip(context_columns, rules)]
                         + [(action_column, action_label)] + cost_parsers)
    d = len(context_columns)
    (labels, action_codes), cost_parsed = parsed[d], parsed[d + 1:]

    # per-column levels (observed plus declared) and each record's level code
    levels, level_codes = [], []
    for rule, (values, codes) in zip(rules, parsed[:d]):
        values = np.asarray(values, dtype=np.float64)
        declared = np.arange(len(rule.levels)) if rule.kind == "categorical" else []
        levels.append(np.unique(np.concatenate([values, declared])))
        level_codes.append(np.searchsorted(levels[-1], values)[codes])
    if support == "full":
        size = math.prod(len(lv) for lv in levels)
        if size > MAX_PAIRWISE_CELLS:
            raise InstanceTooLarge(f"the full context support has {size} points, more than "
                                   f"{MAX_PAIRWISE_CELLS}; try support='observed'")
        context_idx = np.ravel_multi_index(level_codes, [len(lv) for lv in levels])
        grid = np.meshgrid(*levels, indexing="ij")
        points = np.stack([g.ravel() for g in grid], axis=1)
    else:
        seen, context_idx = unique_rows(np.stack(level_codes, axis=1))
        points = np.stack([lv[c] for lv, c in zip(levels, seen.T)], axis=1)

    actions = tuple(declared_actions) if declared_actions else tuple(sorted(set(labels)))
    action_index = {a: i for i, a in enumerate(actions)}
    action_idx = np.array([action_index[label] for label in labels], dtype=np.int64)

    # summed in schema order, as a per-record loop adding each weight would
    costs = functools.reduce(np.add, (np.asarray(values, dtype=np.float64)[codes]
                                      for values, codes in cost_parsed))
    y_max = float(schema.get("y_max", costs.max() if cost_column is not None
                             else sum(cost_weights.values())))
    xi_values, xi_idx = np.unique(costs, return_inverse=True)

    return BanditDataset(
        context_idx=context_idx,
        action_idx=action_idx[action_codes],
        xi_idx=xi_idx,
        costs=costs,
        contexts=SupportSet(points),
        actions=actions,
        xi_support=SupportSet.from_scalars(xi_values),
        y_max=y_max,
    )


_CANONICAL_COLUMNS = ("context_index", "action_index", "xi_index", "cost")


def write_columns(path, header, columns) -> None:
    """Write a CSV of `header` and one record per position of `columns`,
    equal-length iterables of formatted strings, in one writerows call."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(zip(*columns))


def save_dataset(dataset: BanditDataset, path) -> None:
    """Write the canonical CSV plus a JSON sidecar describing the supports."""
    write_columns(path, _CANONICAL_COLUMNS,
                  [map(str, dataset.context_idx.tolist()), map(str, dataset.action_idx.tolist()),
                   map(str, dataset.xi_idx.tolist()), map(repr, dataset.costs.tolist())])
    sidecar = {
        "contexts": dataset.contexts.points.tolist(),
        "actions": list(dataset.actions),
        "xi_support": dataset.xi_support.points.tolist(),
        "y_max": dataset.y_max,
    }
    with open(sidecar_path(path), "w") as handle:
        json.dump(sidecar, handle, indent=2, sort_keys=True)
        handle.write("\n")


def sidecar_path(path) -> str:
    return f"{path}.meta.json"


def load_canonical(path) -> BanditDataset:
    """Read back a dataset written by :func:`save_dataset`."""
    try:
        with open(sidecar_path(path)) as handle:
            sidecar = json.load(handle)
    except FileNotFoundError as exc:
        raise SchemaMismatch(f"missing sidecar {sidecar_path(path)}") from exc
    context_idx, action_idx, xi_idx, costs = CsvColumns(path, _CANONICAL_COLUMNS).expand(
        [(column, int) for column in _CANONICAL_COLUMNS[:3]] + [("cost", finite_float)])
    return BanditDataset(
        context_idx=context_idx,
        action_idx=action_idx,
        xi_idx=xi_idx,
        costs=costs,
        contexts=SupportSet(np.asarray(sidecar["contexts"], dtype=np.float64)),
        actions=tuple(sidecar["actions"]),
        xi_support=SupportSet(np.asarray(sidecar["xi_support"], dtype=np.float64)),
        y_max=float(sidecar["y_max"]),
    )


# -- synthetic generation ---------------------------------------------------------

@dataclass(frozen=True)
class ContextExtension:
    """A context point added by a shift, with its mass and a template context
    whose cost behaviour the new point copies."""

    point: tuple
    prob: float
    copy_like: int


@dataclass(frozen=True)
class ShiftSpec:
    """Distribution shift: context reweighting, support extension, or a
    per-observation reweighting of every pair's cost distribution."""

    context_scale: dict | None = None
    context_extension: tuple = ()
    xi_scale: dict | None = None


@dataclass(frozen=True)
class SyntheticConfig:
    """Ground truth of a synthetic environment plus the shift to inject."""

    context_dist: DiscreteDistribution
    xi_dists: tuple  # [context][action] -> DiscreteDistribution over xi
    behavior_policy: Policy
    cost_model: CostModel
    n: int
    seed: int
    shift: ShiftSpec | None = None
    shift_target: str = "train"

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("n must be positive")
        if self.shift_target not in ("train", "test"):
            raise ValidationError("shift_target must be 'train' or 'test'")


def _reweight(dist: DiscreteDistribution, scale: dict) -> DiscreteDistribution:
    w = dist.weights.copy()
    for idx, factor in scale.items():
        idx = int(idx)
        if factor < 0:
            raise InvalidShift(f"negative reweighting factor {factor} at index {idx}")
        if not 0 <= idx < len(w):
            raise InvalidShift(f"reweighting index {idx} outside the support")
        w[idx] *= factor
    total = w.sum()
    if total <= 0:
        raise InvalidShift("reweighting removed all probability mass")
    return DiscreteDistribution(dist.support, w / total)


def apply_shift(config: SyntheticConfig):
    """Shifted (context_dist, xi_dists, behavior, cost_model) per the config's shift."""
    shift = config.shift or ShiftSpec()
    context_dist = config.context_dist
    xi_dists = config.xi_dists
    behavior = config.behavior_policy
    cost_model = config.cost_model

    if shift.context_scale:
        context_dist = _reweight(context_dist, shift.context_scale)
    if shift.xi_scale:
        xi_dists = tuple(
            tuple(_reweight(d, shift.xi_scale) for d in per_context)
            for per_context in xi_dists
        )
    if shift.context_extension:
        extra_mass = sum(e.prob for e in shift.context_extension)
        if extra_mass <= 0 or extra_mass >= 1:
            raise InvalidShift("extension mass must lie strictly between 0 and 1")
        pts = [tuple(p) for p in context_dist.support.points]
        new_pts = pts + [tuple(np.atleast_1d(np.asarray(e.point, float)))
                         for e in shift.context_extension]
        support = SupportSet(np.asarray(new_pts, dtype=np.float64))
        w = np.concatenate([
            context_dist.weights * (1.0 - extra_mass),
            [e.prob for e in shift.context_extension],
        ])
        context_dist = DiscreteDistribution(support, w)
        copies = [e.copy_like for e in shift.context_extension]
        for c in copies:
            if not 0 <= c < len(pts):
                raise InvalidShift(f"copy_like index {c} outside the original support")
        xi_dists = tuple(list(xi_dists) + [xi_dists[c] for c in copies])
        behavior = Policy(np.vstack([behavior.probs]
                                    + [behavior.probs[c : c + 1] for c in copies]))
        cost_model = CostModel(
            cost_model.xi_support,
            np.concatenate([cost_model.y] + [cost_model.y[c : c + 1] for c in copies]),
            cost_model.y_max,
        )
    return context_dist, xi_dists, behavior, cost_model


def sample_dataset(context_dist: DiscreteDistribution, xi_dists, behavior: Policy,
                   cost_model: CostModel, n: int, rng: np.random.Generator) -> BanditDataset:
    """Draw n logged records: context, then action, then observation."""
    n_x = len(context_dist.support)
    n_a = behavior.n_actions
    x_idx = rng.choice(n_x, size=n, p=context_dist.weights)
    u = rng.random(n)
    cum = np.cumsum(behavior.probs, axis=1)
    a_idx = (u[:, None] > cum[x_idx]).sum(axis=1)
    xi_idx = np.empty(n, dtype=np.int64)
    for x in range(n_x):
        for a in range(n_a):
            mask = (x_idx == x) & (a_idx == a)
            count = int(mask.sum())
            if count:
                xi_idx[mask] = rng.choice(
                    len(xi_dists[x][a].support), size=count, p=xi_dists[x][a].weights
                )
    costs = cost_model.y[x_idx, a_idx, xi_idx]
    return BanditDataset(
        context_idx=x_idx.astype(np.int64),
        action_idx=a_idx.astype(np.int64),
        xi_idx=xi_idx,
        costs=costs,
        contexts=context_dist.support,
        actions=tuple(f"a{i}" for i in range(n_a)),
        xi_support=cost_model.xi_support,
        y_max=cost_model.y_max,
    )


def canonical_rate_config(n_contexts: int = 6, n_xi: int = 5, n_actions: int = 2,
                          seed: int = 0, n: int = 1) -> SyntheticConfig:
    """A reproducible random environment for convergence experiments.

    Contexts sit on an even grid in [0, 1]; the context distribution and the
    per-pair observation distributions are Dirichlet draws, and costs are the
    observed scalars themselves (identity cost on a [0, 1] grid).
    """
    rng = np.random.default_rng(seed)
    context_support = SupportSet.from_scalars(np.linspace(0.0, 1.0, n_contexts))
    xi_support = SupportSet.from_scalars(np.linspace(0.0, 1.0, n_xi))
    context_dist = DiscreteDistribution(
        context_support, rng.dirichlet(np.full(n_contexts, 5.0))
    )
    xi_dists = tuple(
        tuple(
            DiscreteDistribution(xi_support, rng.dirichlet(np.full(n_xi, 2.0)))
            for _ in range(n_actions)
        )
        for _ in range(n_contexts)
    )
    behavior = Policy(np.full((n_contexts, n_actions), 1.0 / n_actions))
    cost_model = CostModel.identity(xi_support, n_contexts, n_actions, y_max=1.0)
    return SyntheticConfig(
        context_dist=context_dist,
        xi_dists=xi_dists,
        behavior_policy=behavior,
        cost_model=cost_model,
        n=n,
        seed=seed,
    )


def synthetic_config_from_json(obj: dict) -> SyntheticConfig:
    """Build a :class:`SyntheticConfig` from its JSON description."""
    try:
        context_support = SupportSet(np.asarray(obj["context_points"], dtype=np.float64))
        context_dist = DiscreteDistribution(
            context_support, np.asarray(obj["context_weights"], dtype=np.float64)
        )
        xi_support = SupportSet(np.asarray(obj["xi_points"], dtype=np.float64))
        xi_weights = obj["xi_weights"]
        behavior = Policy(np.asarray(obj["behavior"], dtype=np.float64))
        n = int(obj["n"])
        seed = int(obj["seed"])
    except KeyError as exc:
        raise SchemaMismatch(f"synthetic spec is missing {exc}") from exc
    xi_dists = tuple(
        tuple(
            DiscreteDistribution(xi_support, np.asarray(w, dtype=np.float64))
            for w in per_context
        )
        for per_context in xi_weights
    )
    if "y" in obj:
        y_max = float(obj.get("y_max", np.max(obj["y"])))
        cost_model = CostModel(xi_support, np.asarray(obj["y"], dtype=np.float64), y_max)
    else:
        cost_model = CostModel.identity(
            xi_support, len(context_support), behavior.n_actions,
            y_max=obj.get("y_max"),
        )
    shift = None
    if obj.get("shift"):
        raw = obj["shift"]
        shift = ShiftSpec(
            context_scale={int(k): float(v) for k, v in raw.get("context_scale", {}).items()}
            or None,
            context_extension=tuple(
                ContextExtension(tuple(e["point"]), float(e["prob"]), int(e["copy_like"]))
                for e in raw.get("context_extension", [])
            ),
            xi_scale={int(k): float(v) for k, v in raw.get("xi_scale", {}).items()} or None,
        )
    return SyntheticConfig(
        context_dist=context_dist,
        xi_dists=xi_dists,
        behavior_policy=behavior,
        cost_model=cost_model,
        n=n,
        seed=seed,
        shift=shift,
        shift_target=obj.get("shift_target", "train"),
    )


def synth_generate(config: SyntheticConfig):
    """Generate a (train, test, truth) triple, deterministic in the seed.

    The shift is injected into the side named by `shift_target`; the other
    side is drawn from the true distributions. `truth` is `config` itself,
    whose true distributions keep exact policy values computable.
    """
    shifted = apply_shift(config)
    true_side = (config.context_dist, config.xi_dists, config.behavior_policy,
                 config.cost_model)
    rng = np.random.default_rng(config.seed)
    # draw order is fixed: train first, then test
    if config.shift_target == "train":
        train = sample_dataset(*shifted, config.n, rng)
        test = sample_dataset(*true_side, config.n, rng)
    else:
        train = sample_dataset(*true_side, config.n, rng)
        test = sample_dataset(*shifted, config.n, rng)
    return train, test, config

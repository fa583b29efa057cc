"""CSV persistence for workloads and traces, and the workload/trace join.

All files are UTF-8 CSV with a header row, ``.`` decimal separator, times in
seconds with 9 decimal places, byte counts as integers. No cell is quoted: a
worker or file id holding a character csv would quote, or the ``;`` that
separates a job's input files, is refused when written. `workload_lines` and
`trace_lines` build a file's lines, so the rounding of a stored value lives in
their line formats alone. Workload and trace files, or those lines straight
from the builders as the in-memory experiment passes them, are read into
columns by np.loadtxt and joined on packed (simulation_id, job_index) keys,
with no per-row Python object. perfbench and the tests also join lists of row
dicts and TraceRecords, which hold values as generated, not as written.
"""

from __future__ import annotations

import csv
import operator
import re
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .engine import TRACE_FIELDS, TraceRecord
from .errors import JoinError, PreprocessError
from .scenarios import get_scenario
from .workload import JobSpec

WORKLOAD_FIELDS = (
    "simulation_id",
    "job_index",
    "submission_time_s",
    "flops",
    "input_files",
    "input_files_size_bytes",
    "output_files_size_bytes",
    "class_id",
)

TARGET_OBSERVABLES = (
    "compute_time_s",
    "input_files_transfer_time_s",
    "output_files_transfer_time_s",
    "start_time_s",
    "end_time_s",
)


def feature_names(scenario: str) -> tuple[str, ...]:
    return get_scenario(scenario).features


# The workload and trace files are written with one %-format per line, not
# through csv.writer. _check_ids keeps every cell free of characters csv would
# quote, so the bytes, \r\n line ends included, are csv.writer's.
_WORKLOAD_LINE = "%s,%s,%.9f,%r,%s,%d,%d,%s\r\n"
_TRACE_LINE = "%s,%s" + ",%.9f" * 6 + ",%d,%d,%s\r\n"
_UNWRITABLE = re.compile('[,";\r\n]')  # quoted by csv, or the input_files separator
_KEYS = ("simulation_id", "job_index")


def _check_ids(ids: set[str], kind: str) -> None:
    # one search over the concatenation: a single-character match lies in one id
    if _UNWRITABLE.search("".join(ids)):
        bad = sorted(i for i in ids if _UNWRITABLE.search(i))
        raise JoinError(f"{kind} ids {bad[:5]} contain one of , \" ; \\r \\n, "
                        "which the workload and trace files cannot hold")


def workload_lines(jobs: list[JobSpec], input_sizes: dict[str, float]) -> list[str]:
    """The workload file's lines, header first: sizes rounded to whole bytes,
    submission times to nanoseconds, flops as their repr."""
    _check_ids({f for j in jobs for f in j.input_files}, "file")
    return [",".join(WORKLOAD_FIELDS) + "\r\n"] + [_WORKLOAD_LINE % (
        j.simulation_id, j.job_index, j.submission_time_s, j.flops, ";".join(j.input_files),
        round(sum(input_sizes[f] for f in j.input_files)), round(j.output_files_size_bytes),
        j.class_id) for j in jobs]


def trace_lines(traces: list[TraceRecord]) -> list[str]:
    """The trace file's lines, header first: times rounded to nanoseconds,
    byte counts to whole bytes."""
    _check_ids({t.worker_id for t in traces}, "worker")
    return [",".join(TRACE_FIELDS) + "\r\n"] + [_TRACE_LINE % (
        t.simulation_id, t.job_index, t.submission_time_s, t.start_time_s, t.end_time_s,
        t.compute_time_s, t.input_files_transfer_time_s, t.output_files_transfer_time_s,
        round(t.input_bytes), round(t.output_bytes), t.worker_id) for t in traces]


def write_workload_csv(path: str | Path, jobs: list[JobSpec],
                       input_sizes: dict[str, float]) -> None:
    Path(path).write_text("".join(workload_lines(jobs, input_sizes)), "utf-8", newline="")


def write_trace_csv(path: str | Path, traces: list[TraceRecord]) -> None:
    Path(path).write_text("".join(trace_lines(traces)), "utf-8", newline="")


class Columns:
    """A workload or trace file's rows as named column arrays, in file order.

    Bulk code reads `columns`. `len`, iteration and integer indexing build
    rows one at a time (`row(*values)` over the columns in file order) for
    callers that want rows.
    """

    def __init__(self, columns: dict[str, np.ndarray], row):
        self.columns = columns
        self.row = row

    def __len__(self) -> int:
        return len(self.columns["job_index"])

    def __iter__(self):
        return map(self.row, *(c.tolist() for c in self.columns.values()))

    def __getitem__(self, i: int):
        return self.row(*(c.item(i) for c in self.columns.values()))


def _workload_row(*values) -> dict:
    row = dict(zip(WORKLOAD_FIELDS, values))
    row["input_files"] = tuple(f for f in row["input_files"].split(";") if f)
    return row


def _read_lines(path: str | Path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.readlines()


def _body(path: str | Path, lines: list[str], fields: tuple[str, ...]) -> list[str]:
    """The lines after the header, which must be `fields`."""
    header = lines[0].rstrip("\r\n").split(",") if lines else []
    if tuple(header) != fields:
        raise JoinError(f"{path}: header {header} is not {list(fields)}")
    return lines[1:]


def _loadtxt(path: str | Path, rows: list[str], **kwargs) -> np.ndarray:
    """np.loadtxt over CSV rows; a cell it cannot parse raises JoinError."""
    try:
        return np.loadtxt(rows, delimiter=",", comments=None, **kwargs)
    except ValueError as exc:
        raise JoinError(f"{path}: {exc}") from exc


def _read_columns(source: str | Path | list[str], fields: tuple[str, ...],
                  ints: tuple[str, ...], texts: tuple[str, ...]) -> dict[str, np.ndarray]:
    """The columns under the header `fields` of a file, or of a file's lines
    as `workload_lines` and `trace_lines` build them: `ints` as int64, `texts`
    as str objects, the rest as float64.  One np.loadtxt pass parses them all."""
    source, lines = ("lines", source) if isinstance(source, list) else (source, _read_lines(source))
    rows = _body(source, lines, fields)
    dtype = np.dtype([(name, np.int64 if name in ints else object if name in texts
                       else np.float64) for name in fields])
    # np.loadtxt would warn that a header-only input holds no data
    values = _loadtxt(source, rows, dtype=dtype, ndmin=1) if rows else np.empty(0, dtype)
    return {name: values[name] for name in fields}


def read_workload_csv(source: str | Path | list[str]) -> Columns:
    """A workload file, or its `workload_lines`. Rows are dicts keyed by
    WORKLOAD_FIELDS, `input_files` a tuple."""
    return Columns(_read_columns(source, WORKLOAD_FIELDS, _KEYS + ("class_id",),
                                 ("input_files",)), _workload_row)


def read_trace_csv(source: str | Path | list[str]) -> Columns:
    """A trace file, or its `trace_lines`. Rows are TraceRecords."""
    return Columns(_read_columns(source, TRACE_FIELDS, _KEYS, ("worker_id",)), TraceRecord)


@dataclass
class SampleTable:
    """Model-ready rows, ordered by (simulation_id, job_index)."""

    scenario: str
    simulation_ids: np.ndarray  # [n] int64
    job_indices: np.ndarray  # [n] int64
    features: np.ndarray  # [n, F] float64
    targets: np.ndarray  # [n, K] float64
    feature_names: tuple[str, ...]
    target_names: tuple[str, ...] = TARGET_OBSERVABLES

    def __len__(self) -> int:
        return len(self.simulation_ids)

    def simulation_groups(self) -> dict[int, np.ndarray]:
        """Row indices per simulation, rows already sorted by job_index."""
        order = np.argsort(self.simulation_ids, kind="stable")
        uniq, starts = np.unique(self.simulation_ids[order], return_index=True)
        bounds = np.append(starts, len(order))
        return {int(sid): order[a:b]
                for sid, a, b in zip(uniq, bounds[:-1], bounds[1:])}

    @classmethod
    def concat(cls, tables: list["SampleTable"]) -> "SampleTable":
        """Rows of every table in order; names come from the first."""
        first = tables[0]
        return cls(
            scenario=first.scenario,
            simulation_ids=np.concatenate([t.simulation_ids for t in tables]),
            job_indices=np.concatenate([t.job_indices for t in tables]),
            features=np.concatenate([t.features for t in tables]),
            targets=np.concatenate([t.targets for t in tables]),
            feature_names=first.feature_names,
            target_names=first.target_names,
        )


def pack_keys(simulation_ids: np.ndarray, job_indices: np.ndarray) -> np.ndarray:
    """sid << 32 | job_index keys; both must lie in [0, 2**31) to stay distinct."""
    for name, values in (("simulation_id", simulation_ids), ("job_index", job_indices)):
        if values.size and (values.min() < 0 or values.max() >= 2**31):
            raise PreprocessError(f"{name} outside [0, 2**31): cannot key rows by it")
    return (simulation_ids.astype(np.int64) << np.int64(32)) | job_indices


def _key_columns(rows, names: tuple[str, ...], get) -> dict[str, np.ndarray]:
    """Key and `names` columns of a Columns, or of a list of rows read by `get`."""
    if isinstance(rows, Columns):
        return rows.columns
    return {name: np.array([get(r, name) for r in rows],
                           dtype=np.int64 if name in _KEYS else np.float64)
            for name in _KEYS + names}


def _show_keys(keys: np.ndarray) -> str:
    return ", ".join(str((int(k >> 32), int(k & 0xFFFFFFFF))) for k in keys[:10])


def _sorted_keys(columns: dict[str, np.ndarray], side: str) -> tuple[np.ndarray, np.ndarray]:
    """The side's packed keys in ascending order, and the row order that sorts them."""
    try:
        keys = pack_keys(columns["simulation_id"], columns["job_index"])
    except PreprocessError as exc:
        raise JoinError(f"{side} rows: {exc}") from exc
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    repeated = np.unique(keys[1:][keys[1:] == keys[:-1]])
    if repeated.size:
        raise JoinError(f"{repeated.size} duplicated (simulation_id, job_index) keys in the "
                        f"{side} rows; first: {_show_keys(repeated)}")
    return keys, order


def _gather(columns: dict[str, np.ndarray], names: tuple[str, ...],
            order: np.ndarray) -> np.ndarray:
    out = np.empty((len(order), len(names)))
    for j, name in enumerate(names):
        out[:, j] = columns[name][order]
    return out


def join_traces(scenario: str, workload_rows, traces) -> SampleTable:
    """Join workload features with trace observables; lossless, key-checked.

    Either side is a Columns from read_workload_csv / read_trace_csv (the
    CLI's stages and in-memory experiment pass these), or a list of row
    dicts / TraceRecords (perfbench and the tests pass these). Rows match on
    their packed (simulation_id, job_index) keys, which must lie in
    [0, 2**31); a key that repeats on one side or is missing from the other
    raises JoinError.
    """
    feats = feature_names(scenario)
    wl = _key_columns(workload_rows, feats, operator.getitem)
    tr = _key_columns(traces, TARGET_OBSERVABLES, getattr)
    w_keys, w_order = _sorted_keys(wl, "workload")
    t_keys, t_order = _sorted_keys(tr, "trace")
    if not np.array_equal(w_keys, t_keys):
        unmatched = np.setxor1d(w_keys, t_keys, assume_unique=True)
        raise JoinError(f"{len(unmatched)} unmatched (simulation_id, job_index) keys; "
                        f"first: {_show_keys(unmatched)}")
    return SampleTable(
        scenario=scenario,
        simulation_ids=wl["simulation_id"][w_order],
        job_indices=wl["job_index"][w_order],
        features=_gather(wl, feats, w_order),
        targets=_gather(tr, TARGET_OBSERVABLES, t_order),
        feature_names=feats,
    )


def write_samples_csv(path: str | Path, table: SampleTable) -> None:
    # Rows are %-formatted rather than written through csv.writer: every cell
    # is a registry scenario name, an int or a float repr (%r), none of which
    # csv quotes, so the bytes (\r\n line ends included) are the same.
    line = "%s,%d,%d" + ",%r" * (len(table.feature_names) + len(table.target_names)) + "\r\n"
    columns = [table.simulation_ids.tolist(), table.job_indices.tolist(),
               *table.features.T.tolist(), *table.targets.T.tolist()]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(("scenario", "simulation_id", "job_index")
                                + table.feature_names + table.target_names)
        fh.write("".join([line % row for row in zip(repeat(table.scenario), *columns)]))


def read_samples_csv(path: str | Path) -> SampleTable:
    lines = _read_lines(path)
    if len(lines) < 2:
        raise JoinError(f"no sample rows in {path}")
    rows = lines[1:]
    scenario = rows[0].split(",", 1)[0]
    if not all(map(str.startswith, rows, repeat(scenario + ","))):
        scenarios = {row.split(",", 1)[0] for row in rows}
        if len(scenarios) != 1:
            raise JoinError(f"{path}: rows mix scenarios {sorted(scenarios)}")
    feats = feature_names(scenario)
    n_feat = len(feats)
    # by position: a scenario's features may repeat a key column's name
    expected = ("scenario", "simulation_id", "job_index") + feats + TARGET_OBSERVABLES
    _body(path, lines, expected)
    # one float64 parse of every numeric column; keys below 2**53 are exact
    values = _loadtxt(path, rows, dtype=np.float64, usecols=range(1, len(expected)), ndmin=2)
    keys = values[:, :2]
    exact = np.abs(keys) < 2.0**53
    exact &= keys == np.trunc(keys)
    if not exact.all():
        row, col = np.argwhere(~exact)[0]
        raise JoinError(f"{path}: {expected[1 + col]} {float(keys[row, col])!r} in data row "
                        f"{row + 1} is not an integer below 2**53")
    return SampleTable(scenario, keys[:, 0].astype(np.int64), keys[:, 1].astype(np.int64),
                       values[:, 2:2 + n_feat].copy(), values[:, 2 + n_feat:].copy(), feats)

"""CSV persistence for workloads and traces, and the workload/trace join.

All files are UTF-8 CSV with a header row, ``.`` decimal separator, times in
seconds with 9 decimal places, byte counts as integers.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import TRACE_FIELDS, TraceRecord
from .errors import JoinError
from .scenarios import get_scenario
from .workload import DatasetSpec, JobSpec

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


def _fmt_time(x: float) -> str:
    return f"{x:.9f}"


def write_workload_csv(path: str | Path, jobs: list[JobSpec],
                       input_sizes: dict[str, float]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(WORKLOAD_FIELDS)
        for j in jobs:
            size = sum(input_sizes[f] for f in j.input_files)
            w.writerow([
                j.simulation_id,
                j.job_index,
                _fmt_time(j.submission_time_s),
                repr(j.flops),
                ";".join(j.input_files),
                int(round(size)),
                int(round(j.output_files_size_bytes)),
                j.class_id,
            ])


def read_workload_csv(path: str | Path) -> list[dict]:
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for rec in csv.DictReader(fh):
            rows.append({
                "simulation_id": int(rec["simulation_id"]),
                "job_index": int(rec["job_index"]),
                "submission_time_s": float(rec["submission_time_s"]),
                "flops": float(rec["flops"]),
                "input_files": tuple(f for f in rec["input_files"].split(";") if f),
                "input_files_size_bytes": float(rec["input_files_size_bytes"]),
                "output_files_size_bytes": float(rec["output_files_size_bytes"]),
                "class_id": int(rec["class_id"]),
            })
    return rows


def workload_rows(jobs: list[JobSpec], datasets: DatasetSpec) -> list[dict]:
    """Rows in read_workload_csv's layout, straight from generated jobs
    (input sizes are exact sums, not rounded to whole bytes)."""
    sizes = datasets.sizes()
    return [{
        "simulation_id": j.simulation_id,
        "job_index": j.job_index,
        "submission_time_s": j.submission_time_s,
        "flops": j.flops,
        "input_files": j.input_files,
        "input_files_size_bytes": sum(sizes[f] for f in j.input_files),
        "output_files_size_bytes": j.output_files_size_bytes,
        "class_id": j.class_id,
    } for j in jobs]


def write_trace_csv(path: str | Path, traces: list[TraceRecord]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_FIELDS)
        for t in traces:
            w.writerow([
                t.simulation_id,
                t.job_index,
                _fmt_time(t.submission_time_s),
                _fmt_time(t.start_time_s),
                _fmt_time(t.end_time_s),
                _fmt_time(t.compute_time_s),
                _fmt_time(t.input_files_transfer_time_s),
                _fmt_time(t.output_files_transfer_time_s),
                int(round(t.input_bytes)),
                int(round(t.output_bytes)),
                t.worker_id,
            ])


def read_trace_csv(path: str | Path) -> list[TraceRecord]:
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        for rec in csv.DictReader(fh):
            out.append(TraceRecord(
                simulation_id=int(rec["simulation_id"]),
                job_index=int(rec["job_index"]),
                submission_time_s=float(rec["submission_time_s"]),
                start_time_s=float(rec["start_time_s"]),
                end_time_s=float(rec["end_time_s"]),
                compute_time_s=float(rec["compute_time_s"]),
                input_files_transfer_time_s=float(rec["input_files_transfer_time_s"]),
                output_files_transfer_time_s=float(rec["output_files_transfer_time_s"]),
                input_bytes=float(rec["input_bytes"]),
                output_bytes=float(rec["output_bytes"]),
                worker_id=rec["worker_id"],
            ))
    return out


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


def join_traces(scenario: str, workload_rows: list[dict],
                traces: list[TraceRecord]) -> SampleTable:
    """Join workload features with trace observables; lossless, key-checked."""
    wl = {(r["simulation_id"], r["job_index"]): r for r in workload_rows}
    tr = {(t.simulation_id, t.job_index): t for t in traces}
    unmatched = sorted(set(wl) ^ set(tr))
    if unmatched:
        shown = ", ".join(str(k) for k in unmatched[:10])
        raise JoinError(
            f"{len(unmatched)} unmatched (simulation_id, job_index) keys; first: {shown}"
        )
    keys = sorted(wl)
    feats = feature_names(scenario)
    features = np.empty((len(keys), len(feats)))
    targets = np.empty((len(keys), len(TARGET_OBSERVABLES)))
    for i, key in enumerate(keys):
        row, trace = wl[key], tr[key]
        for j, name in enumerate(feats):
            features[i, j] = row[name]
        for j, name in enumerate(TARGET_OBSERVABLES):
            targets[i, j] = getattr(trace, name)
    return SampleTable(
        scenario=scenario,
        simulation_ids=np.asarray([k[0] for k in keys], dtype=np.int64),
        job_indices=np.asarray([k[1] for k in keys], dtype=np.int64),
        features=features,
        targets=targets,
        feature_names=feats,
    )


def write_samples_csv(path: str | Path, table: SampleTable) -> None:
    # Rows are joined by hand rather than through csv.writer: every cell is a
    # registry scenario name, an int or a float repr, none of which csv
    # quotes, so the bytes (\r\n line ends included) are the same.
    keys = zip(table.simulation_ids.tolist(), table.job_indices.tolist())
    values = np.hstack([table.features, table.targets]).tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(("scenario", "simulation_id", "job_index")
                                + table.feature_names + table.target_names)
        fh.write("".join(",".join([table.scenario, str(sid), str(jix), *map(repr, row)])
                         + "\r\n" for (sid, jix), row in zip(keys, values)))


def read_samples_csv(path: str | Path) -> SampleTable:
    with open(path, newline="", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) < 2:
        raise JoinError(f"no sample rows in {path}")
    header = next(csv.reader(lines[:1]))
    rows = lines[1:]
    scenarios = {line.split(",", 1)[0] for line in rows}
    if len(scenarios) != 1:
        raise JoinError(f"{path}: rows mix scenarios {sorted(scenarios)}")
    scenario = scenarios.pop()
    feats = feature_names(scenario)
    n_feat = len(feats)
    expected = ("scenario", "simulation_id", "job_index") + feats + TARGET_OBSERVABLES
    if tuple(header) != expected:
        raise JoinError(f"{path}: header {header} does not match the {scenario} "
                        f"sample columns {list(expected)}")
    try:
        keys = np.loadtxt(rows, dtype=np.int64, delimiter=",", usecols=(1, 2), ndmin=2)
        values = np.loadtxt(rows, dtype=np.float64, delimiter=",",
                            usecols=range(3, len(expected)), ndmin=2)
    except ValueError as exc:
        raise JoinError(f"{path}: {exc}") from exc
    return SampleTable(scenario, keys[:, 0].copy(), keys[:, 1].copy(),
                       values[:, :n_feat].copy(), values[:, n_feat:].copy(), feats)

"""Correctness checks run on every output the benchmark times.

Each check compares against a quantity computed here from the platform spec
or the inputs, or against a property the method must have. None compares
against a stored copy of earlier output. A failed check raises CheckFailed.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import numpy as np

# Traces written to CSV carry 9 decimals and integer byte counts; in-process
# traces are compared with a float tolerance only.
MEMORY_TOL_S = 1e-9
CSV_TOL_S = 1e-8
REL_TOL = 1e-9


class CheckFailed(Exception):
    """An output of the program broke a property the benchmark checks."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def trace_arrays(traces) -> dict[str, np.ndarray]:
    """Column arrays of a trace list, in the list's (job index) order."""
    cols = {name: np.array([getattr(t, name) for t in traces], dtype=float)
            for name in ("submission_time_s", "start_time_s", "end_time_s",
                         "compute_time_s", "input_files_transfer_time_s",
                         "output_files_transfer_time_s", "input_bytes",
                         "output_bytes")}
    cols["job_index"] = np.array([t.job_index for t in traces], dtype=np.int64)
    cols["worker_id"] = np.array([t.worker_id for t in traces])
    return cols


def _route_floor(platform, src: str, dst: str) -> tuple[float, float]:
    """(slowest link or disk bandwidth, summed latency) of one route."""
    nodes = {n.id: n for n in platform.nodes}
    links = {l.id: l for l in platform.links}
    hops = platform.routes[(src, dst)]
    bws = [links[h].bandwidth_bps for h in hops]
    bws += [bw for bw in (nodes[src].disk_read_bw_bps, nodes[dst].disk_write_bw_bps) if bw > 0]
    return min(bws), sum(links[h].latency_s for h in hops)


def check_engine_trace(platform, traces, flops: np.ndarray, tol_s: float) -> None:
    """Per-job timing identities, core limits, FIFO order and transfer floors.

    `flops` holds each job's demand in trace order; `tol_s` absorbs the
    rounding of the trace's storage format.
    """
    c = trace_arrays(traces)
    n = len(c["job_index"])
    require(n > 0, "empty trace")
    require(bool(np.all(np.diff(c["job_index"]) > 0)), "trace rows are not in job index order")
    start, end = c["start_time_s"], c["end_time_s"]
    scale = np.maximum(np.abs(end), 1.0)

    late = c["submission_time_s"] - start
    require(bool(np.all(late <= tol_s)), f"a job starts before its submission (by {late.max():.3g} s)")

    phases = c["input_files_transfer_time_s"] + c["compute_time_s"] + c["output_files_transfer_time_s"]
    gap = np.abs(end - start - phases)
    require(bool(np.all(gap <= 3 * tol_s + REL_TOL * scale)),
            f"end - start differs from input + compute + output by {gap.max():.3g} s")

    speed = {w.id: w.core_speed_flops for w in platform.workers()}
    require(set(c["worker_id"]) <= set(speed), "trace names a worker the platform lacks")
    expected = flops / np.array([speed[w] for w in c["worker_id"]])
    err = np.abs(c["compute_time_s"] - expected)
    require(bool(np.all(err <= tol_s + REL_TOL * expected)),
            f"compute time differs from flops / core speed by {err.max():.3g} s")

    cores = {w.id: w.cores for w in platform.workers()}
    for wid in np.unique(c["worker_id"]):
        on = c["worker_id"] == wid
        times = np.concatenate([start[on], end[on]])
        delta = np.concatenate([np.ones(on.sum()), -np.ones(on.sum())])
        order = np.lexsort((delta, times))  # a core freed at t is free for a start at t
        busy = int(np.cumsum(delta[order]).max())
        require(busy <= cores[wid], f"{wid} runs {busy} jobs on {cores[wid]} cores")

    require(bool(np.all(np.diff(start) >= 0)), "start times decrease with job index (not FIFO)")

    storage = platform.storage_nodes()[0].id
    for wid in np.unique(c["worker_id"]):
        on = c["worker_id"] == wid
        for kind, src, dst in (("input", storage, wid), ("output", wid, storage)):
            bw, latency = _route_floor(platform, src, dst)
            size = c[f"{kind}_bytes"][on]
            took = c[f"{kind}_files_transfer_time_s"][on]
            floor = np.where(size > 0, size / bw + latency, 0.0)
            short = floor - took
            require(bool(np.all(short <= 2 * tol_s + REL_TOL * floor)),
                    f"an {kind} transfer to {wid} beats its route's bandwidth and latency "
                    f"by {short.max():.3g} s")


def storage_uplink_bw(platform) -> float:
    """Bandwidth of the links every route to or from storage crosses."""
    storage = platform.storage_nodes()[0].id
    shared = None
    for (src, dst), hops in platform.routes.items():
        if storage in (src, dst):
            shared = set(hops) if shared is None else shared & set(hops)
    require(bool(shared), "no link is shared by every storage route")
    return min(l.bandwidth_bps for l in platform.links if l.id in shared)


def makespan_s(traces) -> float:
    return max(t.end_time_s for t in traces) - min(t.submission_time_s for t in traces)


def check_uplink_bound(platform, traces) -> None:
    """Every byte crosses the storage uplink, so it bounds the makespan."""
    total = sum(t.input_bytes + t.output_bytes for t in traces)
    floor = total / storage_uplink_bw(platform)
    span = makespan_s(traces)
    require(span >= floor * (1 - REL_TOL),
            f"makespan {span:.6g} s is below bytes / uplink bandwidth {floor:.6g} s")


def peak_transfers(traces) -> int:
    """Most transfers in flight at once, from the trace's transfer intervals."""
    c = trace_arrays(traces)
    opens = [c["start_time_s"], c["end_time_s"] - c["output_files_transfer_time_s"]]
    closes = [c["start_time_s"] + c["input_files_transfer_time_s"], c["end_time_s"]]
    moving = [c["input_files_transfer_time_s"] > 0, c["output_files_transfer_time_s"] > 0]
    times = np.concatenate([o[m] for o, m in zip(opens, moving)]
                           + [x[m] for x, m in zip(closes, moving)])
    n_open = sum(int(m.sum()) for m in moving)
    delta = np.concatenate([np.ones(n_open), -np.ones(len(times) - n_open)])
    order = np.lexsort((delta, times))
    return int(np.cumsum(delta[order]).max()) if len(times) else 0


def trace_digest(traces) -> str:
    """Digest of a trace list; repr round-trips every float exactly."""
    return hashlib.sha256(repr(traces).encode("utf-8")).hexdigest()


def check_identical(first, again, what: str) -> None:
    require(first == again, f"repeated {what} is not bit-identical")


def _as_written(x: float) -> float:
    return float(f"{x:.9f}")


def check_csv_matches(read_back, reference, sim_id: int) -> None:
    """A trace read from CSV equals an in-process trace in the 9-decimal format."""
    require(len(read_back) == len(reference), f"simulation {sim_id}: row count differs")
    for got, ref in zip(read_back, reference):
        same = (
            got.simulation_id == ref.simulation_id
            and got.job_index == ref.job_index
            and got.worker_id == ref.worker_id
            and got.input_bytes == float(int(round(ref.input_bytes)))
            and got.output_bytes == float(int(round(ref.output_bytes)))
            and all(getattr(got, f) == _as_written(getattr(ref, f))
                    for f in ("submission_time_s", "start_time_s", "end_time_s",
                              "compute_time_s", "input_files_transfer_time_s",
                              "output_files_transfer_time_s"))
        )
        require(same, f"simulation {sim_id} job {ref.job_index}: CSV trace differs "
                      "from the serial in-process run")


def check_finite(preds: np.ndarray, what: str) -> None:
    require(bool(np.all(np.isfinite(preds))), f"{what}: non-finite prediction")


def row_positions(table, keys: np.ndarray) -> np.ndarray:
    """Row index of each (simulation_id, job_index) pair in `table`."""
    where = {(int(s), int(j)): i for i, (s, j) in
             enumerate(zip(table.simulation_ids, table.job_indices))}
    return np.array([where[(int(s), int(j))] for s, j in keys])


def check_matches_autodiff(preds, table, slow_windows_out, provenance, mask, target_std,
                           what: str) -> None:
    """predict_rows agrees with the autodiff forward on the sampled windows.

    `slow_windows_out` is the autodiff forward's output for windows whose row
    keys are `provenance` [n, W, 2]; padded positions are skipped.
    """
    keys = provenance[mask]
    expected = target_std.inverse_transform(slow_windows_out[mask])
    got = preds[row_positions(table, keys)]
    scale = np.abs(expected).max(axis=0) + 1.0
    err = np.abs(got - expected) / scale
    require(bool(np.all(err <= 1e-9)),
            f"{what}: predict_rows differs from the autodiff forward by {err.max():.3g} (relative)")


def check_permutation(preds_a, table_a, preds_b, table_b, what: str) -> None:
    """Reordering whole simulations reorders the predictions and nothing else."""
    keys = np.stack([table_a.simulation_ids, table_a.job_indices], axis=1)
    require(np.array_equal(preds_b[row_positions(table_b, keys)], preds_a),
            f"{what}: predictions change when simulations are reordered")


def r_squared(pred: np.ndarray, actual: np.ndarray) -> float:
    return 1.0 - float(((actual - pred) ** 2).sum()) / float(((actual - actual.mean()) ** 2).sum())


def read_r2_csv(path: Path) -> dict[str, float]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return {name: float(value) for name, value in rows}


def check_r2_report(reported: dict[str, float], preds: np.ndarray, table, what: str) -> None:
    """The stage's R² equals R² computed here from predict_rows."""
    require(list(reported) == list(table.target_names), f"{what}: R² report names differ")
    for j, name in enumerate(table.target_names):
        own = r_squared(preds[:, j], table.targets[:, j])
        require(abs(own - reported[name]) <= 1e-9 * max(1.0, abs(own)),
                f"{what}: reported R²[{name}] = {reported[name]!r}, recomputed {own!r}")

"""Deterministic flow-level simulator of job execution on a platform.

Jobs are dispatched FIFO to the worker with the most free cores (ties by node
id), hold one core through three sequential phases (input transfer, compute,
output transfer), and release it at the end.  Concurrent transfers split each
link's bandwidth equally.  A transfer's rate is the minimum over its route
links' shares and the endpoint disk bandwidths; the summed route latency is
added once, after the bytes have been serviced.

Rates are computed when next read, not at each transfer start or finish: a
start or finish only marks them stale, and `run` recomputes them at the top of
a loop pass, before the next-completion scan, and in a completion pass before
a route's tolerance is taken, after an earlier finish in that pass.  This is
exact.  A rate is a pure function of the current link loads, caps and
bandwidths, nothing reads one between a start and the next scan, and that
tolerance is the only rate a completion pass reads after a finish.  On the
homogeneous preset a completion pass finishes about 30 transfers, so a 10k run
computes rates 21,000 times for its 40,000 transfer starts and finishes.

Transfers sharing the same ordered (source, destination) pair always have the
same rate, so they are tracked per route as fluid progress against absolute
byte thresholds.  This keeps each event O(#routes) instead of O(#transfers).

Submissions are read through a cursor over the jobs sorted by (submission
time, job index) and go first at equal times.  Everything else is a heap event
naming its job, run at equal times in order of kind, then job index:
EV_TRANSFER_DONE (an input's latency is over: start the next input or the
compute), EV_COMPUTE_DONE (start the output) and EV_OUTPUT_DONE (record the
trace, free the core).  Transfers are finished before events due at once.

A loop pass scans the routes for the next completion, advances progress to it
or to the next submission or event, and runs that.  Two rules run more of an
instant in one pass, with the traces that one pass per item gives:
- Once a submission finds every core busy, the others due at that instant
  queue at once: no heap event due then can free a core before them, and
  queueing touches no flow.
- After a pass that advanced no time, heap events due at that instant run back
  to back while none opens a transfer: only a start, a completion or an advance
  changes flows, rates or progress, so the pass's scan still holds.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, fields
from heapq import heappop, heappush

from .errors import SimulationError
from .platform import PlatformSpec
from .workload import DatasetSpec, JobSpec, slot_init

# Heap event kinds in tie-break order (submissions go before all of them).
EV_TRANSFER_DONE = 2
EV_COMPUTE_DONE = 3
EV_OUTPUT_DONE = 4


@slot_init
@dataclass(frozen=True, slots=True)
class TraceRecord:
    simulation_id: int
    job_index: int
    submission_time_s: float
    start_time_s: float
    end_time_s: float
    compute_time_s: float
    input_files_transfer_time_s: float
    output_files_transfer_time_s: float
    input_bytes: float
    output_bytes: float
    worker_id: str


TRACE_FIELDS = tuple(f.name for f in fields(TraceRecord))


@dataclass(slots=True, eq=False)
class _RouteFlow:
    links: tuple[int, ...]  # positions in the platform's link list
    cap: float
    latency: float
    progress: float = 0.0
    rate: float = 0.0
    # (threshold, seq, job, size, is_output, audit cell: [bytes moved] or None)
    pending: list[tuple] = field(default_factory=list)


@dataclass(slots=True, eq=False)
class _JobState:
    spec: JobSpec
    index: int
    next_file: int = 0  # position in spec.input_files of the next input
    worker: str | None = None
    start: float = 0.0
    input_time: float = 0.0
    compute_time: float = 0.0
    output_started: float = 0.0
    input_bytes: float = 0.0


class _Simulation:
    def __init__(self, platform: PlatformSpec, jobs: list[JobSpec],
                 datasets: DatasetSpec, audit: bool):
        self.platform = platform
        self.audit = audit
        self.nodes = {n.id: n for n in platform.nodes}
        # Link state is indexed by the link's position in platform.links.
        self.link_index = {l.id: i for i, l in enumerate(platform.links)}
        self.link_bw = [l.bandwidth_bps for l in platform.links]
        self.link_latency = [l.latency_s for l in platform.links]
        self.link_load = [0] * len(platform.links)
        # (src, dst) -> (link indices, disk cap, summed latency), filled on first use
        self.route_facts: dict[tuple[str, str], tuple[tuple[int, ...], float, float]] = {}
        self.file_size = {f.file_id: f.size_bytes for f in datasets.files}
        self.file_loc = {f.file_id: f.location for f in datasets.files}
        for j in jobs:
            for fid in j.input_files:
                if fid not in self.file_size:
                    raise SimulationError(f"job {j.job_index} of simulation {j.simulation_id} "
                                          f"references missing input file {fid!r}")
        # where a job without input files writes its output (None: its worker)
        self.output_dest = next((n.id for n in platform.storage_nodes()), None)
        self.jobs = [_JobState(j, j.job_index) for j in sorted(jobs, key=lambda j: j.job_index)]
        self.submissions = sorted(self.jobs, key=lambda j: j.spec.submission_time_s)  # stable
        workers = sorted(platform.workers(), key=lambda w: w.id)
        self.worker_ids = [w.id for w in workers]
        self.free_cores = {w.id: w.cores for w in workers}
        self.queue: deque[_JobState] = deque()
        # (when, kind, job index, seq, job); seq is unique, so jobs are never compared
        self.heap: list[tuple[float, int, int, int, _JobState]] = []
        self.seq = self.started = 0  # the last seq given out; transfers opened so far
        self.now = 0.0
        self.flows: dict[tuple[str, str], _RouteFlow] = {}
        self.stale = False  # a transfer started or finished since the rates were set
        self.traces: dict[int, TraceRecord] = {}

    # Transfer plumbing ----------------------------------------------------
    def _recompute_rates(self) -> None:
        bw, load = self.link_bw, self.link_load
        for flow in self.flows.values():
            share = flow.cap
            for i in flow.links:
                s = bw[i] / load[i]
                if s < share:
                    share = s
            flow.rate = share
        self.stale = False

    def _route(self, src: str, dst: str) -> tuple[tuple[int, ...], float, float]:
        links = self.platform.routes.get((src, dst))
        if links is None:
            raise SimulationError(f"no route between nodes {src!r} and {dst!r}")
        disks = (self.nodes[src].disk_read_bw_bps, self.nodes[dst].disk_write_bw_bps)
        cap = min((bw for bw in disks if bw > 0), default=float("inf"))
        idx = tuple(self.link_index[l] for l in links)
        return idx, cap, sum(self.link_latency[i] for i in idx)

    def _start_transfer(self, job: _JobState, src: str, dst: str, size: float,
                        is_output: bool) -> bool:
        """Open a transfer; False when it is local or empty and costs nothing."""
        if src == dst or size <= 0.0:
            return False
        key = (src, dst)
        flow = self.flows.get(key)
        if flow is None:
            facts = self.route_facts.get(key)
            if facts is None:
                facts = self.route_facts[key] = self._route(src, dst)
            flow = self.flows[key] = _RouteFlow(*facts)
        load = self.link_load
        for i in flow.links:
            load[i] += 1
        self.seq += 1
        self.started += 1
        heappush(flow.pending, (flow.progress + size, self.seq, job, size, is_output,
                                [0.0] if self.audit else None))
        self.stale = True
        return True

    def _finish_transfer(self, key: tuple[str, str], flow: _RouteFlow, xfer: tuple,
                         tol: float) -> None:
        """Close a transfer that `run` found within `tol` bytes of its threshold."""
        _, _, job, size, is_output, moved = xfer
        load = self.link_load
        for i in flow.links:
            load[i] -= 1
        if not flow.pending:
            del self.flows[key]
        self.stale = True
        # A transfer is credited the rate * dt its route moved while it was
        # pending, the same sum that advanced the route's progress past its
        # threshold (progress at start + size).  The completion test lets
        # progress stop up to tol short of the threshold, one advance can pass
        # it by its rounding, and the threshold, the advances and the credit
        # all round relative to the route's progress and clock, not to the
        # transfer's size: so the credit lies within tol plus a few ulp of
        # progress of the size, however small the transfer.
        if moved is not None and abs(moved[0] - size) > tol + 4.0 * math.ulp(flow.progress):
            raise SimulationError(
                f"work conservation violated: transferred {moved[0]} of {size} bytes"
            )
        # Latency is charged once, after the bytes are through.
        self.seq += 1
        heappush(self.heap, (self.now + flow.latency,
                             EV_OUTPUT_DONE if is_output else EV_TRANSFER_DONE,
                             job.index, self.seq, job))

    # Scheduling -----------------------------------------------------------
    def _try_dispatch(self) -> None:
        queue, free_cores = self.queue, self.free_cores
        while queue:
            # the first worker, in id order, with the most free cores
            best, most = None, 0
            for wid, free in free_cores.items():
                if free > most:
                    best, most = wid, free
            if best is None:
                return
            job = queue.popleft()
            free_cores[best] -= 1
            job.worker = best
            job.start = self.now
            self._next_input(job)

    def _next_input(self, job: _JobState) -> None:
        """Start the job's next remote input file, or its compute if none is left."""
        files = job.spec.input_files
        while job.next_file < len(files):
            fid = files[job.next_file]
            job.next_file += 1
            size = self.file_size[fid]
            job.input_bytes += size
            if self._start_transfer(job, self.file_loc[fid], job.worker, size, False):
                return
        job.input_time = self.now - job.start
        job.compute_time = job.spec.flops / self.nodes[job.worker].core_speed_flops
        self.seq += 1
        heappush(self.heap, (self.now + job.compute_time, EV_COMPUTE_DONE, job.index,
                             self.seq, job))

    def _compute_done(self, job: _JobState) -> None:
        job.output_started = self.now
        inputs = job.spec.input_files
        dest = self.file_loc[inputs[0]] if inputs else self.output_dest or job.worker
        if not self._start_transfer(job, job.worker, dest,
                                    job.spec.output_files_size_bytes, True):
            self._output_done(job)

    def _output_done(self, job: _JobState) -> None:
        spec, now = job.spec, self.now
        self.traces[job.index] = TraceRecord(
            spec.simulation_id, job.index, spec.submission_time_s, job.start, now,
            job.compute_time, job.input_time, now - job.output_started, job.input_bytes,
            spec.output_files_size_bytes, job.worker)
        self.free_cores[job.worker] += 1
        self._try_dispatch()

    def _audit_cores(self) -> None:
        for wid in self.worker_ids:
            free = self.free_cores[wid]
            if not 0 <= free <= self.nodes[wid].cores:
                raise SimulationError(f"core conservation violated on {wid}: {free}")

    # Main loop ------------------------------------------------------------
    def run(self) -> list[TraceRecord]:
        heap, flows, queue, audit, inf = self.heap, self.flows, self.queue, self.audit, math.inf
        active = flows.values()  # a live view
        subs, cursor, n_subs = self.submissions, 0, len(self.submissions)  # subs[cursor] is next
        sub_times = [j.spec.submission_time_s for j in subs] + [inf]  # with an end sentinel
        while heap or flows or cursor < n_subs:
            if self.stale:
                self._recompute_rates()
            now = self.now
            t_fluid = inf
            for flow in active:
                rate = flow.rate
                if rate > 0:
                    t = now + (flow.pending[0][0] - flow.progress) / rate
                    if t < t_fluid:
                        t_fluid = t
            t_sub = sub_times[cursor]
            t_event = heap[0][0] if heap else inf
            if t_sub <= t_event:  # submissions go first at equal times
                t_event = t_sub
            t = t_event if t_event < t_fluid else t_fluid
            if t == inf:
                raise SimulationError("simulation stalled with pending work")
            dt = t - now
            if dt > 0:
                for flow in active:
                    flow.progress += flow.rate * dt
                if audit:
                    for flow in active:
                        for xfer in flow.pending:
                            xfer[5][0] += flow.rate * dt
            self.now = t
            if t_fluid <= t_event:
                # Complete every transfer whose threshold has been reached.
                # Tolerance covers accumulated rounding plus the bytes a flow
                # can move within one representable time step; without the
                # rate term a sub-ulp deficit can never be closed and the loop
                # would spin at a frozen clock.
                step = math.ulp(max(t, 1.0))
                for key, flow in list(flows.items()):
                    if self.stale:  # an earlier route's finish changed the loads
                        self._recompute_rates()
                    pending = flow.pending
                    tol = 1e-6 + 1e-12 * abs(flow.progress) + flow.rate * step
                    while pending and pending[0][0] <= flow.progress + tol:
                        self._finish_transfer(key, flow, heappop(pending), tol)
            elif t_sub == t:
                queue.append(subs[cursor])
                cursor += 1
                self._try_dispatch()
                if queue:  # every core is busy: this instant's other submissions queue
                    while sub_times[cursor] == t:
                        queue.append(subs[cursor])
                        cursor += 1
            else:
                started = self.started
                while True:
                    _, kind, _, _, job = heappop(heap)
                    if kind == EV_TRANSFER_DONE:
                        self._next_input(job)
                    elif kind == EV_COMPUTE_DONE:
                        self._compute_done(job)
                    else:
                        self._output_done(job)
                    # go on only while the scan holds: no time advanced, no transfer opened
                    if dt > 0 or self.started != started or not heap or heap[0][0] != t:
                        break
                    if audit:
                        self._audit_cores()
            if audit:
                self._audit_cores()
        missing = [j.index for j in self.jobs if j.index not in self.traces]
        if missing:
            raise SimulationError(f"jobs never completed: {missing[:10]}")
        return [self.traces[j.index] for j in self.jobs]


def run_simulation(platform: PlatformSpec, jobs: list[JobSpec],
                   datasets: DatasetSpec, audit: bool = False) -> list[TraceRecord]:
    """Execute a workload, returning one TraceRecord per job in index order."""
    return _Simulation(platform, jobs, datasets, audit).run()


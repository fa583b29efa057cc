import dataclasses
import hashlib
import inspect
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simsurrogate.engine import _Simulation, run_simulation
from simsurrogate.errors import SimulationError
from simsurrogate.evaluate import speedup_row, time_call
from simsurrogate.platform import (
    LinkSpec,
    NodeSpec,
    PlatformSpec,
    builtin_platform,
    validate_platform,
)
from simsurrogate.workload import DatasetSpec, FileSpec, JobSpec, generate_workload


def single_worker_platform(cores=1, core_speed=1.2e10, link_bw=1.25e8,
                           latency=1e-4, disk_bw=2.5e8):
    spec = PlatformSpec(
        nodes=(
            NodeSpec("w0", "worker", cores=cores, core_speed_flops=core_speed),
            NodeSpec("s0", "storage", disk_read_bw_bps=disk_bw, disk_write_bw_bps=disk_bw),
        ),
        links=(LinkSpec("l0", link_bw, latency),),
        routes={("s0", "w0"): ("l0",), ("w0", "s0"): ("l0",)},
    )
    validate_platform(spec)
    return spec


def job(idx, flops=2.4e11, files=(), out=0.0, sub=0.0, sim=0):
    return JobSpec(simulation_id=sim, job_index=idx, submission_time_s=sub,
                   flops=flops, input_files=tuple(files),
                   output_files_size_bytes=out, class_id=0)


def dataset(*files):
    return DatasetSpec(files=tuple(FileSpec(fid, size, "s0") for fid, size in files))


def record_cases():
    """One of each record type, the trace record from a real run."""
    jobs = [job(0, files=("a",), out=1e6, sub=0.5)]
    data = dataset(("a", 2e8))
    trace = run_simulation(single_worker_platform(), jobs, data)[0]
    return [jobs[0], data.files[0], data, trace]


RECORD_REPRS = (
    "JobSpec(simulation_id=0, job_index=0, submission_time_s=0.5, flops=240000000000.0, "
    "input_files=('a',), output_files_size_bytes=1000000.0, class_id=0)",
    "FileSpec(file_id='a', size_bytes=200000000.0, location='s0')",
    "DatasetSpec(files=(FileSpec(file_id='a', size_bytes=200000000.0, location='s0'),))",
    "TraceRecord(simulation_id=0, job_index=0, submission_time_s=0.5, start_time_s=0.5, ",
)


@pytest.mark.parametrize("index", range(4), ids=["JobSpec", "FileSpec", "DatasetSpec",
                                                  "TraceRecord"])
def test_records_are_slotted_frozen_values(index):
    """Jobs, files, datasets and trace records carry no per-instance dict,
    and compare, hash, copy, print and pickle (parallel simulate ships traces
    between processes) as frozen dataclasses do."""
    record = record_cases()[index]
    names = [f.name for f in dataclasses.fields(record)]
    values = tuple(getattr(record, n) for n in names)
    assert not hasattr(record, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, names[0], values[0])
    # an unknown name is refused too; CPython's frozen slotted __setattr__
    # reports it as a TypeError from super() rather than FrozenInstanceError
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        record.extra = 1
    assert repr(record).startswith(RECORD_REPRS[index])
    assert hash(record) == hash(values)
    same = dataclasses.replace(record)
    assert same is not record and same == record and hash(same) == hash(record)
    assert repr(same) == repr(record)
    assert dataclasses.replace(record, **{names[-1]: None}) != record
    assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("index", [0, 1, 3], ids=["JobSpec", "FileSpec", "TraceRecord"])
def test_slot_init_matches_the_dataclass_init(index):
    """The generated __init__ takes the dataclass's arguments, by position or by
    name, and refuses a wrong call with the dataclass's TypeError."""
    record = record_cases()[index]
    cls = type(record)
    plain = dataclasses.make_dataclass(
        cls.__name__, [(f.name, f.type) for f in dataclasses.fields(cls)],
        frozen=True, slots=True)
    assert inspect.signature(cls) == inspect.signature(plain)
    names = [f.name for f in dataclasses.fields(cls)]
    values = [getattr(record, n) for n in names]
    assert cls(*values) == record
    assert cls(**dict(zip(reversed(names), reversed(values)))) == record
    assert cls(*values[:2], **dict(zip(names[2:], values[2:]))) == record
    bad_calls = [((), {}), (values[:-1], {}), ((*values, 0), {}),
                 (values, {"extra": 0}), (values, {names[0]: values[0]})]
    for args, kwargs in bad_calls:
        errors = []
        for kind in (cls, plain):
            with pytest.raises(TypeError) as caught:
                kind(*args, **kwargs)
            errors.append(str(caught.value))
        assert errors[0] == errors[1]


def test_single_job_compute_closed_form():
    platform = single_worker_platform()
    traces = run_simulation(platform, [job(0)], dataset(), audit=True)
    assert len(traces) == 1
    t = traces[0]
    assert math.isclose(t.compute_time_s, 2.4e11 / 1.2e10, rel_tol=1e-9)
    assert t.input_files_transfer_time_s == 0.0
    assert t.output_files_transfer_time_s == 0.0
    assert math.isclose(t.end_time_s - t.start_time_s, t.compute_time_s, rel_tol=1e-9)


def test_single_transfer_closed_form():
    platform = single_worker_platform()
    traces = run_simulation(platform, [job(0, files=["f0"])],
                            dataset(("f0", 1e9)), audit=True)
    t = traces[0]
    assert math.isclose(t.input_files_transfer_time_s, 1e-4 + 1e9 / 1.25e8, rel_tol=1e-9)


def test_disk_bandwidth_caps_transfer():
    platform = single_worker_platform(disk_bw=1e7)  # slower than the link
    traces = run_simulation(platform, [job(0, files=["f0"])], dataset(("f0", 1e8)))
    t = traces[0]
    assert math.isclose(t.input_files_transfer_time_s, 1e-4 + 1e8 / 1e7, rel_tol=1e-9)


def test_two_equal_transfers_fair_share():
    platform = single_worker_platform(cores=2, disk_bw=1e12)
    jobs = [job(0, files=["f0"]), job(1, files=["f1"])]
    traces = run_simulation(platform, jobs, dataset(("f0", 5e8), ("f1", 5e8)), audit=True)
    expected = 1e-4 + 2 * 5e8 / 1.25e8
    for t in traces:
        assert math.isclose(t.input_files_transfer_time_s, expected, rel_tol=1e-9)


def test_output_transfer_recorded():
    platform = single_worker_platform()
    traces = run_simulation(platform, [job(0, out=1e8)], dataset())
    t = traces[0]
    assert math.isclose(t.output_files_transfer_time_s, 1e-4 + 1e8 / 1.25e8, rel_tol=1e-9)


def test_phase_additivity():
    platform = builtin_platform("heterogeneous")
    jobs, ds = generate_workload("heterogeneous", 60, 0, 17)
    for t in run_simulation(platform, jobs, ds, audit=True):
        total = (t.input_files_transfer_time_s + t.compute_time_s
                 + t.output_files_transfer_time_s)
        assert abs((t.end_time_s - t.start_time_s) - total) < 1e-9
        assert t.submission_time_s <= t.start_time_s <= t.end_time_s


def test_empty_job_list():
    assert run_simulation(single_worker_platform(), [], dataset()) == []


def test_determinism():
    platform = builtin_platform("heterogeneous")
    jobs, ds = generate_workload("heterogeneous", 80, 0, 3)
    assert run_simulation(platform, jobs, ds) == run_simulation(platform, jobs, ds)


@pytest.mark.parametrize("cores", [1, 2, 12, 24])
@pytest.mark.parametrize("n", [1, 7, 24, 50])
def test_wave_oracle(n, cores):
    # n identical zero-submission compute-only jobs on one c-core worker
    # must finish in ceil(n/c) waves.
    platform = single_worker_platform(cores=cores, core_speed=1e9)
    flops = 5e9
    wave_len = flops / 1e9
    jobs = [job(i, flops=flops) for i in range(n)]
    traces = run_simulation(platform, jobs, dataset(), audit=True)
    # brute-force wave oracle: job i runs in wave i // cores
    for t in traces:
        wave = t.job_index // cores
        assert math.isclose(t.start_time_s, wave * wave_len, rel_tol=0, abs_tol=1e-9)
        assert math.isclose(t.end_time_s, (wave + 1) * wave_len, rel_tol=1e-9)
    n_waves = len({round(t.end_time_s, 6) for t in traces})
    assert n_waves == math.ceil(n / cores)


def test_scheduler_prefers_most_free_cores():
    spec = PlatformSpec(
        nodes=(
            NodeSpec("a", "worker", cores=1, core_speed_flops=1e9),
            NodeSpec("b", "worker", cores=3, core_speed_flops=1e9),
            NodeSpec("s0", "storage", disk_read_bw_bps=2.5e8,
                     disk_write_bw_bps=2.5e8),
        ),
        links=(LinkSpec("la", 1.25e8, 0.0), LinkSpec("lb", 1.25e8, 0.0),
               LinkSpec("ls", 1.25e8, 0.0)),
        routes={("s0", "a"): ("ls", "la"), ("a", "s0"): ("la", "ls"),
                ("s0", "b"): ("ls", "lb"), ("b", "s0"): ("lb", "ls")},
    )
    traces = run_simulation(spec, [job(0), job(1)], dataset())
    assert traces[0].worker_id == "b"  # 3 free cores beats 1
    assert traces[1].worker_id == "b"  # still 2 free after first dispatch


def test_missing_input_file_error():
    with pytest.raises(SimulationError, match="missing input file 'ghost'"):
        run_simulation(single_worker_platform(), [job(0, files=["ghost"])], dataset())


def test_unroutable_transfer_error():
    platform = single_worker_platform()
    routes = dict(platform.routes)
    del routes[("s0", "w0")]
    broken = PlatformSpec(platform.nodes, platform.links, routes)
    with pytest.raises(SimulationError, match="no route between nodes 's0' and 'w0'"):
        run_simulation(broken, [job(0, files=["f0"])], dataset(("f0", 1e8)))


def test_stalled_transfer_raises_simulation_error(monkeypatch):
    """A transfer that never progresses and no event left to wait for is a
    stall: a typed error, not a silent hang or a bare assertion."""
    def zero_rates(self):
        for flow in self.flows.values():
            flow.rate = 0.0

    monkeypatch.setattr(_Simulation, "_recompute_rates", zero_rates)
    with pytest.raises(SimulationError, match="stalled"):
        run_simulation(single_worker_platform(), [job(0, files=["f0"])],
                       dataset(("f0", 1e8)))


def test_bench_rows_schema():
    platform = builtin_platform("homogeneous")
    rows = []
    for n in (1, 10):
        jobs, datasets = generate_workload("homogeneous", n, 0, 1)
        traces, seconds = time_call(lambda: run_simulation(platform, jobs, datasets), 1)
        assert len(traces) == n
        rows.append(speedup_row("homogeneous", n, seconds, 1.0))
    assert [r["n_jobs"] for r in rows] == [1, 10]
    for r in rows:
        assert set(r) == {"scenario", "n_jobs", "simulator_seconds", "surrogate_seconds",
                          "speedup"}
        assert r["simulator_seconds"] > 0


def test_mixed_inputs_move_one_after_another():
    # Two remote files are transferred in turn, each paying the route latency
    # after its bytes; a zero-byte file and one already on the worker cost no
    # time but still count toward input_bytes.
    platform = single_worker_platform()
    files = (FileSpec("f0", 1e9, "s0"), FileSpec("empty", 0.0, "s0"),
             FileSpec("local", 3e8, "w0"), FileSpec("f1", 5e8, "s0"))
    jobs = [job(0, files=["f0", "empty", "local", "f1"], out=1e8)]
    t, = run_simulation(platform, jobs, DatasetSpec(files=files), audit=True)
    assert math.isclose(t.input_files_transfer_time_s,
                        (1e-4 + 1e9 / 1.25e8) + (1e-4 + 5e8 / 1.25e8), rel_tol=1e-12)
    assert math.isclose(t.input_files_transfer_time_s, 12.0002, rel_tol=1e-12)
    assert t.input_bytes == 1e9 + 0.0 + 3e8 + 5e8
    # output goes back to the first input's storage
    assert math.isclose(t.output_files_transfer_time_s, 1e-4 + 1e8 / 1.25e8, rel_tol=1e-12)
    assert math.isclose(t.end_time_s - t.start_time_s,
                        t.input_files_transfer_time_s + t.compute_time_s
                        + t.output_files_transfer_time_s, rel_tol=1e-12)


def test_only_local_inputs_cost_nothing():
    platform = single_worker_platform()
    files = (FileSpec("local", 3e8, "w0"), FileSpec("empty", 0.0, "s0"))
    t, = run_simulation(platform, [job(0, files=["local", "empty"], out=1e8)],
                        DatasetSpec(files=files), audit=True)
    assert t.input_files_transfer_time_s == 0.0
    assert t.input_bytes == 3e8
    # the first input lives on the worker, so the output stays there
    assert t.output_files_transfer_time_s == 0.0
    assert t.end_time_s - t.start_time_s == t.compute_time_s


def test_worker_only_platform_keeps_output_on_the_worker():
    spec = PlatformSpec(nodes=(NodeSpec("w0", "worker", cores=2, core_speed_flops=1e9),),
                        links=(), routes={})
    validate_platform(spec)
    jobs = [job(i, flops=2e9, out=1e8, sub=0.5 * i) for i in range(3)]
    traces = run_simulation(spec, jobs, dataset(), audit=True)
    for t in traces:
        assert t.worker_id == "w0"
        assert t.output_files_transfer_time_s == 0.0
        assert t.output_bytes == 1e8
        assert t.end_time_s - t.start_time_s == t.compute_time_s == 2.0
    # the third job waits for the first core to come free at t = 2
    assert [t.start_time_s for t in traces] == [0.0, 0.5, 2.0]


@st.composite
def star_cases(draw):
    """A storage node and 1-3 workers, each behind its own link to one switch
    (the storage's link is the shared uplink), with jobs reading 1-3 files
    from the storage or from any worker."""
    bw = st.floats(1e6, 1e9)
    latency = st.sampled_from([0.0, 1e-4, 1e-2])
    n_workers = draw(st.integers(1, 3))
    workers = [f"w{i}" for i in range(n_workers)]
    nodes = [NodeSpec(w, "worker", cores=draw(st.integers(1, 3)),
                      core_speed_flops=draw(st.floats(1e8, 1e10))) for w in workers]
    nodes.append(NodeSpec("s0", "storage", disk_read_bw_bps=draw(bw),
                          disk_write_bw_bps=draw(bw)))
    ends = workers + ["s0"]
    links = tuple(LinkSpec(f"l_{n}", draw(bw), draw(latency)) for n in ends)
    routes = {(a, b): (f"l_{a}", f"l_{b}") for a in ends for b in ends if a != b}
    platform = PlatformSpec(tuple(nodes), links, routes)
    validate_platform(platform)
    size = st.one_of(st.just(0.0), st.floats(1e3, 1e9))
    files, jobs = [], []
    for i in range(draw(st.integers(1, 8))):
        ids = [f"j{i}_f{k}" for k in range(draw(st.integers(1, 3)))]
        files += [FileSpec(f, draw(size), draw(st.sampled_from(ends))) for f in ids]
        jobs.append(job(i, flops=draw(st.floats(1e6, 1e11)), files=ids, out=draw(size),
                        sub=draw(st.sampled_from([0.0, 0.5, 1.0, 2.5]))))
    return platform, jobs, DatasetSpec(files=tuple(files))


class TestStarProperties:
    @given(case=star_cases(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, case, data):
        platform, jobs, datasets = case
        traces = run_simulation(platform, jobs, datasets, audit=True)
        assert [t.job_index for t in traces] == list(range(len(jobs)))
        for t in traces:
            assert t.start_time_s >= t.submission_time_s
            phases = (t.input_files_transfer_time_s + t.compute_time_s
                      + t.output_files_transfer_time_s)
            assert math.isclose(t.end_time_s - t.start_time_s, phases,
                                rel_tol=0, abs_tol=1e-12 * max(1.0, t.end_time_s))
        cores = {n.id: n.cores for n in platform.workers()}
        for wid, limit in cores.items():
            # a core freed at t is taken at t, so ends sort before starts
            edges = sorted([(t.start_time_s, 1) for t in traces if t.worker_id == wid]
                           + [(t.end_time_s, -1) for t in traces if t.worker_id == wid])
            running = 0
            for _, step in edges:
                running += step
                assert running <= limit
        shuffled = data.draw(st.permutations(jobs))
        assert run_simulation(platform, shuffled, datasets, audit=True) == traces


def random_case(rng, index):
    """One random platform and workload built from `rng.random()` alone, whose
    stream Python keeps the same across versions.  Cases 0 and 1 mod 4 are stars
    of 1-6 workers around one storage node, cases 2 and 3 two sites of workers
    whose site links meet the storage's uplink; jobs come in bursts of equal submission
    times, often more jobs than cores, with equal compute demands and
    zero-latency links so that events fall on the same instant, and 0-4 input
    files each that are empty, local to a worker, sub-ulp-sized or ordinary
    (in about 40% of cases only empty or sub-ulp-sized)."""
    def pick(options):
        return options[int(rng.random() * len(options))]

    def bandwidth():
        return pick([1e6, 1.25e8, 1e9]) * (1.0 + rng.random())

    workers = [f"w{i}" for i in range(1 + int(rng.random() * 6))]
    speed = pick([1e9, 1e10])
    nodes = [NodeSpec(w, "worker", cores=1 + int(rng.random() * 4),
                      core_speed_flops=speed if rng.random() < 0.7 else 1e8 + 1e10 * rng.random())
             for w in workers]
    nodes.append(NodeSpec("s0", "storage", disk_read_bw_bps=bandwidth(),
                          disk_write_bw_bps=bandwidth()))
    ends = workers + ["s0"]
    links = [LinkSpec(f"l_{n}", bandwidth(), pick([0.0, 0.0, 1e-4, 1e-2])) for n in ends]
    if index % 4 >= 2:
        site = {w: f"site{i % 2}" for i, w in enumerate(workers)} | {"s0": "core"}
        links += [LinkSpec(f"l_{s}", bandwidth(), pick([0.0, 1e-3])) for s in ("site0", "site1")]

        def path(a, b):
            hops = [f"l_{site[n]}" for n in (a, b) if site[n] != "core"]
            middle = [] if site[a] == site[b] else list(dict.fromkeys(hops))
            return (f"l_{a}", *middle, f"l_{b}")
    else:
        def path(a, b):
            return (f"l_{a}", f"l_{b}")
    routes = {(a, b): path(a, b) for a in ends for b in ends if a != b}
    platform = PlatformSpec(tuple(nodes), tuple(links), routes)
    validate_platform(platform)

    quiet = rng.random() < 0.4  # many events open no transfer or a sub-ulp one

    def size():
        if quiet:
            return pick([0.0, 0.0, 0.0, 1e-9, 1e-300])
        return pick([0.0, 1e-9, 1e-300, 1.0, 1e3 + 1e9 * rng.random(), 5e7])

    n_jobs = 1 + int(rng.random() * 60)
    bursts = [0.0] + [pick([0.5, 1.0, 2.5, 10.0]) for _ in range(2)]
    demands = [5e9, 2e10, 1e6 + 1e11 * rng.random()]
    files, jobs = [], []
    for i in range(n_jobs):
        ids = [f"j{i}_f{k}" for k in range(int(rng.random() * 5))]
        files += [FileSpec(f, size(), pick(["s0", "s0", *ends])) for f in ids]
        jobs.append(job(i, flops=pick(demands), files=ids, out=size(),
                        sub=pick(bursts) if rng.random() < 0.9 else 20.0 * rng.random()))
    return platform, jobs, DatasetSpec(files=tuple(files))


RANDOM_CASES_SHA256 = "d94cd1a6e3cfc0bab046e6354ce98d4652766988f34e602628cba0bfb20f49f9"


def test_random_platforms_digest():
    """Traces of 300 random platforms and workloads (`random_case`, the audit
    on in every other case) hash to one sha256 of their `repr`s, and the audit
    stops none of them.  The digest was computed with the audit off and the
    engine that queued every submission through its event heap and ran one
    event per loop pass, before submissions moved to a cursor and same-instant
    work was batched, so those paths are held to the old engine's bits beyond
    the presets."""
    rng = random.Random(20261019)
    digest = hashlib.sha256()
    for index in range(300):
        platform, jobs, datasets = random_case(rng, index)
        traces = run_simulation(platform, jobs, datasets, audit=index % 2 == 0)
        digest.update(repr(traces).encode())
    assert digest.hexdigest() == RANDOM_CASES_SHA256


def force_eager_rates(monkeypatch):
    """Refresh the rates right after every transfer start and finish, the
    rule the engine followed before it deferred them to the next read."""
    def eager(method):
        def wrapped(self, *args):
            result = method(self, *args)
            self._recompute_rates()
            return result
        return wrapped

    for name in ("_start_transfer", "_finish_transfer"):
        monkeypatch.setattr(_Simulation, name, eager(getattr(_Simulation, name)))


def test_lazy_rates_match_eager_on_random_platforms(monkeypatch):
    """The 300 random platforms of the digest test, audit alternating, give the
    same traces when the rates are refreshed eagerly."""
    rng = random.Random(20261019)
    cases = [random_case(rng, index) for index in range(300)]
    lazy = [run_simulation(*case, audit=index % 2 == 0) for index, case in enumerate(cases)]
    force_eager_rates(monkeypatch)
    eager = [run_simulation(*case, audit=index % 2 == 0) for index, case in enumerate(cases)]
    assert lazy == eager


def test_completion_tolerance_reads_the_rates_after_an_earlier_finish(monkeypatch):
    """Two inputs split a 1e8 B/s uplink from t = 1e6 s, where a clock step is
    1.16e-10 s; the second is 0.009 bytes longer.  When the first finishes,
    the second's route speeds up to 1e8 B/s, and the completion tolerance
    (which includes rate x clock step) grows from 0.0059 to 0.0117 bytes, so
    the second finishes in the same pass, as under eager rates."""
    nodes = [NodeSpec(w, "worker", cores=1, core_speed_flops=1e10) for w in ("w0", "w1")]
    nodes.append(NodeSpec("s0", "storage", disk_read_bw_bps=1e9, disk_write_bw_bps=1e9))
    links = (LinkSpec("up", 1e8, 0.0), LinkSpec("l0", 1e9, 0.0), LinkSpec("l1", 1e9, 0.0))
    routes = {("s0", "w0"): ("up", "l0"), ("w0", "s0"): ("l0", "up"),
              ("s0", "w1"): ("up", "l1"), ("w1", "s0"): ("l1", "up")}
    platform = PlatformSpec(tuple(nodes), links, routes)
    validate_platform(platform)
    jobs = [job(0, files=("a",), sub=1e6), job(1, files=("b",), sub=1e6)]
    data = dataset(("a", 1e8), ("b", 1e8 + 0.009))
    lazy = run_simulation(platform, jobs, data, audit=True)
    assert lazy[0].input_files_transfer_time_s == lazy[1].input_files_transfer_time_s == 2.0
    force_eager_rates(monkeypatch)
    assert run_simulation(platform, jobs, data, audit=True) == lazy


def test_audit_passes_a_small_transfer_behind_a_busy_route():
    """A 1-byte input opened 17.3 s into a 50 GB transfer on the same 4 GB/s
    route.  Its credit and its completion round with the route's progress
    and the clock, not with its own size, and end a few 1e-6 bytes from 1
    byte; the audit allows that and changes no trace."""
    platform = single_worker_platform(cores=2, link_bw=4e9, disk_bw=4e9)
    jobs = [job(0, files=("big",)), job(1, files=("one",), sub=17.3)]
    data = dataset(("big", 5e10), ("one", 1.0))
    assert run_simulation(platform, jobs, data, audit=True) == run_simulation(platform, jobs, data)


@pytest.mark.parametrize("size", [1.0, 2e8])
def test_audit_catches_a_credit_one_percent_off(monkeypatch, size):
    """A transfer whose audit cell starts at 1% of its size is credited 101%
    of it, and the audit reports that."""
    start = _Simulation._start_transfer

    def skewed(self, job_state, src, dst, nbytes, is_output):
        opened = start(self, job_state, src, dst, nbytes, is_output)
        if opened:
            newest = max(self.flows[(src, dst)].pending, key=lambda xfer: xfer[1])
            newest[5][0] = 0.01 * nbytes
        return opened

    monkeypatch.setattr(_Simulation, "_start_transfer", skewed)
    with pytest.raises(SimulationError, match="work conservation violated"):
        run_simulation(single_worker_platform(), [job(0, files=("a",))],
                       dataset(("a", size)), audit=True)

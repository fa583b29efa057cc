import math

import pytest

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
            NodeSpec("s0", "storage", disk_read_bw_bps=disk_bw,
                     disk_write_bw_bps=disk_bw, storage_capacity_bytes=10**15),
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

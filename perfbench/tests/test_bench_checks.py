"""The benchmark's checks accept the program's real outputs and reject
outputs broken in the ways each check exists to catch."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import checks
import parts
import run
from tracer import Tracer, tape_size
from simsurrogate.engine import run_simulation
from simsurrogate.nn.autodiff import Tensor
from simsurrogate.platform import builtin_platform
from simsurrogate.preprocess import Standardizer
from simsurrogate.traceio import read_trace_csv, write_trace_csv
from simsurrogate.workload import generate_workload

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@pytest.fixture(scope="module", params=["heterogeneous", "homogeneous"])
def simulated(request):
    scenario = request.param
    platform = builtin_platform(scenario)
    jobs, datasets = generate_workload(scenario, 300, 0, 4)
    traces = run_simulation(platform, jobs, datasets)
    return platform, traces, np.array([j.flops for j in jobs])


def edit(traces, index, **changes):
    out = list(traces)
    out[index] = dataclasses.replace(out[index], **changes)
    return out


class TestEngineTrace:
    def test_accepts_real_simulation(self, simulated):
        platform, traces, flops = simulated
        checks.check_engine_trace(platform, traces, flops, checks.MEMORY_TOL_S)
        checks.check_uplink_bound(platform, traces)

    def test_rejects_start_before_submit(self, simulated):
        platform, traces, flops = simulated
        t = traces[5]
        bad = edit(traces, 5, submission_time_s=t.start_time_s + 1.0)
        with pytest.raises(checks.CheckFailed, match="before its submission"):
            checks.check_engine_trace(platform, bad, flops, checks.MEMORY_TOL_S)

    def test_rejects_phase_sum_mismatch(self, simulated):
        platform, traces, flops = simulated
        bad = edit(traces, 7, end_time_s=traces[7].end_time_s + 0.5)
        with pytest.raises(checks.CheckFailed, match="input \\+ compute \\+ output"):
            checks.check_engine_trace(platform, bad, flops, checks.MEMORY_TOL_S)

    def test_rejects_wrong_compute_time(self, simulated):
        platform, traces, flops = simulated
        with pytest.raises(checks.CheckFailed, match="flops / core speed"):
            checks.check_engine_trace(platform, traces, flops * 1.01, checks.MEMORY_TOL_S)

    def test_rejects_oversubscribed_worker(self, simulated):
        platform, traces, flops = simulated
        cores = {w.id: w.cores for w in platform.workers()}
        wid = traces[0].worker_id
        # Pile more jobs than cores onto one worker over one shared interval.
        bad = [dataclasses.replace(t, worker_id=wid, start_time_s=0.0, end_time_s=1e9)
               for t in traces[:cores[wid] + 1]]
        with pytest.raises(checks.CheckFailed, match="jobs on"):
            checks.check_engine_trace(platform, bad, flops[:len(bad)], 1e12)

    def test_rejects_out_of_order_starts(self, simulated):
        platform, traces, flops = simulated
        a, b = traces[10], traces[11]
        shift = b.start_time_s - a.start_time_s + 1.0
        moved = {f: getattr(b, f) - shift for f in ("start_time_s", "end_time_s")}
        bad = edit(traces, 11, submission_time_s=min(b.submission_time_s,
                                                     moved["start_time_s"]), **moved)
        with pytest.raises(checks.CheckFailed, match="not FIFO"):
            checks.check_engine_trace(platform, bad, flops, checks.MEMORY_TOL_S)

    def test_rejects_transfer_faster_than_route(self, simulated):
        platform, traces, flops = simulated
        t = traces[3]
        fast = 1e-3  # any route needs > 0.1 s for these input sizes
        bad = edit(traces, 3, input_files_transfer_time_s=fast,
                   end_time_s=t.end_time_s - (t.input_files_transfer_time_s - fast))
        with pytest.raises(checks.CheckFailed, match="beats its route"):
            checks.check_engine_trace(platform, bad, flops, checks.MEMORY_TOL_S)

    def test_rejects_makespan_below_uplink_floor(self, simulated):
        platform, traces, _ = simulated
        bad = [dataclasses.replace(t, input_bytes=t.input_bytes * 1e3) for t in traces]
        with pytest.raises(checks.CheckFailed, match="uplink"):
            checks.check_uplink_bound(platform, bad)


def test_peak_transfers_counts_overlaps(simulated):
    _, traces, _ = simulated
    t = traces[0]
    one = [dataclasses.replace(t, start_time_s=0.0, input_files_transfer_time_s=2.0,
                               compute_time_s=1.0, output_files_transfer_time_s=1.0,
                               end_time_s=4.0)]
    two = one + [dataclasses.replace(one[0], job_index=1, start_time_s=1.0, end_time_s=5.0)]
    assert checks.peak_transfers(one) == 1
    assert checks.peak_transfers(two) == 2  # [0,2) and [1,3) overlap; [3,4) and [4,5) touch


def test_csv_round_trip_matches_and_detects_drift(simulated, tmp_path):
    _, traces, _ = simulated
    write_trace_csv(tmp_path / "trace.csv", traces)
    read_back = read_trace_csv(tmp_path / "trace.csv")
    checks.check_csv_matches(read_back, traces, 0)
    drifted = edit(traces, 2, start_time_s=traces[2].start_time_s + 1e-6)
    with pytest.raises(checks.CheckFailed, match="CSV trace differs"):
        checks.check_csv_matches(read_back, drifted, 0)


@pytest.fixture(scope="module")
def small_setup():
    return parts.set_up("heterogeneous", 2, Tracer(Path(".")))


def test_surrogate_checks_accept_predict_rows(small_setup):
    traces, _, table = parts.simulate(small_setup, 0, Tracer(Path(".")))
    preds = {a: s.predict(table) for a, s in small_setup.surrogates.items()}
    parts.check_round(small_setup, 0, traces, preds)
    parts.check_surrogates(small_setup, table, preds)


def test_surrogate_checks_reject_perturbed_predictions(small_setup):
    table = parts.concat(small_setup.probes)
    s = small_setup.surrogates["bigru"]
    preds = s.predict(table)
    bad = preds.copy()
    bad[3, 0] += 1.0
    with pytest.raises(checks.CheckFailed, match="reordered"):
        checks.check_permutation(preds, table, bad, table, "bigru")
    keys = np.stack([table.simulation_ids[:4], table.job_indices[:4]], axis=1)[None]
    mask = np.ones((1, 4), dtype=bool)
    slow = s.target_std.transform(preds[:4])[None]
    checks.check_matches_autodiff(preds, table, slow, keys, mask, s.target_std, "bigru")
    with pytest.raises(checks.CheckFailed, match="autodiff"):
        checks.check_matches_autodiff(bad, table, slow, keys, mask, s.target_std, "bigru")
    nan = preds.copy()
    nan[0, 0] = np.nan
    with pytest.raises(checks.CheckFailed, match="non-finite"):
        checks.check_finite(nan, "bigru")


def test_r2_report_check(small_setup):
    table = parts.concat(small_setup.probes)
    preds = small_setup.surrogates["bilstm"].predict(table)
    report = {name: checks.r_squared(preds[:, j], table.targets[:, j])
              for j, name in enumerate(table.target_names)}
    checks.check_r2_report(report, preds, table, "eval")
    report["compute_time_s"] += 1e-6
    with pytest.raises(checks.CheckFailed, match="recomputed"):
        checks.check_r2_report(report, preds, table, "eval")


class TestTracer:
    def test_tape_size_counts_reachable_nodes(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = a * 2.0  # a, the constant, b
        loss = (b + a).sum()  # the sum node and its add
        assert tape_size(loss) == 5

    def test_units_restore_patched_names(self, tmp_path):
        from simsurrogate import cli, evaluate
        before = (cli.run_simulation, evaluate.kde, Standardizer.transform, Tensor.backward)
        tracer = Tracer(tmp_path)
        with tracer.unit("pass", traced=True):
            assert cli.run_simulation is not before[0]
        assert (cli.run_simulation, evaluate.kde, Standardizer.transform,
                Tensor.backward) == before

    def test_layer_metrics_sum_kind_medians_of_self_time(self, tmp_path):
        tracer = Tracer(tmp_path)
        tracer.spans = [
            ["unit:round", 0.0, 10.0, None, 0],
            ["engine.run_s", 1.0, 4.0, 0, 0],
            ["unit:round", 10.0, 20.0, None, 0],
            ["engine.run_s", 11.0, 12.0, 2, 0],
            ["unit:round", 20.0, 30.0, None, 0],
            ["engine.run_s", 21.0, 26.0, 4, 0],
            ["unit:setup", 30.0, 40.0, None, 0],
            ["engine.run_s", 31.0, 31.5, 6, 0],
            ["preprocess.window_s", 32.0, 33.0, 6, 7],
        ]
        out = tracer.layer_metrics()
        assert out["engine.run_s"] == pytest.approx(3.0 + 0.5)
        assert out["preprocess.window_s"] == pytest.approx(1.0)
        assert out["preprocess.windows"] == 7
        assert out["traceio.write_csv_s"] == 0.0


def test_benchmark_json_names_every_reported_metric():
    doc = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert {w["name"] for w in doc["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER_UNITS


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "homog-10k", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""

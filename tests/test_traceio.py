import csv

import numpy as np
import pytest

from simsurrogate.engine import run_simulation
from simsurrogate.errors import JoinError, WorkloadError
from simsurrogate.platform import builtin_platform
from simsurrogate.traceio import (
    TARGET_OBSERVABLES,
    SampleTable,
    feature_names,
    join_traces,
    read_samples_csv,
    read_trace_csv,
    read_workload_csv,
    write_samples_csv,
    write_trace_csv,
    write_workload_csv,
)
from simsurrogate.workload import generate_workload


@pytest.fixture(scope="module")
def sim_data():
    platform = builtin_platform("heterogeneous")
    jobs, ds = generate_workload("heterogeneous", 10, 0, 21)
    traces = run_simulation(platform, jobs, ds)
    return jobs, ds, traces


def test_workload_csv_round_trip(tmp_path, sim_data):
    jobs, ds, _ = sim_data
    path = tmp_path / "workload.csv"
    write_workload_csv(path, jobs, ds.sizes())
    rows = read_workload_csv(path)
    assert len(rows) == len(jobs)
    for row, j in zip(rows, jobs):
        assert row["job_index"] == j.job_index
        assert row["flops"] == j.flops  # repr round-trip is lossless
        assert row["input_files"] == j.input_files


def test_trace_csv_round_trip(tmp_path, sim_data):
    _, _, traces = sim_data
    path = tmp_path / "trace.csv"
    write_trace_csv(path, traces)
    back = read_trace_csv(path)
    for a, b in zip(back, traces):
        # times are persisted at 9 decimal places
        assert abs(a.compute_time_s - b.compute_time_s) < 1e-9
        assert abs(a.end_time_s - b.end_time_s) < 1e-9
        assert a.worker_id == b.worker_id
        assert a.input_bytes == round(b.input_bytes)


def test_join_produces_ordered_rows(tmp_path, sim_data):
    jobs, ds, traces = sim_data
    write_workload_csv(tmp_path / "w.csv", jobs, ds.sizes())
    table = join_traces("heterogeneous", read_workload_csv(tmp_path / "w.csv"), traces)
    assert len(table) == 10
    assert list(table.job_indices) == list(range(10))
    assert table.feature_names == ("job_index", "flops", "input_files_size_bytes",
                                   "output_files_size_bytes", "submission_time_s")
    # submission_time is a feature only in the heterogeneous scenario
    assert "submission_time_s" not in feature_names("homogeneous")


def test_join_disjoint_keys_error(sim_data):
    jobs, ds, traces = sim_data
    rows = [{
        "simulation_id": 99, "job_index": i, "submission_time_s": 0.0,
        "flops": 1.0, "input_files": (), "input_files_size_bytes": 1.0,
        "output_files_size_bytes": 1.0, "class_id": 0,
    } for i in range(3)]
    with pytest.raises(JoinError, match="unmatched"):
        join_traces("heterogeneous", rows, traces)


def test_samples_csv_round_trip(tmp_path, sim_data):
    jobs, ds, traces = sim_data
    write_workload_csv(tmp_path / "w.csv", jobs, ds.sizes())
    table = join_traces("heterogeneous", read_workload_csv(tmp_path / "w.csv"), traces)
    write_samples_csv(tmp_path / "samples.csv", table)
    back = read_samples_csv(tmp_path / "samples.csv")
    np.testing.assert_array_equal(back.features, table.features)
    np.testing.assert_array_equal(back.targets, table.targets)
    assert back.scenario == table.scenario


@pytest.mark.parametrize("first, second", [(3, 4), (-2, -1)])
def test_samples_csv_swapped_columns_rejected(tmp_path, sim_data, first, second):
    """Swapping two feature (or two target) columns, header and values alike,
    must not load as a table with the wrong meaning."""
    jobs, ds, traces = sim_data
    write_workload_csv(tmp_path / "w.csv", jobs, ds.sizes())
    table = join_traces("heterogeneous", read_workload_csv(tmp_path / "w.csv"), traces)
    write_samples_csv(tmp_path / "samples.csv", table)
    lines = [line.split(",") for line in
             (tmp_path / "samples.csv").read_text(encoding="utf-8").splitlines()]
    for cells in lines:
        cells[first], cells[second] = cells[second], cells[first]
    (tmp_path / "swapped.csv").write_text(
        "\n".join(",".join(cells) for cells in lines) + "\n", encoding="utf-8")
    with pytest.raises(JoinError, match="header"):
        read_samples_csv(tmp_path / "swapped.csv")


def test_unknown_scenario_rejected(tmp_path, sim_data):
    with pytest.raises(WorkloadError, match="unknown scenario"):
        feature_names("heterogenous")
    jobs, ds, traces = sim_data
    write_workload_csv(tmp_path / "w.csv", jobs, ds.sizes())
    table = join_traces("heterogeneous", read_workload_csv(tmp_path / "w.csv"), traces)
    write_samples_csv(tmp_path / "samples.csv", table)
    text = (tmp_path / "samples.csv").read_text(encoding="utf-8")
    (tmp_path / "garbage.csv").write_text(text.replace("\nheterogeneous,", "\nnonsense,"),
                                          encoding="utf-8")
    with pytest.raises(WorkloadError, match="unknown scenario"):
        read_samples_csv(tmp_path / "garbage.csv")


def awkward_table():
    """Floats whose repr is easy to get wrong, in every column of two scenarios' rows."""
    awkward = [0.1, -0.0, 5e-324, 1e22, 1 / 3, float("inf")]
    feats = feature_names("heterogeneous")
    n_cols = len(feats) + len(TARGET_OBSERVABLES)
    values = np.array([[awkward[(i + j) % len(awkward)] for j in range(n_cols)]
                       for i in range(2 * len(awkward))])
    return SampleTable("heterogeneous",
                       np.array([0] * 6 + [2**40] * 6, dtype=np.int64),
                       np.arange(12, dtype=np.int64),
                       values[:, :len(feats)], values[:, len(feats):], feats)


def test_samples_csv_bytes_match_csv_writer(tmp_path):
    table = awkward_table()
    with open(tmp_path / "reference.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(("scenario", "simulation_id", "job_index")
                   + table.feature_names + table.target_names)
        for i in range(len(table)):
            w.writerow([table.scenario, int(table.simulation_ids[i]),
                        int(table.job_indices[i])]
                       + [repr(float(v)) for v in table.features[i]]
                       + [repr(float(v)) for v in table.targets[i]])
    write_samples_csv(tmp_path / "samples.csv", table)
    assert (tmp_path / "samples.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_samples_csv_round_trip_bit_exact(tmp_path):
    table = awkward_table()
    write_samples_csv(tmp_path / "samples.csv", table)
    back = read_samples_csv(tmp_path / "samples.csv")
    np.testing.assert_array_equal(back.features.view(np.int64), table.features.view(np.int64))
    np.testing.assert_array_equal(back.targets.view(np.int64), table.targets.view(np.int64))
    np.testing.assert_array_equal(back.simulation_ids, table.simulation_ids)
    np.testing.assert_array_equal(back.job_indices, table.job_indices)
    assert back.simulation_ids.dtype == back.job_indices.dtype == np.int64
    assert (back.scenario, back.feature_names) == (table.scenario, table.feature_names)


def test_samples_csv_mixed_scenarios_rejected(tmp_path):
    write_samples_csv(tmp_path / "samples.csv", awkward_table())
    text = (tmp_path / "samples.csv").read_text(encoding="utf-8")
    head, last = text.rstrip("\r\n").rsplit("\n", 1)
    (tmp_path / "mixed.csv").write_text(
        head + "\n" + last.replace("heterogeneous,", "homogeneous,") + "\r\n",
        encoding="utf-8")
    with pytest.raises(JoinError, match="mix scenarios"):
        read_samples_csv(tmp_path / "mixed.csv")


def test_samples_csv_non_integer_key_rejected(tmp_path):
    write_samples_csv(tmp_path / "samples.csv", awkward_table())
    text = (tmp_path / "samples.csv").read_text(encoding="utf-8")
    (tmp_path / "bad.csv").write_text(text.replace("heterogeneous,0,3,", "heterogeneous,0,3.5,"),
                                      encoding="utf-8")
    with pytest.raises(JoinError):
        read_samples_csv(tmp_path / "bad.csv")

import csv
import dataclasses
import warnings

import numpy as np
import pytest

from simsurrogate.engine import TRACE_FIELDS, TraceRecord, run_simulation
from simsurrogate.errors import JoinError, WorkloadError
from simsurrogate.platform import builtin_platform
from simsurrogate.traceio import (
    TARGET_OBSERVABLES,
    WORKLOAD_FIELDS,
    SampleTable,
    feature_names,
    join_traces,
    read_samples_csv,
    read_trace_csv,
    read_workload_csv,
    trace_lines,
    workload_lines,
    write_samples_csv,
    write_trace_csv,
    write_workload_csv,
)
from simsurrogate.workload import JobSpec, generate_workload


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


@pytest.mark.parametrize("side", ["workload", "trace"])
def test_join_duplicate_key_rejected(sim_data, side):
    """A repeated (simulation_id, job_index) used to collapse silently: 6 rows gave 5."""
    jobs, ds, traces = sim_data
    rows = list(read_workload_csv(workload_lines(jobs[:5], ds.sizes())))
    traces = list(traces[:5])
    if side == "workload":
        rows.append(dict(rows[2], flops=1.0))
    else:
        traces.append(dataclasses.replace(traces[2], compute_time_s=1.0))
    with pytest.raises(JoinError, match=rf"1 duplicated .* keys in the {side} rows; first: \(0, 2\)"):
        join_traces("heterogeneous", rows, traces)


def test_join_missing_trace_row_rejected(tmp_path, sim_data):
    jobs, ds, traces = sim_data
    write_workload_csv(tmp_path / "w.csv", jobs, ds.sizes())
    write_trace_csv(tmp_path / "t.csv", traces[:4] + traces[5:])
    with pytest.raises(JoinError, match=r"1 unmatched \(simulation_id, job_index\) keys; "
                                        r"first: \(0, 4\)$"):
        join_traces("heterogeneous", read_workload_csv(tmp_path / "w.csv"),
                    read_trace_csv(tmp_path / "t.csv"))


@pytest.mark.parametrize("sid, job", [(0, 2**31), (-1, 0)])
def test_join_key_out_of_range_rejected(sim_data, sid, job):
    jobs, ds, traces = sim_data
    rows = list(read_workload_csv(workload_lines(jobs[:1], ds.sizes())))
    rows[0].update(simulation_id=sid, job_index=job)
    trace = dataclasses.replace(traces[0], simulation_id=sid, job_index=job)
    with pytest.raises(JoinError, match=r"workload rows: .* outside \[0, 2\*\*31\)"):
        join_traces("heterogeneous", rows, [trace])


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


@pytest.mark.parametrize("key", ["9007199254740992", "1e300", "nan", "-inf"])
def test_samples_csv_key_beyond_exact_integers_rejected(tmp_path, key):
    """Keys are parsed as float64 with the other columns: one that is not an
    integer float64 holds exactly is refused, not rounded."""
    write_samples_csv(tmp_path / "samples.csv", awkward_table())
    text = (tmp_path / "samples.csv").read_text(encoding="utf-8")
    (tmp_path / "bad.csv").write_text(text.replace("heterogeneous,0,3,", f"heterogeneous,{key},3,"),
                                      encoding="utf-8")
    with pytest.raises(JoinError, match="simulation_id .* in data row 4 is not an integer"):
        read_samples_csv(tmp_path / "bad.csv")


def test_samples_csv_first_cell_without_a_comma(tmp_path):
    """A data row with no comma is one scenario name, not a mix; the unknown
    name is reported as before."""
    (tmp_path / "bad.csv").write_text("scenario\r\nheterogeneous\r\n", encoding="utf-8")
    with pytest.raises(WorkloadError, match="unknown scenario"):
        read_samples_csv(tmp_path / "bad.csv")


# -- the workload and trace files --------------------------------------------

def csv_writer_workload(path, jobs, input_sizes):
    """The csv.writer workload writer that write_workload_csv replaced."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(WORKLOAD_FIELDS)
        for j in jobs:
            size = sum(input_sizes[f] for f in j.input_files)
            w.writerow([j.simulation_id, j.job_index, f"{j.submission_time_s:.9f}", repr(j.flops),
                        ";".join(j.input_files), int(round(size)),
                        int(round(j.output_files_size_bytes)), j.class_id])


def csv_writer_trace(path, traces):
    """The csv.writer trace writer that write_trace_csv replaced."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_FIELDS)
        for t in traces:
            w.writerow([t.simulation_id, t.job_index]
                       + [f"{getattr(t, name):.9f}" for name in TRACE_FIELDS[2:8]]
                       + [int(round(t.input_bytes)), int(round(t.output_bytes)), t.worker_id])


def dict_join(scenario, rows, traces):
    """The two-dict join that join_traces replaced, kept as its oracle."""
    wl = {(r["simulation_id"], r["job_index"]): r for r in rows}
    tr = {(t.simulation_id, t.job_index): t for t in traces}
    assert set(wl) == set(tr)
    keys = sorted(wl)
    feats = feature_names(scenario)
    features = np.empty((len(keys), len(feats)))
    targets = np.empty((len(keys), len(TARGET_OBSERVABLES)))
    for i, key in enumerate(keys):
        for j, name in enumerate(feats):
            features[i, j] = wl[key][name]
        for j, name in enumerate(TARGET_OBSERVABLES):
            targets[i, j] = getattr(tr[key], name)
    return SampleTable(scenario, np.asarray([k[0] for k in keys], dtype=np.int64),
                       np.asarray([k[1] for k in keys], dtype=np.int64), features, targets, feats)


AWKWARD_TIMES = [1e9 + 0.1234567891, 4e-10, 0.0, -0.0, 0.5e-9, 1.5e-9, 1e9, 123.456789012345]


def awkward_job_index(i):
    return 2**31 - 1 if i == 0 else i  # the first row, alone in the 1-row cases, is the largest key


def awkward_jobs():
    sizes = {"a": 0.5, "b": 2.5, "c": 1e12 / 3}
    inputs = [("a", "b"), (), ("a",), ("c",), ("b", "c", "a")]
    return [JobSpec(simulation_id=7, job_index=awkward_job_index(i), submission_time_s=t,
                    flops=[1e22, 0.1, 5e-324, 1 / 3, 1e10][i % 5], input_files=inputs[i % 5],
                    output_files_size_bytes=[2.5, 3.5, 1e9 / 7][i % 3], class_id=i % 5)
            for i, t in enumerate(AWKWARD_TIMES)], sizes


def awkward_traces():
    rotated = [AWKWARD_TIMES[i:] + AWKWARD_TIMES[:i] for i in range(len(AWKWARD_TIMES))]
    return [TraceRecord(7, awkward_job_index(i), *times[:6], [0.5, 2.5, 1e12 / 3][i % 3],
                        [1.5, 0.0, 1e9][i % 3], f"site{i % 2}_w{i}")
            for i, times in enumerate(rotated)]


@pytest.mark.parametrize("n", [0, 1, len(AWKWARD_TIMES)])
def test_workload_csv_bytes_match_csv_writer(tmp_path, n):
    jobs, sizes = awkward_jobs()
    csv_writer_workload(tmp_path / "reference.csv", jobs[:n], sizes)
    write_workload_csv(tmp_path / "workload.csv", jobs[:n], sizes)
    assert (tmp_path / "workload.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize("n", [0, 1, len(AWKWARD_TIMES)])
def test_trace_csv_bytes_match_csv_writer(tmp_path, n):
    traces = awkward_traces()
    csv_writer_trace(tmp_path / "reference.csv", traces[:n])
    write_trace_csv(tmp_path / "trace.csv", traces[:n])
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_simulated_csv_bytes_match_csv_writer(tmp_path, sim_data):
    jobs, ds, traces = sim_data
    for write, reference, data in ((write_workload_csv, csv_writer_workload, (jobs, ds.sizes())),
                                   (write_trace_csv, csv_writer_trace, (traces,))):
        write(tmp_path / "new.csv", *data)
        reference(tmp_path / "reference.csv", *data)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize("n", [0, 1, len(AWKWARD_TIMES)])
def test_lines_read_as_their_file(tmp_path, n):
    """The line builders give the files' bytes, and their lines parse to
    the columns the files do, bit for bit."""
    jobs, sizes = awkward_jobs()
    traces = awkward_traces()
    for write, build, read, data in (
            (write_workload_csv, workload_lines, read_workload_csv, (jobs[:n], sizes)),
            (write_trace_csv, trace_lines, read_trace_csv, (traces[:n],))):
        write(tmp_path / "file.csv", *data)
        lines = build(*data)
        assert "".join(lines).encode("utf-8") == (tmp_path / "file.csv").read_bytes()
        from_file, from_lines = read(tmp_path / "file.csv").columns, read(lines).columns
        assert list(from_lines) == list(from_file)
        for name, column in from_file.items():
            assert column.dtype == from_lines[name].dtype, name
            assert column.tobytes() == from_lines[name].tobytes(), name


def test_awkward_rows_read_back(tmp_path):
    jobs, sizes = awkward_jobs()
    write_workload_csv(tmp_path / "workload.csv", jobs, sizes)
    rows = read_workload_csv(tmp_path / "workload.csv")
    assert [r["job_index"] for r in rows] == [j.job_index for j in jobs]
    assert [r["flops"] for r in rows] == [j.flops for j in jobs]
    assert [r["input_files"] for r in rows] == [j.input_files for j in jobs]
    assert rows[-1] == list(rows)[-1]
    assert rows.columns["job_index"].dtype == rows.columns["class_id"].dtype == np.int64
    write_trace_csv(tmp_path / "trace.csv", awkward_traces())
    back = read_trace_csv(tmp_path / "trace.csv")
    assert [t.worker_id for t in back] == [t.worker_id for t in awkward_traces()]
    assert all(isinstance(t, TraceRecord) for t in back)


@pytest.mark.parametrize("read, fields", [(read_workload_csv, WORKLOAD_FIELDS),
                                          (read_trace_csv, TRACE_FIELDS)])
def test_header_only_file_is_zero_rows(tmp_path, read, fields):
    (tmp_path / "empty.csv").write_text(",".join(fields) + "\r\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = read(tmp_path / "empty.csv")
    assert len(rows) == 0 and list(rows) == []
    assert all(col.shape == (0,) for col in rows.columns.values())


def test_empty_files_join_to_empty_table(tmp_path):
    write_workload_csv(tmp_path / "w.csv", [], {})
    write_trace_csv(tmp_path / "t.csv", [])
    table = join_traces("heterogeneous", read_workload_csv(tmp_path / "w.csv"),
                        read_trace_csv(tmp_path / "t.csv"))
    assert table.features.shape == (0, len(feature_names("heterogeneous")))
    assert table.targets.shape == (0, len(TARGET_OBSERVABLES))


def test_one_row_files_keep_2d_shapes(tmp_path, sim_data):
    jobs, ds, traces = sim_data
    write_workload_csv(tmp_path / "w.csv", jobs[3:4], ds.sizes())
    write_trace_csv(tmp_path / "t.csv", traces[3:4])
    rows, back = read_workload_csv(tmp_path / "w.csv"), read_trace_csv(tmp_path / "t.csv")
    assert len(rows) == len(back) == 1
    table = join_traces("heterogeneous", rows, back)
    assert table.features.shape == (1, len(feature_names("heterogeneous")))
    assert table.targets.shape == (1, len(TARGET_OBSERVABLES))
    assert table.job_indices.tolist() == [3]


@pytest.mark.parametrize("name, write, data", [
    ("workload.csv", write_workload_csv, lambda jobs, ds, traces: (jobs, ds.sizes())),
    ("trace.csv", write_trace_csv, lambda jobs, ds, traces: (traces,)),
])
def test_reordered_header_rejected(tmp_path, sim_data, name, write, data):
    write(tmp_path / name, *data(*sim_data))
    head, body = (tmp_path / name).read_text(encoding="utf-8").split("\n", 1)
    cells = head.split(",")
    cells[2], cells[3] = cells[3], cells[2]
    (tmp_path / name).write_text(",".join(cells) + "\n" + body, encoding="utf-8")
    read = read_workload_csv if name == "workload.csv" else read_trace_csv
    with pytest.raises(JoinError, match="header"):
        read(tmp_path / name)


def test_non_integer_key_rejected(tmp_path, sim_data):
    write_trace_csv(tmp_path / "t.csv", sim_data[2])
    text = (tmp_path / "t.csv").read_text(encoding="utf-8")
    (tmp_path / "t.csv").write_text(text.replace("\n0,3,", "\n0,3.5,"), encoding="utf-8")
    with pytest.raises(JoinError, match="3.5"):
        read_trace_csv(tmp_path / "t.csv")


@pytest.mark.parametrize("char", [",", '"', "\r", "\n", ";"])
def test_id_needing_quotes_rejected_on_write(tmp_path, sim_data, char):
    jobs, ds, traces = sim_data
    bad_file = f"in{char}put"
    bad_jobs = [dataclasses.replace(jobs[0], input_files=(bad_file,))] + jobs[1:]
    with pytest.raises(JoinError, match="file ids"):
        write_workload_csv(tmp_path / "w.csv", bad_jobs, ds.sizes() | {bad_file: 1.0})
    bad_traces = traces[:-1] + [dataclasses.replace(traces[-1], worker_id=f"w{char}0")]
    with pytest.raises(JoinError, match="worker ids"):
        write_trace_csv(tmp_path / "t.csv", bad_traces)


@pytest.fixture(scope="module")
def two_sims(tmp_path_factory):
    """Two simulations of different lengths, written to and read from CSV."""
    root = tmp_path_factory.mktemp("two_sims")
    platform = builtin_platform("heterogeneous")
    out = []
    for sid, n in ((4, 40), (1, 25)):
        jobs, ds = generate_workload("heterogeneous", n, sid, 5)
        write_workload_csv(root / f"w{sid}.csv", jobs, ds.sizes())
        write_trace_csv(root / f"t{sid}.csv", run_simulation(platform, jobs, ds))
        out.append((read_workload_csv(root / f"w{sid}.csv"), read_trace_csv(root / f"t{sid}.csv")))
    return out


def assert_tables_bit_equal(got, want):
    assert got.simulation_ids.dtype == got.job_indices.dtype == np.int64
    np.testing.assert_array_equal(got.simulation_ids, want.simulation_ids)
    np.testing.assert_array_equal(got.job_indices, want.job_indices)
    assert got.features.shape == want.features.shape and got.targets.shape == want.targets.shape
    np.testing.assert_array_equal(got.features.view(np.int64), want.features.view(np.int64))
    np.testing.assert_array_equal(got.targets.view(np.int64), want.targets.view(np.int64))
    assert got.feature_names == want.feature_names


@pytest.mark.parametrize("scenario", ["heterogeneous", "homogeneous"])
def test_join_bit_equal_to_dict_join(two_sims, scenario):
    for rows, traces in two_sims:
        assert_tables_bit_equal(join_traces(scenario, rows, traces),
                                dict_join(scenario, list(rows), list(traces)))


def test_join_of_shuffled_row_lists_bit_equal_to_dict_join(two_sims):
    """Row lists of two simulations, interleaved in random order on both sides."""
    rows = [r for sim_rows, _ in two_sims for r in sim_rows]
    traces = [t for _, sim_traces in two_sims for t in sim_traces]
    rng = np.random.default_rng(0)
    rows = [rows[i] for i in rng.permutation(len(rows))]
    traces = [traces[i] for i in rng.permutation(len(traces))]
    got = join_traces("heterogeneous", rows, traces)
    assert got.simulation_ids.tolist() == [1] * 25 + [4] * 40
    assert_tables_bit_equal(got, dict_join("heterogeneous", rows, traces))

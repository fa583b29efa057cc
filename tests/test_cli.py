import csv
import json
import math
import re
import shutil
from dataclasses import asdict
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

from simsurrogate import cli
from simsurrogate.checkpoint import load_checkpoint
from simsurrogate.cli import ExperimentManifest, main, pool_size, resolve_manifest
from simsurrogate.evaluate import write_report
from simsurrogate.nn.models import ModelConfig
from simsurrogate.traceio import write_samples_csv
from simsurrogate.tuner import COORDINATE_ORDER, N_RANDOM, N_SURVIVORS
from simsurrogate.workload import DEFAULT_JOB_CLASSES

TINY = {
    "scenario": "heterogeneous",
    "seed": 1,
    "sims_per_batch": 2,
    "job_counts": [20],
    "include_extrapolation": False,
    "hidden_size": 8,
    "window_size": 8,
    "batch_size": 8,
    "max_epochs": 3,
    "patience": 3,
}


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """Tiny end-to-end run shared by the tests below."""
    root = tmp_path_factory.mktemp("pipeline")
    manifest = root / "manifest.json"
    manifest.write_text(json.dumps(TINY | {"out": str(root / "out")}))
    runner = CliRunner()
    for cmd in ("simulate", "preprocess", "train", "evaluate", "bench"):
        result = runner.invoke(main, [cmd, "--manifest", str(manifest)])
        assert result.exit_code == 0, f"{cmd}: {result.output}"
    return root


class TestManifest:
    def test_flags_override_manifest(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"seed": 3, "arch": "bilstm"}))
        man = resolve_manifest(str(path), seed=9)
        assert man.seed == 9  # flag wins
        assert man.arch == "bilstm"  # manifest wins over default
        assert man.sims_per_batch == 20  # default

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        # hidden_sizes: the tuner's search space is fixed, not a manifest setting
        for doc in ({"sim_count": 5}, {"hidden_sizes": [16, 32]}):
            path.write_text(json.dumps(doc))
            with pytest.raises(Exception, match="unknown manifest keys"):
                resolve_manifest(str(path))

    def test_digest_stable_and_sensitive(self):
        a = ExperimentManifest()
        b = ExperimentManifest()
        assert a.digest() == b.digest()
        assert a.digest() != ExperimentManifest(seed=1).digest()


class TestPipeline:
    def test_simulation_tree_layout(self, pipeline_dir):
        base = pipeline_dir / "out" / "heterogeneous"
        assert (base / "suite.json").exists()
        for sid in range(2):
            assert (base / f"sim_{sid}" / "workload.csv").exists()
            assert (base / f"sim_{sid}" / "trace.csv").exists()

    def test_meta_sidecars_embed_manifest_hash(self, pipeline_dir):
        base = pipeline_dir / "out" / "heterogeneous"
        digests = set()
        for stage_dir in (base, base / "preprocess", base / "model", base / "eval"):
            meta = json.loads((stage_dir / "meta.json").read_text())
            assert meta["seed"] == 1
            digests.add(meta["manifest_sha256"])
        assert len(digests) == 1  # every stage ran from the same manifest

    def test_eval_report_covers_all_observables(self, pipeline_dir):
        report = json.loads(
            (pipeline_dir / "out" / "heterogeneous" / "eval" / "report.json").read_text())
        assert set(report["r2"]) == {
            "compute_time_s", "input_files_transfer_time_s",
            "output_files_transfer_time_s", "start_time_s", "end_time_s"}

    def test_speedup_table_has_all_sizes(self, pipeline_dir):
        lines = (pipeline_dir / "out" / "heterogeneous" / "bench"
                 / "speedup.csv").read_text().strip().splitlines()
        assert len(lines) == 2  # header + the single 20-job size

    def test_tune_audits_every_trial_and_keeps_the_best(self, pipeline_dir):
        result = CliRunner().invoke(
            main, ["tune", "--manifest", str(pipeline_dir / "manifest.json"), "--epochs", "1"])
        assert result.exit_code == 0, result.output
        n_trials = int(re.search(r"after (\d+) trials", result.output).group(1))
        tune = pipeline_dir / "out" / "heterogeneous" / "tune"
        with open(tune / "audit.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["trial_id"]) for r in rows] == list(range(n_trials))
        assert [r["stage"] for r in rows[:N_RANDOM]] == ["random"] * N_RANDOM
        sweeps = rows[N_RANDOM:]
        assert sorted({int(r["survivor"]) for r in sweeps}) == list(range(N_SURVIVORS))
        for rank in range(N_SURVIVORS):
            params = [r["stage"].removeprefix("sweep:") for r in sweeps
                      if int(r["survivor"]) == rank]
            assert tuple(dict.fromkeys(params)) == COORDINATE_ORDER
            assert params == sorted(params, key=COORDINATE_ORDER.index)
        best = json.loads((tune / "best_config.json").read_text(encoding="utf-8"))
        assert ModelConfig.from_dict(best["config"]).architecture == "bigru"
        assert best["eval_loss"] == min(float(r["eval_loss"]) for r in rows
                                        if r["status"] == "ok")
        assert (tune / "meta.json").exists()

    def test_simulate_rerun_bitwise_identical(self, pipeline_dir):
        base = pipeline_dir / "out" / "heterogeneous"
        before = {p: p.read_bytes() for p in base.glob("sim_*/*.csv")}
        result = CliRunner().invoke(
            main, ["simulate", "--manifest", str(pipeline_dir / "manifest.json")])
        assert result.exit_code == 0
        for p, data in before.items():
            assert p.read_bytes() == data


class TestErrorPaths:
    def test_preprocess_before_simulate(self, tmp_path):
        result = CliRunner().invoke(
            main, ["preprocess", "--out", str(tmp_path), "--scenario", "homogeneous"])
        assert result.exit_code != 0
        assert "run `simsurrogate simulate` first" in result.output

    def test_evaluate_before_train(self, pipeline_dir, tmp_path):
        # simulated+preprocessed tree without a checkpoint
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(TINY | {"out": str(tmp_path / "out")}))
        runner = CliRunner()
        for cmd in ("simulate", "preprocess"):
            assert runner.invoke(main, [cmd, "--manifest", str(manifest)]).exit_code == 0
        result = runner.invoke(main, ["evaluate", "--manifest", str(manifest)])
        assert result.exit_code != 0
        assert "run `simsurrogate train` first" in result.output

    def test_bad_scenario_flag_rejected(self):
        result = CliRunner().invoke(main, ["simulate", "--scenario", "mixed"])
        assert result.exit_code != 0

    def test_unknown_manifest_scenario_exits_3_before_writing(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"scenario": "galactic", "out": str(tmp_path / "out")}))
        result = CliRunner().invoke(main, ["simulate", "--manifest", str(path)])
        assert result.exit_code == 3
        assert "unknown scenario 'galactic'" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("sims_per_batch", "two"), ("sims_per_batch", True), ("job_counts", [20, 1.5]),
        ("include_extrapolation", 1), ("learning_rate", "fast"), ("scenario", 3),
    ])
    def test_mistyped_manifest_value_rejected_before_writing(self, tmp_path, key, value):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({key: value, "out": str(tmp_path / "out")}))
        result = CliRunner().invoke(main, ["simulate", "--manifest", str(path)])
        assert result.exit_code == 1
        assert f"manifest values of the wrong type: {key}=" in result.output
        assert not isinstance(result.exception, TypeError)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", ["5", "null", "[]", '"heterogeneous"'])
    def test_manifest_that_is_not_an_object_rejected_before_writing(self, tmp_path, text):
        path = tmp_path / "m.json"
        path.write_text(text)
        result = CliRunner().invoke(main, ["simulate", "--manifest", str(path),
                                           "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert "manifest must be a JSON object" in result.output
        assert isinstance(result.exception, SystemExit)
        assert not (tmp_path / "out").exists()

    def test_well_typed_manifest_values_accepted(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"learning_rate": 1, "job_counts": [], "arch": "bilstm",
                                    "include_extrapolation": False}))
        man = resolve_manifest(str(path))
        assert man.learning_rate == 1 and man.job_counts == [] and man.arch == "bilstm"

    def test_negative_job_count_exits_3_before_writing(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"job_counts": [-5], "out": str(tmp_path / "out")}))
        result = CliRunner().invoke(main, ["simulate", "--manifest", str(path)])
        assert result.exit_code == 3
        assert "must be nonnegative" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("classes, message", [
        ({"classes": [asdict(DEFAULT_JOB_CLASSES[0]) | {"oops": 1}]}, "unknown keys ['oops']"),
        ({"classes": []}, "nonempty 'classes' list"),
        ({"classes": [asdict(DEFAULT_JOB_CLASSES[0]) | {"flops_median": 0}]}, "must be positive"),
        ({"classes": [asdict(DEFAULT_JOB_CLASSES[0]) | {"mean_interarrival_s": math.inf}]},
         "must be finite"),
        ({"classes": [asdict(DEFAULT_JOB_CLASSES[0]) | {"class_id": 1.5}]},
         "class_id must be an integer"),
    ])
    def test_bad_job_class_table_exits_3_before_writing(self, tmp_path, classes, message):
        table = tmp_path / "classes.json"
        table.write_text(json.dumps(classes))
        path = tmp_path / "m.json"
        path.write_text(json.dumps(TINY | {"out": str(tmp_path / "out"),
                                           "job_classes": str(table)}))
        result = CliRunner().invoke(main, ["simulate", "--manifest", str(path)])
        assert result.exit_code == 3
        assert message in result.output
        assert not (tmp_path / "out").exists()

    def test_job_class_beyond_float_range_exits_3_before_writing(self, tmp_path):
        # JSON keeps a 401-digit integer as a Python int, which float() cannot hold
        table = tmp_path / "classes.json"
        table.write_text(json.dumps(
            {"classes": [asdict(DEFAULT_JOB_CLASSES[0]) | {"flops_median": 10**400}]}))
        path = tmp_path / "m.json"
        path.write_text(json.dumps(TINY | {"out": str(tmp_path / "out"),
                                           "job_classes": str(table)}))
        result = CliRunner().invoke(main, ["simulate", "--manifest", str(path)])
        assert result.exit_code == 3
        assert "must be finite" in result.output
        assert not (tmp_path / "out").exists()

    def test_empty_train_split_exits_5_before_writing(self, tmp_path):
        # one simulation per job count, and 0.3 rounds down to none of it
        path = tmp_path / "m.json"
        path.write_text(json.dumps(TINY | {"out": str(tmp_path / "out"), "sims_per_batch": 1,
                                           "job_counts": [20], "train_fraction": 0.3}))
        runner = CliRunner()
        assert runner.invoke(main, ["simulate", "--manifest", str(path)]).exit_code == 0
        result = runner.invoke(main, ["preprocess", "--manifest", str(path)])
        assert result.exit_code == 5
        assert "leaves no training simulation" in result.output
        assert not (tmp_path / "out" / "heterogeneous" / "preprocess").exists()

    def test_rerun_scores_no_sample_set_of_an_earlier_suite(self, tmp_path):
        # the first suite has an eval split (one 20- and one 30-job simulation)
        # and an extrapolation run; the second is a lone 20-job simulation
        path = tmp_path / "m.json"
        runner = CliRunner()
        for doc in ({"job_counts": [20, 30], "include_extrapolation": True,
                     "extrapolation_jobs": 40, "extrapolation_simulations": 1},
                    {"sims_per_batch": 1}):
            path.write_text(json.dumps(TINY | {"out": str(tmp_path / "out")} | doc))
            for cmd in ("simulate", "preprocess", "train", "evaluate"):
                result = runner.invoke(main, [cmd, "--manifest", str(path)])
                assert result.exit_code == 0, f"{cmd}: {result.output}"
        assert "extrapolation r2" not in result.output
        base = tmp_path / "out" / "heterogeneous"
        assert [p.name for p in (base / "preprocess").glob("*_samples.csv")] == [
            "train_samples.csv"]
        assert not (base / "eval" / "extrapolation").exists()
        # with no eval simulation the train samples are scored
        assert json.loads((base / "eval" / "report.json").read_text())["n_rows"] == 20

    @staticmethod
    def copy_of_pipeline(pipeline_dir, tmp_path) -> Path:
        """A manifest over a copy of the shared pipeline's output tree."""
        shutil.copytree(pipeline_dir / "out", tmp_path / "out")
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(TINY | {"out": str(tmp_path / "out")}))
        return manifest

    @pytest.mark.parametrize("text", ['{"mean": [1]}', "[1]", '{"mean": [1, 2], "std": [1], '
                                      '"names": []}', "{not json"])
    def test_malformed_standardizer_exits_5(self, pipeline_dir, tmp_path, text):
        manifest = self.copy_of_pipeline(pipeline_dir, tmp_path)
        (tmp_path / "out" / "heterogeneous" / "preprocess" / "feature_std.json").write_text(text)
        result = CliRunner().invoke(main, ["train", "--manifest", str(manifest)])
        assert result.exit_code == 5, result.output
        assert isinstance(result.exception, SystemExit)  # a typed error, no traceback
        assert "feature_std.json" in result.output

    @pytest.mark.parametrize("doc", [{"runs": 5}, [], {"simulations": [{"simulation_id": 0}]},
                                     {"simulations": [{"simulation_id": 0, "n_jobs": -1,
                                                       "kind": "train"}]}])
    def test_malformed_suite_exits_3(self, pipeline_dir, tmp_path, doc):
        manifest = self.copy_of_pipeline(pipeline_dir, tmp_path)
        (tmp_path / "out" / "heterogeneous" / "suite.json").write_text(json.dumps(doc))
        result = CliRunner().invoke(main, ["preprocess", "--manifest", str(manifest)])
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)  # a typed error, no traceback
        assert "suite.json needs a 'simulations' list" in result.output

    def test_object_dtype_checkpoint_member_exits_6(self, pipeline_dir, tmp_path):
        manifest = self.copy_of_pipeline(pipeline_dir, tmp_path)
        path = tmp_path / "out" / "heterogeneous" / "model" / "checkpoint.npz"
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["param/out.W"] = arrays["param/out.W"].astype(object)
        np.savez(path, **arrays)
        result = CliRunner().invoke(main, ["evaluate", "--manifest", str(manifest)])
        assert result.exit_code == 6, result.output
        assert isinstance(result.exception, SystemExit)  # a typed error, no traceback
        assert "checkpoint.npz is not a checkpoint" in result.output

    @pytest.mark.parametrize("doc", [{"arch": "transformer", "num_heads": 0},
                                     {"batch_size": 0}, {"batch_size": -1}])
    def test_degenerate_model_config_exits_6(self, pipeline_dir, tmp_path, doc):
        manifest = self.copy_of_pipeline(pipeline_dir, tmp_path)
        manifest.write_text(json.dumps(TINY | {"out": str(tmp_path / "out")} | doc))
        result = CliRunner().invoke(main, ["train", "--manifest", str(manifest)])
        assert result.exit_code == 6, result.output
        assert isinstance(result.exception, SystemExit)  # a typed error, no traceback
        assert "must be positive" in result.output

    @pytest.mark.parametrize("key, value", [("hidden_size", "x"), ("window_overlap", None),
                                            ("seed", "s")])
    def test_mistyped_checkpoint_config_exits_6(self, pipeline_dir, tmp_path, key, value):
        manifest = self.copy_of_pipeline(pipeline_dir, tmp_path)
        path = tmp_path / "out" / "heterogeneous" / "model" / "checkpoint.npz"
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        header = json.loads(arrays["__header__"].tobytes())
        header["config"][key] = value
        arrays["__header__"] = np.frombuffer(json.dumps(header).encode("utf-8"), np.uint8)
        np.savez(path, **arrays)
        result = CliRunner().invoke(main, ["evaluate", "--manifest", str(manifest)])
        assert result.exit_code == 6, result.output
        assert isinstance(result.exception, SystemExit)  # a typed error, no traceback
        assert f"{key} must be an integer" in result.output

    def test_invalid_manifest_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        result = CliRunner().invoke(main, ["simulate", "--manifest", str(path)])
        assert result.exit_code != 0
        assert "not valid JSON" in result.output


SMALL = TINY | {"sims_per_batch": 4, "include_extrapolation": True, "extrapolation_jobs": 40,
                "extrapolation_simulations": 1, "hidden_size": 4, "max_epochs": 1,
                "patience": 1}


class TestExperiment:
    """The in-memory experiment against the staged pipeline at desk size: the
    same samples, standardizers, model and scores, bit for bit."""

    @pytest.fixture(scope="class")
    def staged(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("experiment")
        path = root / "m.json"
        path.write_text(json.dumps(SMALL | {"out": str(root / "out")}))
        for cmd in ("simulate", "preprocess", "train", "evaluate"):
            result = CliRunner().invoke(main, [cmd, "--manifest", str(path)])
            assert result.exit_code == 0, f"{cmd}: {result.output}"
        man = resolve_manifest(str(path))
        return man, root / "out" / "heterogeneous", cli.simulate_suite(man)

    @pytest.fixture(scope="class")
    def experiment(self, staged):
        man, _, suite = staged
        return cli.run_experiment(man, *suite)

    def test_suite_holds_the_simulated_training_runs(self, staged):
        _, base, (tables, lengths) = staged
        sims = json.loads((base / "suite.json").read_text())["simulations"]
        train = {s["simulation_id"]: s["n_jobs"] for s in sims if s["kind"] == "train"}
        assert lengths == train and sorted(tables) == sorted(train)

    def test_split_and_standardizers_match_preprocess(self, staged, tmp_path):
        man, base, (tables, lengths) = staged
        split, train, eval_, f_std, t_std = cli.split_samples(man, lengths, tables.__getitem__)
        pre = base / "preprocess"
        assert split.to_json() == (pre / "split.json").read_text()
        for name, table in (("train", train), ("eval", eval_)):
            write_samples_csv(tmp_path / name, table)
            assert (tmp_path / name).read_bytes() == (pre / f"{name}_samples.csv").read_bytes()
        assert f_std.to_json() == (pre / "feature_std.json").read_text()
        assert t_std.to_json() == (pre / "target_std.json").read_text()

    def test_checkpoint_and_r2_match_the_staged_pipeline(self, staged, experiment, tmp_path):
        _, base, _ = staged
        report, ckpt = experiment
        written = load_checkpoint(base / "model" / "checkpoint.npz")
        assert ckpt.params.keys() == written.params.keys()
        for name, value in ckpt.params.items():
            assert value.dtype == written.params[name].dtype, name
            assert value.tobytes() == written.params[name].tobytes(), name
        write_report(tmp_path, report)
        assert (tmp_path / "r2.csv").read_bytes() == (base / "eval" / "r2.csv").read_bytes()

    def test_checkpoint_config_and_bit_equal_r2_on_a_second_call(self, staged, experiment):
        man, _, suite = staged
        report, ckpt = experiment
        assert ckpt.config == cli._model_config(man)
        assert (ckpt.scenario, ckpt.seed) == (man.scenario, man.seed)
        again, _ = cli.run_experiment(man, *suite)
        assert repr(again.r2) == repr(report.r2)


def read_speedup(out: Path) -> list[dict]:
    with open(out / "heterogeneous" / "bench" / "speedup.csv", newline="") as fh:
        return list(csv.DictReader(fh))


class TestBench:
    def test_speedup_is_simulator_over_surrogate_seconds(self, pipeline_dir):
        rows = read_speedup(pipeline_dir / "out")
        assert list(rows[0]) == ["scenario", "n_jobs", "simulator_seconds",
                                 "surrogate_seconds", "speedup"]
        assert [(r["scenario"], r["n_jobs"]) for r in rows] == [("heterogeneous", "20")]
        for r in rows:
            assert float(r["speedup"]) == (float(r["simulator_seconds"])
                                           / float(r["surrogate_seconds"]))

    def test_one_workload_per_size_with_manifest_job_classes(
            self, pipeline_dir, tmp_path, monkeypatch):
        model = tmp_path / "out" / "heterogeneous" / "model"
        model.mkdir(parents=True)
        shutil.copy(pipeline_dir / "out" / "heterogeneous" / "model" / "checkpoint.npz", model)
        classes = DEFAULT_JOB_CLASSES[:2]
        (tmp_path / "classes.json").write_text(
            json.dumps({"classes": [asdict(c) for c in classes]}))
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(TINY | {
            "out": str(tmp_path / "out"), "job_counts": [20, 10, 20],
            "job_classes": str(tmp_path / "classes.json"), "bench_repeats": 2}))
        calls = []
        generate = cli.generate_workload

        def spy(scenario, n_jobs, simulation_id, seed, classes=None):
            calls.append((n_jobs, classes))
            return generate(scenario, n_jobs, simulation_id, seed, classes)

        monkeypatch.setattr(cli, "generate_workload", spy)
        result = CliRunner().invoke(main, ["bench", "--manifest", str(manifest)])
        assert result.exit_code == 0, result.output
        assert calls == [(10, classes), (20, classes)]
        assert [r["n_jobs"] for r in read_speedup(tmp_path / "out")] == ["10", "20"]

    def test_empty_suite_rejected_before_writing(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(TINY | {"out": str(tmp_path / "out"), "job_counts": []}))
        result = CliRunner().invoke(main, ["bench", "--manifest", str(path)])
        assert result.exit_code == 4
        assert "bench suite must be nonempty" in result.output
        assert not (tmp_path / "out").exists()

    def test_zero_repeats_is_usage_error_before_writing(self, tmp_path):
        result = CliRunner().invoke(
            main, ["bench", "--repeats", "0", "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "--repeats must be at least 1" in result.output
        assert not (tmp_path / "out").exists()


class TestPoolSize:
    def test_requested_within_bounds_is_kept(self):
        assert pool_size(2, n_tasks=40, cpus=2) == 2

    def test_clamped_to_cpus(self):
        assert pool_size(64, n_tasks=40, cpus=2) == 2

    def test_clamped_to_simulations(self):
        assert pool_size(8, n_tasks=3, cpus=16) == 3

    def test_unknown_cpu_count_runs_serially(self):
        assert pool_size(4, n_tasks=40, cpus=None) == 1

    def test_no_simulations_runs_serially(self):
        assert pool_size(4, n_tasks=0, cpus=4) == 1

    @pytest.mark.parametrize("requested", [0, -3])
    def test_below_one_rejected(self, requested):
        with pytest.raises(click.UsageError, match="--jobs"):
            pool_size(requested, n_tasks=40, cpus=2)

    def test_cli_rejects_zero_jobs_before_writing(self, tmp_path):
        result = CliRunner().invoke(
            main, ["simulate", "--jobs", "0", "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "--jobs must be at least 1" in result.output
        assert not (tmp_path / "out").exists()


def test_parallel_simulate_matches_serial(tmp_path):
    manifest = tmp_path / "m.json"
    runner = CliRunner()
    outputs = {}
    for label, jobs in (("serial", 1), ("parallel", 2)):
        out = tmp_path / label
        manifest.write_text(json.dumps(TINY | {"out": str(out), "jobs": jobs}))
        assert runner.invoke(main, ["simulate", "--manifest", str(manifest)]).exit_code == 0
        outputs[label] = {
            p.relative_to(out): p.read_bytes()
            for p in out.glob("heterogeneous/sim_*/*.csv")
        }
    assert outputs["serial"] == outputs["parallel"]

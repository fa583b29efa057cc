"""Command-line pipeline: simulate -> preprocess -> train/tune -> evaluate/bench.

Every stage reads a merged experiment manifest (defaults < manifest file <
flags) and writes a meta sidecar with the manifest hash and seed so runs are
auditable and reproducible.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import os
import shutil
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import click

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .engine import run_simulation
from .errors import (
    EvalError,
    JoinError,
    ModelConfigError,
    PlatformFormatError,
    PlatformValidationError,
    PreprocessError,
    SimSurrogateError,
    SimulationError,
    TrainingError,
    WorkloadError,
)
from .evaluate import (EvalReport, evaluate_model, predict_rows, speedup_row, time_call,
                       write_report, write_speedup_csv)
from .nn.models import ARCHITECTURES, ModelConfig
from .platform import builtin_platform
from .preprocess import (
    Standardizer,
    fit_standardizer,
    make_windows,
    split_train_eval,
    standardize_table,
)
from .scenarios import SCENARIOS, get_scenario
from .traceio import (
    TARGET_OBSERVABLES,
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
from .train import TrainConfig, evaluate_loss, train_model
from .tuner import tune_hyperparameters, write_audit_csv
from .workload import (
    EXTRAPOLATION_JOB_COUNT,
    EXTRAPOLATION_SIMULATIONS,
    TRAIN_JOB_COUNTS,
    DEFAULT_JOB_CLASSES,
    JobClassSpec,
    SuiteEntry,
    generate_workload,
    load_job_classes,
)

EXIT_CODES = {
    PlatformFormatError: 3,
    PlatformValidationError: 3,
    WorkloadError: 3,
    SimulationError: 4,
    JoinError: 5,
    PreprocessError: 5,
    ModelConfigError: 6,
    TrainingError: 6,
    EvalError: 7,
}


@dataclass
class ExperimentManifest:
    """Resolved settings for one experiment; desk-scale defaults."""

    scenario: str = "heterogeneous"
    out: str = "out"
    seed: int = 0
    sims_per_batch: int = 20
    job_counts: list[int] = field(default_factory=lambda: list(TRAIN_JOB_COUNTS))
    include_extrapolation: bool = True
    extrapolation_jobs: int = EXTRAPOLATION_JOB_COUNT
    extrapolation_simulations: int = EXTRAPOLATION_SIMULATIONS
    job_classes: str = ""  # optional path overriding the builtin class table
    train_fraction: float = 0.7
    arch: str = "bigru"
    hidden_size: int = 32
    num_layers: int = 1
    window_size: int = 16
    window_overlap: int = 0
    batch_size: int = 32
    num_heads: int = 2
    learning_rate: float = 1e-3
    max_epochs: int = 200
    patience: int = 20
    tune_max_epochs: int = 30
    bench_repeats: int = 1
    jobs: int = 1

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(asdict(self), sort_keys=True).encode("utf-8")
        ).hexdigest()


def _has_type(value, tp) -> bool:
    """Whether a JSON value fits a manifest field type.  A bool is not a
    number, and an int is a valid float."""
    if typing.get_origin(tp) is list:
        (item,) = typing.get_args(tp)
        return isinstance(value, list) and all(_has_type(v, item) for v in value)
    if isinstance(value, bool):
        return tp is bool
    return isinstance(value, (int, float) if tp is float else tp)


def _type_name(tp) -> str:
    return str(tp) if typing.get_args(tp) else tp.__name__


def resolve_manifest(manifest_path: str | None, **flags) -> ExperimentManifest:
    """Merge defaults, manifest file, and explicit flags (in rising priority)."""
    values: dict = {}
    if manifest_path:
        try:
            doc = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise click.ClickException(f"cannot read manifest: {exc}")
        except json.JSONDecodeError as exc:
            raise click.ClickException(f"manifest is not valid JSON: {exc}")
        if not isinstance(doc, dict):
            raise click.ClickException("manifest must be a JSON object")
        types = typing.get_type_hints(ExperimentManifest)
        unknown = set(doc) - set(types)
        if unknown:
            raise click.ClickException(f"unknown manifest keys: {sorted(unknown)}")
        mistyped = [f"{k}={v!r} (wants {_type_name(types[k])})"
                    for k, v in doc.items() if not _has_type(v, types[k])]
        if mistyped:
            raise click.ClickException(f"manifest values of the wrong type: {', '.join(mistyped)}")
        values.update(doc)
    values.update({k: v for k, v in flags.items() if v is not None})
    man = ExperimentManifest(**values)
    get_scenario(man.scenario)
    return man


def _scenario_dir(man: ExperimentManifest) -> Path:
    return Path(man.out) / man.scenario


def _write_meta(directory: Path, stage: str, man: ExperimentManifest) -> None:
    meta = {"stage": stage, "manifest_sha256": man.digest(), "seed": man.seed,
            "manifest": asdict(man)}
    (directory / "meta.json").write_text(json.dumps(meta, indent=2), encoding="utf-8")


def _suite(man: ExperimentManifest) -> list[SuiteEntry]:
    suite = [SuiteEntry(int(n), man.sims_per_batch, "train") for n in man.job_counts]
    if man.include_extrapolation:
        suite.append(SuiteEntry(man.extrapolation_jobs, man.extrapolation_simulations,
                                "extrapolation"))
    return suite


def _runs(man: ExperimentManifest) -> list[tuple[int, str]]:
    """(n_jobs, kind) of every simulation of the suite; its index is the simulation id."""
    return [(e.n_jobs, e.kind) for e in _suite(man) for _ in range(e.n_simulations)]


def _job_classes(man: ExperimentManifest) -> tuple[JobClassSpec, ...]:
    return load_job_classes(man.job_classes) if man.job_classes else DEFAULT_JOB_CLASSES


def _simulate_one(args) -> None:
    scenario, sim_id, n_jobs, seed, sim_dir, classes = args
    platform = builtin_platform(scenario)
    jobs, datasets = generate_workload(scenario, n_jobs, sim_id, seed, classes)
    traces = run_simulation(platform, jobs, datasets)
    sim_dir.mkdir(parents=True, exist_ok=True)
    write_workload_csv(sim_dir / "workload.csv", jobs, datasets.sizes())
    write_trace_csv(sim_dir / "trace.csv", traces)


def pool_size(requested: int, n_tasks: int, cpus: int | None) -> int:
    """Worker processes for `simulate --jobs requested`: at most one per CPU
    and one per simulation; 1 means run in this process."""
    if requested < 1:
        raise click.UsageError(f"--jobs must be at least 1, got {requested}")
    return max(1, min(requested, cpus or 1, n_tasks))


def _require(path: Path, prior: str) -> Path:
    if not path.exists():
        raise click.ClickException(f"missing {path}; run `simsurrogate {prior}` first")
    return path


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except SimSurrogateError as exc:
            code = EXIT_CODES.get(type(exc), 1)
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(code)
        except OSError as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(1)
    return wrapper


def common_options(fn):
    fn = click.option("--manifest", "manifest_path", type=click.Path(), default=None,
                      help="JSON manifest; flags override its values.")(fn)
    fn = click.option("--scenario", type=click.Choice(list(SCENARIOS)), default=None)(fn)
    fn = click.option("--sims-per-batch", type=int, default=None)(fn)
    fn = click.option("--seed", type=int, default=None)(fn)
    fn = click.option("--arch", type=click.Choice(ARCHITECTURES), default=None)(fn)
    fn = click.option("--out", type=click.Path(), default=None)(fn)
    fn = click.option("--jobs", type=int, default=None, help="Worker process cap.")(fn)
    return fn


@click.group()
def main():
    """Distributed-computing simulator with sequence-model surrogates."""


@main.command()
@common_options
@click.option("--job-classes", type=click.Path(exists=True), default=None,
              help="JSON job-class table overriding the builtin one.")
@_handle_errors
def simulate(manifest_path, job_classes, **flags):
    """Generate workloads and run the simulator over the scenario suite."""
    man = resolve_manifest(manifest_path, job_classes=job_classes, **flags)
    base = _scenario_dir(man)
    classes = _job_classes(man)
    runs = _runs(man)
    sims = [{"simulation_id": i, "n_jobs": n, "kind": kind} for i, (n, kind) in enumerate(runs)]
    tasks = [(man.scenario, i, n, man.seed, base / f"sim_{i}", classes)
             for i, (n, _) in enumerate(runs)]
    workers = pool_size(man.jobs, len(tasks), os.cpu_count())
    base.mkdir(parents=True, exist_ok=True)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            list(pool.map(_simulate_one, tasks))
    else:
        for task in tasks:
            _simulate_one(task)
    (base / "suite.json").write_text(
        json.dumps({"scenario": man.scenario, "seed": man.seed,
                    "manifest_sha256": man.digest(), "simulations": sims}, indent=2),
        encoding="utf-8")
    _write_meta(base, "simulate", man)
    click.echo(f"simulated {len(sims)} runs under {base}")


def _join_as_written(scenario: str, jobs, datasets, traces) -> SampleTable:
    """One run's samples as `preprocess` joins them, parsed from `simulate`'s lines."""
    return join_traces(scenario, read_workload_csv(workload_lines(jobs, datasets.sizes())),
                       read_trace_csv(trace_lines(traces)))


def simulate_suite(man: ExperimentManifest) -> tuple[dict[int, SampleTable], dict[int, int]]:
    """The suite's training simulations run in memory, with the ids and
    workloads `simulate` gives them: joined samples, bit-equal to those
    `preprocess` joins, and job count per id."""
    platform = builtin_platform(man.scenario)
    classes = _job_classes(man)
    lengths = {sid: n for sid, (n, kind) in enumerate(_runs(man)) if kind == "train"}
    tables = {}
    for sid, n in lengths.items():
        jobs, datasets = generate_workload(man.scenario, n, sid, man.seed, classes)
        tables[sid] = _join_as_written(man.scenario, jobs, datasets,
                                       run_simulation(platform, jobs, datasets))
    return tables, lengths


def _load_suite(man: ExperimentManifest) -> list[dict]:
    """suite.json's simulations, each an object with an integer
    `simulation_id`, an integer `n_jobs` >= 0 and a `kind` of train or
    extrapolation; WorkloadError, as `SuiteEntry` raises, if it is not so."""
    path = _require(_scenario_dir(man) / "suite.json", "simulate")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise WorkloadError(f"{path} is not JSON: {exc}") from None
    sims = doc.get("simulations") if isinstance(doc, dict) else None

    def integer(value) -> bool:
        return isinstance(value, int) and not isinstance(value, bool)

    if not (isinstance(sims, list) and all(
            isinstance(s, dict) and integer(s.get("simulation_id")) and integer(s.get("n_jobs"))
            and s["n_jobs"] >= 0 and s.get("kind") in ("train", "extrapolation")
            for s in sims)):
        raise WorkloadError(f"{path} needs a 'simulations' list of objects, each with an "
                            f"integer 'simulation_id', an integer 'n_jobs' >= 0 and a "
                            f"'kind' of 'train' or 'extrapolation'")
    return sims


def _load_sim_table(man: ExperimentManifest, sim_id: int) -> SampleTable:
    sim_dir = _scenario_dir(man) / f"sim_{sim_id}"
    _require(sim_dir / "workload.csv", "simulate")
    rows = read_workload_csv(sim_dir / "workload.csv")
    traces = read_trace_csv(sim_dir / "trace.csv")
    return join_traces(man.scenario, rows, traces)


def split_samples(man: ExperimentManifest, lengths: dict[int, int], table):
    """Split the training simulations (job count by id), concatenate each side's
    samples (`table(sid)` gives one simulation's), fit the standardizers on the
    train side: (split, train, eval, f_std, t_std); no eval split scores train."""
    split = split_train_eval(lengths, man.train_fraction, man.seed)
    train_table = SampleTable.concat([table(sid) for sid in split.train_ids])
    eval_table = (SampleTable.concat([table(sid) for sid in split.eval_ids])
                  if split.eval_ids else train_table)
    f_std = fit_standardizer(train_table.features, names=train_table.feature_names)
    t_std = fit_standardizer(train_table.targets, names=train_table.target_names)
    return split, train_table, eval_table, f_std, t_std


@main.command()
@common_options
@_handle_errors
def preprocess(manifest_path, **flags):
    """Join traces into samples, split by simulation, fit standardizers."""
    man = resolve_manifest(manifest_path, **flags)
    sims = _load_suite(man)
    lengths = {s["simulation_id"]: s["n_jobs"] for s in sims if s["kind"] == "train"}
    split, train_table, eval_table, f_std, t_std = split_samples(
        man, lengths, functools.partial(_load_sim_table, man))
    outdir = _scenario_dir(man) / "preprocess"
    outdir.mkdir(parents=True, exist_ok=True)

    extra = [s["simulation_id"] for s in sims if s["kind"] == "extrapolation"]
    sets = {"train": train_table, "eval": eval_table if split.eval_ids else None,
            "extrapolation": (SampleTable.concat([_load_sim_table(man, sid) for sid in extra])
                              if extra else None)}
    for name, table in sets.items():
        path = outdir / f"{name}_samples.csv"
        if table is None:
            path.unlink(missing_ok=True)  # an earlier suite's set must not be scored
        else:
            write_samples_csv(path, table)

    (outdir / "split.json").write_text(split.to_json(), encoding="utf-8")
    (outdir / "feature_std.json").write_text(f_std.to_json(), encoding="utf-8")
    (outdir / "target_std.json").write_text(t_std.to_json(), encoding="utf-8")
    _write_meta(outdir, "preprocess", man)
    click.echo(f"preprocessed {len(lengths)} training simulations "
               f"({len(split.train_ids)} train / {len(split.eval_ids)} eval)")


def _eval_samples(pre: Path) -> Path:
    """Eval samples, or the training samples when the split left no eval simulation."""
    path = pre / "eval_samples.csv"
    return path if path.exists() else _require(pre / "train_samples.csv", "preprocess")


def _load_preprocessed(man: ExperimentManifest):
    """Standardized train and eval samples plus their standardizers."""
    pre = _scenario_dir(man) / "preprocess"
    train_path = _require(pre / "train_samples.csv", "preprocess")
    train_table = read_samples_csv(train_path)
    eval_path = _eval_samples(pre)
    eval_table = train_table if eval_path == train_path else read_samples_csv(eval_path)
    f_std, t_std = (Standardizer.from_json(path.read_text(encoding="utf-8"), str(path))
                    for path in (pre / "feature_std.json", pre / "target_std.json"))
    return (standardize_table(train_table, f_std, t_std),
            standardize_table(eval_table, f_std, t_std), f_std, t_std)


def _fit(man: ExperimentManifest, config: ModelConfig, scaled_train: SampleTable,
         scaled_eval: SampleTable, max_epochs: int):
    """Window both sample sets and train on them; returns params, history, eval windows."""
    train_batch = make_windows(scaled_train, config.window_size, config.window_overlap)
    eval_batch = make_windows(scaled_eval, config.window_size, config.window_overlap)
    params, history = train_model(
        TrainConfig(model=config, learning_rate=man.learning_rate, max_epochs=max_epochs,
                    patience=man.patience, seed=man.seed),
        train_batch, eval_batch)
    return params, history, eval_batch


def _model_config(man: ExperimentManifest) -> ModelConfig:
    return ModelConfig(
        architecture=man.arch,
        input_dim=len(feature_names(man.scenario)),
        output_dim=len(TARGET_OBSERVABLES),
        hidden_size=man.hidden_size,
        num_layers=man.num_layers,
        window_size=man.window_size,
        window_overlap=man.window_overlap,
        batch_size=man.batch_size,
        num_heads=man.num_heads,
        seed=man.seed,
    )


def _train(man: ExperimentManifest, scaled_train: SampleTable, scaled_eval: SampleTable,
           f_std: Standardizer, t_std: Standardizer):
    """The manifest's model trained for `max_epochs`; returns its checkpoint and history."""
    config = _model_config(man)
    params, history, _ = _fit(man, config, scaled_train, scaled_eval, man.max_epochs)
    return Checkpoint(config=config, params=params, feature_std=f_std, target_std=t_std,
                      scenario=man.scenario, seed=man.seed), history


def run_experiment(man: ExperimentManifest, tables: dict[int, SampleTable],
                   lengths: dict[int, int]) -> tuple[EvalReport, Checkpoint]:
    """`preprocess`, `train` and `evaluate` in memory on `simulate_suite`'s
    output: the eval split's report and the trained model."""
    _, train_table, eval_table, f_std, t_std = split_samples(man, lengths, tables.__getitem__)
    ckpt, _ = _train(man, standardize_table(train_table, f_std, t_std),
                     standardize_table(eval_table, f_std, t_std), f_std, t_std)
    report = evaluate_model(ckpt.config, ckpt.params, eval_table, f_std, t_std, seed=man.seed)
    return report, ckpt


@main.command()
@common_options
@click.option("--epochs", type=int, default=None, help="Override max_epochs.")
@click.option("--num-heads", type=int, default=None)
@_handle_errors
def train(manifest_path, epochs, num_heads, **flags):
    """Train one surrogate on the preprocessed samples; saves a checkpoint."""
    man = resolve_manifest(manifest_path, max_epochs=epochs, num_heads=num_heads, **flags)
    ckpt, history = _train(man, *_load_preprocessed(man))

    outdir = _scenario_dir(man) / "model"
    outdir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(outdir / "checkpoint.npz", ckpt)
    with open(outdir / "history.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "train_loss", "eval_loss"])
        for h in history:
            w.writerow([h.epoch, repr(h.train_loss), repr(h.eval_loss)])
    _write_meta(outdir, "train", man)
    best = min(h.eval_loss for h in history)
    click.echo(f"trained {man.arch} for {len(history)} epochs; best eval MSE {best:.6g}")


@main.command()
@common_options
@click.option("--epochs", type=int, default=None, help="Per-trial epoch budget.")
@_handle_errors
def tune(manifest_path, epochs, **flags):
    """Two-stage search over `tuner.SEARCH_SPACE`; writes an audit log and best config."""
    man = resolve_manifest(manifest_path, tune_max_epochs=epochs, **flags)
    scaled_train, scaled_eval, _, _ = _load_preprocessed(man)

    def train_fn(config: ModelConfig) -> float:
        params, _, eval_batch = _fit(man, config, scaled_train, scaled_eval,
                                     man.tune_max_epochs)
        return evaluate_loss(config, params, eval_batch)

    best_cfg, best_loss, audit = tune_hyperparameters(_model_config(man), train_fn, seed=man.seed)

    outdir = _scenario_dir(man) / "tune"
    outdir.mkdir(parents=True, exist_ok=True)
    write_audit_csv(outdir / "audit.csv", audit)
    (outdir / "best_config.json").write_text(
        json.dumps({"config": best_cfg.to_dict(), "eval_loss": best_loss}, indent=2),
        encoding="utf-8")
    _write_meta(outdir, "tune", man)
    click.echo(f"best config after {len(audit)} trials: eval MSE {best_loss:.6g}")


@main.command()
@common_options
@_handle_errors
def evaluate(manifest_path, **flags):
    """Score the trained surrogate: R-squared and KDE curves per observable."""
    man = resolve_manifest(manifest_path, **flags)
    ckpt = load_checkpoint(_require(_scenario_dir(man) / "model" / "checkpoint.npz", "train"))
    pre = _scenario_dir(man) / "preprocess"
    outdir = _scenario_dir(man) / "eval"
    extra = pre / "extrapolation_samples.csv"
    scored = [("", _eval_samples(pre), outdir)]
    if extra.exists():
        scored.append(("extrapolation ", extra, outdir / "extrapolation"))
    elif (outdir / "extrapolation").exists():
        shutil.rmtree(outdir / "extrapolation")  # an earlier suite's scores
    for label, path, report_dir in scored:
        report = evaluate_model(ckpt.config, ckpt.params, read_samples_csv(path),
                                ckpt.feature_std, ckpt.target_std, seed=man.seed)
        write_report(report_dir, report)
        for name, value in report.r2.items():
            click.echo(f"{label}r2[{name}] = {value:.4f}")
    _write_meta(outdir, "evaluate", man)


def time_speedup(platform, scenario: str, jobs, datasets, ckpt: Checkpoint, repeats: int) -> dict:
    """Simulator against surrogate on one workload (`jobs`, `datasets`), each
    side timed by `time_call` with `repeats`; returns its `speedup_row`."""
    traces, sim_s = time_call(lambda: run_simulation(platform, jobs, datasets), repeats)
    table = _join_as_written(scenario, jobs, datasets, traces)
    _, sur_s = time_call(lambda: predict_rows(ckpt.config, ckpt.params, table,
                                              ckpt.feature_std, ckpt.target_std), repeats)
    return speedup_row(scenario, len(jobs), sim_s, sur_s)


@main.command()
@common_options
@click.option("--repeats", type=int, default=None, help="Timing repeats per size.")
@_handle_errors
def bench(manifest_path, repeats, **flags):
    """Time simulator vs surrogate on each suite size; writes speedup.csv."""
    man = resolve_manifest(manifest_path, bench_repeats=repeats, **flags)
    if man.bench_repeats < 1:
        raise click.UsageError(f"--repeats must be at least 1, got {man.bench_repeats}")
    sizes = sorted({e.n_jobs for e in _suite(man)})
    if not sizes:
        raise SimulationError("bench suite must be nonempty")
    ckpt = load_checkpoint(_require(_scenario_dir(man) / "model" / "checkpoint.npz",
                                    "train"))
    classes = _job_classes(man)
    platform = builtin_platform(man.scenario)
    rows = [time_speedup(platform, man.scenario,
                         *generate_workload(man.scenario, n, 0, man.seed, classes),
                         ckpt, man.bench_repeats) for n in sizes]
    outdir = _scenario_dir(man) / "bench"
    outdir.mkdir(parents=True, exist_ok=True)
    write_speedup_csv(outdir / "speedup.csv", rows)
    _write_meta(outdir, "bench", man)
    for r in rows:
        click.echo(f"n_jobs={r['n_jobs']}: {r['speedup']:.1f}x")


if __name__ == "__main__":
    main()

"""The work the benchmark times: set-up, sim+predict rounds and CLI passes.

A *round* simulates one 10,000-job workload and predicts its rows with three
surrogates (4 operations). A *pass* runs the staged CLI once, `simulate
--jobs 2` -> `preprocess` -> `train` -> `evaluate` (4 operations); its CSV
traces must equal a serial in-process replay of its simulations. The set-up
generates the rounds' workloads and briefly trains the three surrogates.

Training seeds stay fixed at TRAIN_SEED and the benchmark's --seed picks the
workloads, so R² moves with the data and the code but not with the draw of
initial weights. Drawing the weights anew with each seed widens the spread of
extrapolation R² across seeds about threefold (README.md).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from simsurrogate import cli
from simsurrogate.checkpoint import load_checkpoint
from simsurrogate.engine import run_simulation
from simsurrogate.evaluate import predict_rows
from simsurrogate.nn.models import ModelConfig, model_forward, wrap_params
from simsurrogate.platform import builtin_platform
from simsurrogate.preprocess import Standardizer, fit_standardizer, make_windows
from simsurrogate.traceio import (
    TARGET_OBSERVABLES,
    SampleTable,
    feature_names,
    join_traces,
    read_samples_csv,
    read_trace_csv,
    read_workload_csv,
)
from simsurrogate.train import TrainConfig, train_model
from simsurrogate.workload import EXTRAPOLATION_JOB_COUNT, TRAIN_JOB_COUNTS, generate_workload

import checks

ARCHS = ("bigru", "bilstm", "transformer")
MODEL_SIZES = {
    "bigru": {"hidden_size": 24},
    "bilstm": {"hidden_size": 32},
    "transformer": {"hidden_size": 32, "num_heads": 2},
}
WINDOW = 16
BATCH = 32
TRAIN_SEED = 0
POOL_SIZE = 3  # distinct 10k workloads per run; odd, so alternate traced rounds meet each
TRAIN_SIMS = 16
TRAIN_JOBS = 100
SETUP_EPOCHS = 2
AUTODIFF_WINDOWS = 8

STAGES = ("simulate", "preprocess", "train", "evaluate")
SIM_PROCESSES = 2
PIPELINE_MANIFEST = {
    "scenario": "heterogeneous",
    "seed": TRAIN_SEED,
    "sims_per_batch": 2,
    "job_counts": list(TRAIN_JOB_COUNTS),
    "include_extrapolation": True,
    "extrapolation_jobs": EXTRAPOLATION_JOB_COUNT,
    "extrapolation_simulations": 2,
    "arch": "bigru",
    "hidden_size": 24,
    "window_size": WINDOW,
    "batch_size": BATCH,
    "max_epochs": 5,
    "patience": 5,
}


def workload_rows(jobs, datasets) -> list[dict]:
    """The workload columns `join_traces` expects, built from the inputs."""
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


def concat(tables: list[SampleTable]) -> SampleTable:
    first = tables[0]
    return SampleTable(
        first.scenario,
        np.concatenate([t.simulation_ids for t in tables]),
        np.concatenate([t.job_indices for t in tables]),
        np.concatenate([t.features for t in tables]),
        np.concatenate([t.targets for t in tables]),
        first.feature_names,
        first.target_names,
    )


@dataclass
class Workload:
    jobs: list
    datasets: object
    rows: list[dict]
    flops: np.ndarray


@dataclass
class Surrogate:
    config: ModelConfig
    params: dict[str, np.ndarray]
    feature_std: Standardizer
    target_std: Standardizer

    def predict(self, table: SampleTable) -> np.ndarray:
        return predict_rows(self.config, self.params, table, self.feature_std, self.target_std)[0]


@dataclass
class Setup:
    scenario: str
    platform: object
    pool: list[Workload]
    surrogates: dict[str, Surrogate]
    probes: list[SampleTable]  # two small simulations for the permutation check


def _generate(scenario, n_jobs, sim_id, seed, tracer) -> Workload:
    with tracer.span("workload.generate_s"):
        jobs, datasets = generate_workload(scenario, n_jobs, sim_id, seed)
    return Workload(jobs, datasets, workload_rows(jobs, datasets),
                    np.array([j.flops for j in jobs]))


def set_up(scenario: str, seed: int, tracer) -> Setup:
    """Generate the rounds' workloads and train the three surrogates."""
    platform = builtin_platform(scenario)
    pool = [_generate(scenario, EXTRAPOLATION_JOB_COUNT, sid, seed, tracer)
            for sid in range(POOL_SIZE)]
    tables = []
    for sid in range(POOL_SIZE, POOL_SIZE + TRAIN_SIMS):
        wl = _generate(scenario, TRAIN_JOBS, sid, seed, tracer)
        with tracer.span("engine.run_s"):
            traces = run_simulation(platform, wl.jobs, wl.datasets)
        with tracer.span("traceio.join_s"):
            tables.append(join_traces(scenario, wl.rows, traces))
    table = concat(tables)
    f_std = fit_standardizer(table.features, names=table.feature_names)
    t_std = fit_standardizer(table.targets, names=table.target_names)
    scaled = SampleTable(scenario, table.simulation_ids, table.job_indices,
                         f_std.transform(table.features), t_std.transform(table.targets),
                         table.feature_names, table.target_names)
    with tracer.span("preprocess.window_s") as rec:
        batch = make_windows(scaled, WINDOW, 0)
        if rec is not None:
            rec[4] += len(batch)  # the span's count
    no_eval = batch.select(np.arange(0))  # train_model then tracks the train loss
    surrogates = {}
    for arch in ARCHS:
        config = ModelConfig(arch, input_dim=len(feature_names(scenario)),
                             output_dim=len(TARGET_OBSERVABLES), window_size=WINDOW,
                             batch_size=BATCH, seed=TRAIN_SEED, **MODEL_SIZES[arch])
        params, _ = train_model(TrainConfig(config, max_epochs=SETUP_EPOCHS,
                                            patience=SETUP_EPOCHS, seed=TRAIN_SEED),
                                batch, no_eval)
        surrogates[arch] = Surrogate(config, params, f_std, t_std)
    return Setup(scenario, platform, pool, surrogates, tables[:2])


# -- rounds -------------------------------------------------------------------

def simulate(setup: Setup, index: int, tracer) -> tuple[list, float, SampleTable]:
    """Simulate one pool workload; time only run_simulation, then join the
    trace to the workload rows the surrogates read."""
    wl = setup.pool[index % POOL_SIZE]
    t0 = time.perf_counter()
    with tracer.span("engine.run_s"):
        traces = run_simulation(setup.platform, wl.jobs, wl.datasets)
    seconds = time.perf_counter() - t0
    with tracer.span("traceio.join_s"):
        table = join_traces(setup.scenario, wl.rows, traces)
    return traces, seconds, table


def predict(surrogate: Surrogate, table: SampleTable) -> tuple[np.ndarray, float]:
    t0 = time.perf_counter()
    preds = surrogate.predict(table)
    return preds, time.perf_counter() - t0


def check_round(setup: Setup, index: int, traces, preds: dict[str, np.ndarray]) -> None:
    checks.check_engine_trace(setup.platform, traces, setup.pool[index % POOL_SIZE].flops,
                              checks.MEMORY_TOL_S)
    checks.check_uplink_bound(setup.platform, traces)
    for arch, values in preds.items():
        checks.check_finite(values, arch)


def check_surrogates(setup: Setup, table: SampleTable, preds: dict[str, np.ndarray]) -> None:
    """Each surrogate's predict_rows against its autodiff forward and under
    a reordering of simulations."""
    for arch, s in setup.surrogates.items():
        scaled = SampleTable(table.scenario, table.simulation_ids, table.job_indices,
                             s.feature_std.transform(table.features),
                             np.zeros_like(table.targets), table.feature_names,
                             table.target_names)
        batch = make_windows(scaled, s.config.window_size, s.config.window_overlap)
        pick = np.linspace(0, len(batch) - 1, AUTODIFF_WINDOWS).astype(int)
        sub = batch.select(pick)
        slow = model_forward(s.config, wrap_params(s.params), sub.windows, sub.mask).data
        checks.check_matches_autodiff(preds[arch], table, slow, sub.provenance, sub.mask,
                                      s.target_std, arch)
        forward, backward = concat(setup.probes), concat(setup.probes[::-1])
        checks.check_permutation(s.predict(forward), forward, s.predict(backward), backward, arch)


# -- passes -------------------------------------------------------------------

def run_stage(stage: str, manifest: Path, seed: int, tracer) -> float:
    args = [stage, "--manifest", str(manifest)]
    if stage == "simulate":
        # --seed here picks the workloads; the manifest's seed drives training.
        args += ["--jobs", str(SIM_PROCESSES), "--seed", str(seed)]
    t0 = time.perf_counter()
    with tracer.span(f"cli.{stage}"), contextlib.redirect_stdout(io.StringIO()):
        cli.main(args, standalone_mode=False)
        if stage == "simulate" and tracer.active:
            tracer.collect_spool()
    return time.perf_counter() - t0


def write_manifest(workdir: Path) -> Path:
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "manifest.json"
    path.write_text(json.dumps(PIPELINE_MANIFEST | {"out": str(workdir / "out")}),
                    encoding="utf-8")
    return path


def scenario_dir(workdir: Path) -> Path:
    return workdir / "out" / PIPELINE_MANIFEST["scenario"]


@dataclass
class PassOutputs:
    """What a later pass must reproduce bit for bit, plus the R² it reported."""

    digest: str
    r2: float
    r2_extrapolation: float
    samples_bytes: int


def suite(workdir: Path) -> list[dict]:
    """The simulations a pass's `simulate` stage ran, from its suite.json."""
    path = scenario_dir(workdir) / "suite.json"
    return json.loads(path.read_text(encoding="utf-8"))["simulations"]


def replay(sim: dict, seed: int, tracer) -> tuple[list, float]:
    """Serial in-process run of one of a pass's simulations; times only
    run_simulation."""
    scenario = PIPELINE_MANIFEST["scenario"]
    with tracer.span("workload.generate_s"):
        jobs, datasets = generate_workload(scenario, sim["n_jobs"], sim["simulation_id"], seed)
    platform = builtin_platform(scenario)
    t0 = time.perf_counter()
    with tracer.span("engine.run_s"):
        traces = run_simulation(platform, jobs, datasets)
    return traces, time.perf_counter() - t0


def serial_references(workdir: Path, seed: int, tracer) -> dict[int, list]:
    """Replay of every simulation of a pass, keyed by simulation id."""
    return {sim["simulation_id"]: replay(sim, seed, tracer)[0] for sim in suite(workdir)}


def check_pass(workdir: Path, references: dict[int, list]) -> PassOutputs:
    """Invariants of every simulation, its CSV trace against the serial
    in-process `references`, and the reported R² against R² recomputed
    from predict_rows."""
    base = scenario_dir(workdir)
    platform = builtin_platform(PIPELINE_MANIFEST["scenario"])
    sims = suite(workdir)
    checks.require(sorted(references) == sorted(s["simulation_id"] for s in sims),
                   "serial replay does not cover the pass's simulations")
    for sim in sims:
        sim_dir = base / f"sim_{sim['simulation_id']}"
        rows = read_workload_csv(sim_dir / "workload.csv")
        traces = read_trace_csv(sim_dir / "trace.csv")
        checks.check_engine_trace(platform, traces, np.array([r["flops"] for r in rows]),
                                  checks.CSV_TOL_S)
        checks.check_uplink_bound(platform, traces)
        checks.check_csv_matches(traces, references[sim["simulation_id"]], sim["simulation_id"])
    ckpt = load_checkpoint(base / "model" / "checkpoint.npz")
    r2 = {}
    for samples, report in (("eval_samples.csv", "eval"),
                            ("extrapolation_samples.csv", "eval/extrapolation")):
        table = read_samples_csv(base / "preprocess" / samples)
        preds, _ = predict_rows(ckpt.config, ckpt.params, table, ckpt.feature_std,
                                ckpt.target_std)
        checks.check_finite(preds, f"pipeline {report}")
        reported = checks.read_r2_csv(base / report / "r2.csv")
        checks.check_r2_report(reported, preds, table, f"pipeline {report}")
        r2[report] = reported["compute_time_s"]
    samples_bytes = sum(p.stat().st_size for p in (base / "preprocess").glob("*_samples.csv"))
    return PassOutputs(pass_digest(workdir), r2["eval"], r2["eval/extrapolation"], samples_bytes)


def pass_digest(workdir: Path) -> str:
    """Digest of a pass's traces and R² reports; equal digests mean the
    pipeline reproduced itself bit for bit."""
    base = scenario_dir(workdir)
    digest = hashlib.sha256()
    for sim in suite(workdir):
        digest.update((base / f"sim_{sim['simulation_id']}" / "trace.csv").read_bytes())
    for report in ("eval", "eval/extrapolation"):
        digest.update((base / report / "r2.csv").read_bytes())
    return digest.hexdigest()

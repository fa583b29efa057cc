"""Benchmark of the simulator and its surrogates, end to end and per layer.

    python3 perfbench/run.py --workload hetero-10k --seed 1 --seconds 4 --trace 0

Run from the repository root. The program is imported from `src/`. One
process runs one workload as a closed loop with a single caller. The last
line of standard output is a JSON object: `correct`, `attempted`, `failed`
and `metrics`. With `--trace 0` the metrics are the end-to-end ones. With
`--trace 1` they are the per-layer ones, from spans recorded around the calls
into each layer, plus the tracing overhead. See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread per process: `simulate --jobs 2` then uses two cores, and
# timings do not depend on how many cores the host offers.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# workload -> scenario of its rounds. A run is CYCLES cycles of a pass of the
# staged CLI and an equal share of --seconds of rounds, with a set-up before
# the pass in every odd-numbered cycle, so that every metric is sampled from
# the start of the run to its end.
WORKLOADS = {
    "hetero-10k": "heterogeneous",
    "homog-10k": "homogeneous",
}
CYCLES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_jobs_per_s": "jobs/s",
    "predict_rows_per_s.bigru": "rows/s",
    "predict_rows_per_s.bilstm": "rows/s",
    "predict_rows_per_s.transformer": "rows/s",
    "simulate_stage_s": "s",
    "preprocess_stage_s": "s",
    "train_stage_s": "s",
    "evaluate_stage_s": "s",
    "r2.compute_time_s": "1",
    "r2_extrapolation.compute_time_s": "1",
    "peak_rss_mib": "MiB",
}
PER_LAYER_UNITS = {
    "workload.generate_s": "s",
    "engine.run_s": "s",
    "engine.makespan_sim_s": "sim_s",
    "engine.peak_transfers": "count",
    "traceio.write_csv_s": "s",
    "traceio.read_csv_s": "s",
    "traceio.join_s": "s",
    "traceio.write_samples_s": "s",
    "traceio.read_samples_s": "s",
    "traceio.samples_bytes": "bytes",
    "preprocess.standardize_s": "s",
    "preprocess.window_s": "s",
    "preprocess.unwindow_s": "s",
    "preprocess.windows": "count",
    "models.forward_infer_s.bigru": "s",
    "models.forward_infer_s.bilstm": "s",
    "models.forward_infer_s.transformer": "s",
    "train.forward_s": "s",
    "train.backward_s": "s",
    "train.adam_s": "s",
    "train.steps": "count",
    "autodiff.tape_nodes": "count",
    "evaluate.kde_s": "s",
    "trace.overhead_pct": "%",
}


class Run:
    """One workload's run: its set-ups, rounds and passes, checks and tallies."""

    def __init__(self, parts, checks, tracer, scenario: str, seed: int, workdir: Path):
        self.parts, self.checks, self.tracer = parts, checks, tracer
        self.scenario, self.seed, self.workdir = scenario, seed, workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_s: list[float] = []
        self.sim_rate: list[float] = []  # jobs/s per round
        self.predict_rate: dict[str, list[float]] = {a: [] for a in parts.ARCHS}  # rows/s
        self.stage_s: dict[str, list[float]] = {s: [] for s in parts.STAGES}
        self.first_digests: dict[int, str] = {}
        self.engine_stats: dict[str, float] = {}
        self.pass_outputs = None
        self.rounds = 0
        self.passes = 0

    def _op(self, fn, *args):
        """Run one timed operation; a failure is counted, not raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except (Exception, SystemExit) as exc:  # click stages exit on program errors
            self.failed += 1
            print(f"operation {fn.__name__} failed: {exc!r}", file=sys.stderr)
            return None

    def _check(self, fn, *args):
        try:
            return fn(*args)
        except Exception as exc:
            self.problems.append(f"{fn.__name__}: {exc}")
            print(f"check {fn.__name__} failed: {exc}", file=sys.stderr)
            return None

    def _predict_all(self, table) -> dict:
        preds = {}
        for arch, surrogate in self.setup.surrogates.items():
            got = self._op(self.parts.predict, surrogate, table)
            if got is not None:
                preds[arch] = got[0]
                self.predict_rate[arch].append(len(table) / got[1])
        return preds

    def _engine_stats(self, traces) -> None:
        self.engine_stats = {
            "engine.makespan_sim_s": self.checks.makespan_s(traces),
            "engine.peak_transfers": self.checks.peak_transfers(traces),
        }

    def set_up(self, traced: bool) -> None:
        with self.tracer.unit("setup", traced):
            t0 = time.perf_counter()
            self.setup = self.parts.set_up(self.scenario, self.seed, self.tracer)
            self.setup_s.append(time.perf_counter() - t0)

    def unit_time(self, kind: str) -> float:
        """Time spent in units of one kind so far, their checks excluded."""
        return sum(s for k, _, s in self.tracer.units if k == kind)

    def rounds_until(self, seconds: float, trace: bool) -> None:
        """Whole rounds until the rounds' own time reaches `seconds`. A traced
        run traces two rounds of every four, in the order traced, untraced,
        untraced, traced, so that the overhead compares rounds in like
        positions after each pass and check."""
        while self.unit_time("round") < seconds or (trace and self.rounds < 2):
            self.round(traced=trace and self.rounds % 4 in (0, 3))

    def round(self, traced: bool) -> None:
        parts, i = self.parts, self.rounds
        self.rounds += 1
        with self.tracer.unit("round", traced):
            sim = self._op(parts.simulate, self.setup, i, self.tracer)
            if sim is None:
                for _ in self.setup.surrogates:
                    self._op(_nothing_to_predict)
                return
            traces, seconds, table = sim
            preds = self._predict_all(table)
        self.sim_rate.append(len(traces) / seconds)
        self._check(parts.check_round, self.setup, i, traces, preds)
        slot = i % parts.POOL_SIZE
        digest = self.checks.trace_digest(traces)
        if slot in self.first_digests:
            self._check(self.checks.check_identical, self.first_digests[slot], digest,
                        "simulation of one workload")
        else:
            self.first_digests[slot] = digest
        if i == 0:
            self._check(parts.check_surrogates, self.setup, table, preds)
            self._engine_stats(traces)

    def finish_rounds(self) -> None:
        """Re-simulate the first workload if no round did so already."""
        if 0 < self.rounds <= self.parts.POOL_SIZE:
            traces = self.parts.simulate(self.setup, 0, self.tracer)[0]
            self._check(self.checks.check_identical, self.first_digests[0],
                        self.checks.trace_digest(traces), "simulation of one workload")

    def run_pass(self, traced: bool) -> None:
        """One pass of the staged CLI. The first pass is checked in full; a
        later one must reproduce it bit for bit."""
        parts = self.parts
        workdir = self.workdir / f"pass{self.passes}"
        self.passes += 1
        manifest = parts.write_manifest(workdir)
        with self.tracer.unit("pass", traced):
            for stage in parts.STAGES:
                seconds = self._op(parts.run_stage, stage, manifest, self.seed, self.tracer)
                if seconds is not None:
                    self.stage_s[stage].append(seconds)
        if self.passes == 1:
            references = self._check(parts.serial_references, workdir, self.seed, self.tracer)
            if references is not None:
                self.pass_outputs = self._check(parts.check_pass, workdir, references)
        else:
            expected = self.pass_outputs.digest if self.pass_outputs else None
            self._check(self.checks.check_identical, expected,
                        self._check(parts.pass_digest, workdir), "pipeline pass")
        shutil.rmtree(workdir, ignore_errors=True)


def _nothing_to_predict():
    raise RuntimeError("the round's simulation failed; nothing to predict")


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is in KiB on Linux


def _best(values: list[float], key) -> float:
    return key(values) if values else float("nan")


def end_to_end(run: Run) -> dict[str, float]:
    """Set-up time is the median of the set-ups. Every other host-time metric
    is the run's fastest sample: the host switches between two speeds about
    1.5x apart, for anything from under a second to minutes, so a median
    would read the share of the run spent in each phase, while the fastest
    sample reads the program on the fast phase whenever the run has one. A
    slower program slows every sample."""
    outputs = run.pass_outputs
    metrics = {
        "setup_s": _median(run.setup_s),
        "sim_jobs_per_s": _best(run.sim_rate, max),
    }
    for arch, rates in run.predict_rate.items():
        metrics[f"predict_rows_per_s.{arch}"] = _best(rates, max)
    for stage, times in run.stage_s.items():
        metrics[f"{stage}_stage_s"] = _best(times, min)
    metrics["r2.compute_time_s"] = outputs.r2 if outputs else float("nan")
    metrics["r2_extrapolation.compute_time_s"] = (outputs.r2_extrapolation if outputs
                                                  else float("nan"))
    metrics["peak_rss_mib"] = peak_rss_mib()
    return metrics


def per_layer(run: Run) -> dict[str, float]:
    nan = float("nan")
    metrics = run.tracer.layer_metrics()
    metrics.update({"engine.makespan_sim_s": nan, "engine.peak_transfers": nan})
    metrics.update(run.engine_stats)
    metrics["traceio.samples_bytes"] = (run.pass_outputs.samples_bytes
                                        if run.pass_outputs is not None else nan)
    metrics["autodiff.tape_nodes"] = run.tracer.tape_nodes or nan
    traced = [s for kind, t, s in run.tracer.units if kind == "round" and t]
    plain = [s for kind, t, s in run.tracer.units if kind == "round" and not t]
    metrics["trace.overhead_pct"] = 100.0 * (_best(traced, min) / _best(plain, min) - 1.0)
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "simsurrogate" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'simsurrogate'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
    import checks
    import parts
    from tracer import Tracer

    trace = args.trace == 1
    workdir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    spool = workdir / "spool"
    spool.mkdir(parents=True, exist_ok=True)
    run = Run(parts, checks, Tracer(spool), WORKLOADS[args.workload], args.seed, workdir)
    try:
        for k in range(1, CYCLES + 1):
            if k % 2 == 1:
                run.set_up(traced=trace)
            run.run_pass(traced=trace)
            run.rounds_until(k / CYCLES * args.seconds, trace)
        run.finish_rounds()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = per_layer(run) if trace else end_to_end(run)
    units_of = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units_of.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

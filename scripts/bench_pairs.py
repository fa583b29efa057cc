#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, recorded in a BENCH file.

    python scripts/bench_pairs.py --parent HEAD~1 --workload hetero-10k --pairs 10 --seed 7

Each pair runs `perfbench/run.py` once on the parent revision and once on the
working tree, with the same workload and seed and BENCHMARK.json's run length,
alternating which side runs first. The parent runs from a `git archive` export
of its revision in a temporary directory, which leaves nothing behind in the
repository. The output file (default `BENCH_<rev>.json`, `<rev>` the working
tree's commit) holds every run's last JSON line, both revisions, the seeds,
the host's core count, Python, numpy, BLAS and thread variables, each side's
attempted and failed operation totals, and for each metric each side's median
and quartiles and the number of pairs the change won. Only pairs whose two
runs exited 0 and passed their checks count toward the medians and wins. It
is rewritten after every pair, so an interrupted series keeps its runs.

    python scripts/bench_pairs.py --ratio-table [BENCH_<rev>.json]

prints README.md's simulator-to-surrogate ratio table instead, from the given
file or else the most recently added `BENCH_*.json` in git that has one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The files of `rev` under `dest`."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def host_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        # the BLAS entry without its directories, which name the build machine
        "blas": {k: v for k, v in blas.items() if "directory" not in k},
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "platform": platform.platform(),
    }


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    run = {"seed": seed, "wall_s": wall, "returncode": proc.returncode, "result": result}
    if result is None or proc.returncode:
        run["stderr_tail"] = proc.stderr[-2000:]
    return run


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "n": len(values)}


def usable(run: dict) -> bool:
    """Whether a run counts toward the pairs: it exited 0 and passed its checks."""
    return run["result"] is not None and not run["returncode"] and run["result"]["correct"]


def totals(runs: list[dict]) -> dict:
    """Per side: runs, usable runs, and operations attempted and failed."""
    out = {side: {"runs": 0, "usable_runs": 0, "attempted": 0, "failed": 0}
           for side in ("parent", "change")}
    for run in runs:
        side = out[run["side"]]
        side["runs"] += 1
        side["usable_runs"] += usable(run)
        if run["result"] is not None:
            side["attempted"] += run["result"]["attempted"]
            side["failed"] += run["result"]["failed"]
    return out


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, and the pairs the change won."""
    pairs: dict[int, dict[str, dict]] = {}
    for run in filter(usable, runs):
        pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]["metrics"]
    complete = [p for p in pairs.values() if len(p) == 2]
    summary = {}
    for name in sorted({m for p in complete for m in p["parent"]} & set(better)):
        both = [(p["parent"][name]["value"], p["change"][name]["value"]) for p in complete
                if name in p["parent"] and name in p["change"]]
        sign = -1.0 if better[name] == "lower" else 1.0
        summary[name] = {
            "unit": complete[0]["parent"][name]["unit"],
            "better": better[name],
            "parent": quartiles([a for a, _ in both]),
            "change": quartiles([b for _, b in both]),
            "change_wins": sum(sign * (b - a) > 0 for a, b in both),
            "ties": sum(a == b for a, b in both),
            "pairs": len(both),
        }
    return summary


ARCH_LABELS = {"bigru": "BiGRU", "bilstm": "BiLSTM", "transformer": "transformer"}


def ratio_table(path: Path) -> str:
    """README.md's ratio table: per workload and surrogate, the median over
    the change side's usable runs of predict_rows_per_s / sim_jobs_per_s,
    with the file and host it comes from."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    host = doc["host"]
    columns = {}
    for workload, record in doc["workloads"].items():
        runs = [r["result"]["metrics"] for r in record["runs"]
                if r["side"] == "change" and usable(r)]
        columns[workload] = (len(runs), {arch: np.median(
            [m[f"predict_rows_per_s.{arch}"]["value"] / m["sim_jobs_per_s"]["value"]
             for m in runs]) for arch in ARCH_LABELS})
    lines = [f"Medians over the change side's runs in `{path.name}` "
             f"({', '.join(f'{n} on `{w}`' for w, (n, _) in columns.items())}); host: "
             f"{host['cpu_count']} CPUs, {host['platform']}, Python {host['python']}, "
             f"numpy {host['numpy']}, {host['blas']['name']} {host['blas']['version']}.",
             "",
             "| Surrogate | " + " | ".join(f"`{w}`" for w in columns) + " |",
             "|---|" + "---|" * len(columns)]
    for arch, label in ARCH_LABELS.items():
        cells = " | ".join(f"{ratios[arch]:.1f}x" for _, ratios in columns.values())
        lines.append(f"| {label} | {cells} |")
    return "\n".join(lines) + "\n"


def newest_ratio_bench() -> Path:
    """The most recently added BENCH file (staged first, then by git history)
    whose runs record both sides of the ratio."""
    staged = git("diff", "--cached", "--name-only", "--diff-filter=A", "--", "BENCH_*.json")
    added = git("log", "--diff-filter=A", "--name-only", "--format=", "--", "BENCH_*.json")
    for name in (staged + "\n" + added).split():
        doc = json.loads((ROOT / name).read_text(encoding="utf-8"))
        metrics = [r["result"]["metrics"] for w in doc["workloads"].values()
                   for r in w["runs"] if r["result"] is not None]
        if metrics and all("sim_jobs_per_s" in m for m in metrics):
            return ROOT / name
    raise FileNotFoundError("no BENCH_*.json with sim_jobs_per_s runs in git")


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="revision of the parent side (required for pairs)")
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]],
                    help="repeatable; every workload of BENCHMARK.json by default")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, help="benchmark seed (required for pairs)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None,
                    help="output file; BENCH_<rev>.json (BENCH_<rev>_trace.json traced) by default")
    ap.add_argument("--ratio-table", nargs="?", type=Path, const=True, default=None,
                    metavar="BENCH_FILE", help="print README.md's ratio table and exit")
    args = ap.parse_args()
    if args.ratio_table is not None:
        print(ratio_table(newest_ratio_bench() if args.ratio_table is True else args.ratio_table),
              end="")
        return
    if args.parent is None or args.seed is None:
        ap.error("--parent and --seed are required to run pairs")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    parent = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    change = git("rev-parse", "HEAD")
    out = args.out or ROOT / f"BENCH_{change[:7]}{'_trace' if args.trace else ''}.json"
    doc = {
        "command": f"perfbench/run.py --seconds {bench['run_seconds']} --trace {args.trace}",
        "parent": {"rev": parent},
        "change": {"rev": change, "working_tree_dirty": bool(
            git("status", "--porcelain", "--untracked-files=no"))},
        "seeds": [args.seed],
        "pairs": args.pairs,
        "host": host_facts(),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        export(parent, Path(tmp))
        sides = {"parent": Path(tmp), "change": ROOT}
        for workload in args.workload or [w["name"] for w in bench["workloads"]]:
            runs: list[dict] = []
            doc["workloads"][workload] = {"runs": runs, "totals": {}, "summary": {}}
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for position, side in enumerate(order):
                    run = run_once(sides[side], workload, args.seed, bench["run_seconds"],
                                   args.trace)
                    runs.append({"pair": pair, "side": side, "position": position} | run)
                    print(f"{workload} pair {pair} {side}: exit {run['returncode']}, "
                          f"{run['wall_s']:.1f} s", file=sys.stderr)
                doc["workloads"][workload]["totals"] = totals(runs)
                doc["workloads"][workload]["summary"] = summarize(runs, better)
                out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(out)


if __name__ == "__main__":
    main()

"""Prediction quality metrics (R-squared, Gaussian KDE), timing and reports."""

from __future__ import annotations

import csv
import json
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import EvalError
from .nn.models import ModelConfig, inference_chunk, model_forward_infer
from .preprocess import Standardizer, make_windows, unwindow_aligned
from .traceio import SampleTable

KDE_BANDWIDTH_FLOOR = 1e-9
_KDE_NODES_PER_BW = 16  # binned KDE lattice spacing: bandwidth / 16
_KDE_REACH = 8 * _KDE_NODES_PER_BW  # lattice nodes in 8 bandwidths


def r_squared(pred: np.ndarray, actual: np.ndarray) -> float:
    """1 - SS_res / SS_tot on original-scale values; negative is legal."""
    pred = np.asarray(pred, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if pred.shape != actual.shape or actual.size < 2:
        raise EvalError("pred and actual must have equal length >= 2")
    ss_tot = float(((actual - actual.mean()) ** 2).sum())
    if ss_tot == 0.0:
        raise EvalError("actual values are constant; R-squared denominator undefined")
    ss_res = float(((actual - pred) ** 2).sum())
    return 1.0 - ss_res / ss_tot


def silverman_bandwidth(values: np.ndarray) -> float:
    values = np.asarray(values, dtype=float)
    std = values.std()
    q75, q25 = np.percentile(values, [75, 25])
    spread = min(std, (q75 - q25) / 1.34)
    return max(0.9 * spread * len(values) ** (-0.2), KDE_BANDWIDTH_FLOOR)


def kde(values: np.ndarray, grid: np.ndarray, bandwidth: float | None = None) -> np.ndarray:
    """Gaussian-kernel density of `values` evaluated on `grid`.

    Linear binning (Silverman, AS 176, 1982; Wand, JCGS 1994): each value
    splits its weight between the two nearest nodes of a lattice spaced
    bandwidth/16 that spans the grid plus 8 bandwidths either side, and each
    grid point sums the exact kernel over the nodes within 8 bandwidths.
    Splitting moves a value's kernel by at most 1/2048 of its peak; values
    off the lattice are dropped, each worth under e^-32 of a peak. The tests
    hold the result within 1e-3 of the exact sum's peak. When the lattice
    would have more nodes than there are values (small samples, heavy tails,
    the bandwidth floor) the exact sum is cheaper, so it is used instead.
    Non-finite values, or a non-finite explicit bandwidth, raise EvalError
    on either path.
    """
    values = np.asarray(values, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if values.size < 2:
        raise EvalError("kde needs at least 2 values")
    if not np.isfinite(values).all():
        raise EvalError("kde values must be finite")
    if bandwidth is None:
        bandwidth = silverman_bandwidth(values)
    elif not (bandwidth > 0 and np.isfinite(bandwidth)):
        raise EvalError(f"bandwidth must be positive and finite, got {bandwidth}")
    if grid.size == 0:
        return _kde_exact(values, grid, bandwidth)
    step = bandwidth / _KDE_NODES_PER_BW
    lo = grid.min() - _KDE_REACH * step
    span = (grid.max() - grid.min()) / step + 2 * _KDE_REACH
    if not span + 1 <= values.size:  # a NaN span (non-finite grid) also goes exact
        return _kde_exact(values, grid, bandwidth)
    n_nodes = int(np.ceil(span)) + 1
    pos = (values - lo) / step
    pos = pos[(pos >= 0) & (pos <= n_nodes - 1)]
    left = pos.astype(np.intp)
    frac = pos - left
    # node k is weights[k + 1]; the zero at each end stands for every node off
    # the lattice, where a rounded kernel window may reach
    weights = np.zeros(n_nodes + 2)
    weights[1:] = (np.bincount(left, 1.0 - frac, minlength=n_nodes + 1)
                   + np.bincount(left + 1, frac, minlength=n_nodes + 1))
    at = (grid - lo) / step
    nodes = np.rint(at).astype(np.intp)[:, None] + np.arange(-_KDE_REACH, _KDE_REACH + 1)
    z = (at[:, None] - nodes) / _KDE_NODES_PER_BW
    kernel = np.exp(-0.5 * z * z)
    density = (kernel * weights[np.clip(nodes, -1, n_nodes) + 1]).sum(axis=1)
    return density / (values.size * bandwidth * np.sqrt(2 * np.pi))


def _kde_exact(values: np.ndarray, grid: np.ndarray, bandwidth: float) -> np.ndarray:
    """The Gaussian-kernel sum over every value: grid.size × values.size exps."""
    z = (grid[:, None] - values[None, :]) / bandwidth
    return np.exp(-0.5 * z**2).sum(axis=1) / (values.size * bandwidth * np.sqrt(2 * np.pi))


def default_grid(values: np.ndarray, n_points: int = 256) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    bw = silverman_bandwidth(values)
    lo = values.min() - 6 * bw
    hi = values.max() + 6 * bw
    return np.linspace(lo, hi, n_points)


@dataclass
class KdeCurve:
    grid: np.ndarray
    target_density: np.ndarray
    predicted_density: np.ndarray


@dataclass
class EvalReport:
    scenario: str
    r2: dict[str, float]
    kde_curves: dict[str, KdeCurve]
    n_rows: int
    config: dict = field(default_factory=dict)
    seed: int = 0


def predict_rows(config: ModelConfig, params: dict[str, np.ndarray],
                 table: SampleTable, feature_std: Standardizer,
                 target_std: Standardizer) -> tuple[np.ndarray, float]:
    """Original-scale predictions aligned with table rows, plus wall-clock."""
    t0 = time.perf_counter()
    # only the features are read: the targets go in as a zero-width column block
    scaled = replace(table, features=feature_std.transform(table.features),
                     targets=np.empty((len(table), 0)), target_names=())
    batch = make_windows(scaled, config.window_size, config.window_overlap)
    preds = np.empty((len(batch), config.window_size, config.output_dim))
    step = inference_chunk(config)
    for a in range(0, len(batch), step):
        b = min(a + step, len(batch))
        windows, mask = batch.windows[a:b], batch.mask[a:b]
        if b - a == 1:
            # numpy sends a lone window's [1, h] matmuls to BLAS's
            # matrix-vector routine, which sums in another order: run two
            # copies so the window gets the arithmetic of any wider chunk
            windows, mask = np.repeat(windows, 2, axis=0), np.repeat(mask, 2, axis=0)
        preds[a:b] = model_forward_infer(config, params, windows, mask)[:b - a]
    out = unwindow_aligned(preds, batch.provenance,
                           table.simulation_ids, table.job_indices)
    out = target_std.inverse_transform(out)
    return out, time.perf_counter() - t0


def time_call(fn, repeats: int):
    """One untimed warm-up call of `fn`, then the median wall-clock seconds of
    `repeats` timed calls, returned with the last call's result."""
    if repeats < 1:
        raise EvalError(f"repeats must be at least 1, got {repeats}")
    fn()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        samples.append(time.perf_counter() - t0)
    return out, statistics.median(samples)


def evaluate_model(config: ModelConfig, params: dict[str, np.ndarray],
                   table: SampleTable, feature_std: Standardizer,
                   target_std: Standardizer, seed: int = 0) -> EvalReport:
    preds, _ = predict_rows(config, params, table, feature_std, target_std)
    r2: dict[str, float] = {}
    curves: dict[str, KdeCurve] = {}
    for j, name in enumerate(table.target_names):
        actual = table.targets[:, j]
        predicted = preds[:, j]
        r2[name] = r_squared(predicted, actual)
        grid = default_grid(actual)
        curves[name] = KdeCurve(
            grid=grid,
            target_density=kde(actual, grid),
            predicted_density=kde(predicted, grid),
        )
    return EvalReport(
        scenario=table.scenario,
        r2=r2,
        kde_curves=curves,
        n_rows=len(table),
        config=config.to_dict(),
        seed=seed,
    )


def write_report(outdir: str | Path, report: EvalReport) -> None:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "r2.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["observable", "r_squared"])
        for name, value in report.r2.items():
            w.writerow([name, repr(value)])
    for name, curve in report.kde_curves.items():
        with open(outdir / f"kde_{name}.csv", "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["grid", "target_density", "predicted_density"])
            for g, t, p in zip(curve.grid, curve.target_density, curve.predicted_density):
                w.writerow([repr(float(g)), repr(float(t)), repr(float(p))])
    summary = {k: getattr(report, k) for k in ("scenario", "r2", "n_rows", "config", "seed")}
    (outdir / "report.json").write_text(json.dumps(summary, indent=2), encoding="utf-8")


def speedup_row(scenario: str, n_jobs: int, simulator_seconds: float, surrogate_seconds: float) -> dict:
    """One speedup.csv row; `speedup` is the simulator's seconds over the surrogate's."""
    return dict(scenario=scenario, n_jobs=n_jobs, simulator_seconds=simulator_seconds,
                surrogate_seconds=surrogate_seconds, speedup=simulator_seconds / surrogate_seconds)


def write_speedup_csv(path: str | Path, rows: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["scenario", "n_jobs", "simulator_seconds", "surrogate_seconds", "speedup"])
        for r in rows:
            w.writerow([r["scenario"], r["n_jobs"], repr(r["simulator_seconds"]),
                        repr(r["surrogate_seconds"]), repr(r["speedup"])])

"""Two-stage hyperparameter search: `N_RANDOM` random trials over
`SEARCH_SPACE`, then coordinate-wise refinement of the top `N_SURVIVORS` in
a fixed parameter order.

Model selection is automated on eval-set MSE.  Every trial is appended to an
audit log so a run can be replayed and verified.
"""

from __future__ import annotations

import csv
import time
from dataclasses import astuple, dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import TrainingError
from .nn.models import ModelConfig

COORDINATE_ORDER = ("hidden_size", "window_size", "window_overlap",
                    "num_layers", "batch_size")

# Candidates of each searched setting, drawn in this order.  Every combination
# is a valid ModelConfig for every architecture: each overlap is below each
# window, and each hidden size divides by each head count.
SEARCH_SPACE: dict[str, tuple[int, ...]] = {
    "hidden_size": (16, 32, 64),
    "window_size": (8, 16, 32),
    "window_overlap": (0, 2, 4),
    "num_layers": (1, 2),
    "batch_size": (16, 32, 64),
    "num_heads": (1, 2, 4),
}
N_RANDOM = 10
N_SURVIVORS = 3


@dataclass
class TrialRecord:
    trial_id: int
    stage: str  # "random" or "sweep:<param>"
    survivor: int  # -1 during stage 1
    config: ModelConfig
    eval_loss: float
    status: str  # "ok" / "skipped:<reason>"
    wall_clock_s: float


def _sample_config(rng: np.random.Generator, base: ModelConfig) -> ModelConfig:
    return replace(base, **{n: int(rng.choice(c)) for n, c in SEARCH_SPACE.items()})


def _train_key(config: ModelConfig) -> tuple:
    """Configs that train the same model share a key: no recurrent model reads
    `num_heads`."""
    return astuple(config if config.architecture == "transformer"
                   else replace(config, num_heads=0))


def tune_hyperparameters(
    base: ModelConfig,
    train_fn: Callable[[ModelConfig], float],
    seed: int = 0,
) -> tuple[ModelConfig, float, list[TrialRecord]]:
    """Run the search; returns (best config, its eval loss, audit log).

    `train_fn` trains one candidate and returns its eval loss; failures are
    logged and the trial skipped.  Each distinct model is trained once: a trial
    that meets a config already tried is logged with the first result.
    """
    rng = np.random.default_rng(seed)
    audit: list[TrialRecord] = []
    trial_id = 0
    tried: dict[tuple, tuple[float, str]] = {}  # _train_key -> (loss, status)

    def run_trial(stage: str, survivor: int, config: ModelConfig) -> float | None:
        nonlocal trial_id
        t0 = time.perf_counter()
        key = _train_key(config)
        if key not in tried:
            try:
                tried[key] = (float(train_fn(config)), "ok")
            except TrainingError as exc:
                tried[key] = (float("nan"), f"skipped:{exc}")
        loss, status = tried[key]
        audit.append(TrialRecord(trial_id, stage, survivor, config, loss, status,
                                 time.perf_counter() - t0))
        trial_id += 1
        return loss if status == "ok" else None

    # Stage 1: random sampling.
    stage1: list[tuple[float, int, ModelConfig]] = []
    for i in range(N_RANDOM):
        cfg = _sample_config(rng, base)
        loss = run_trial("random", -1, cfg)
        if loss is not None:
            stage1.append((loss, i, cfg))
    if not stage1:
        raise TrainingError("all random trials failed")
    stage1.sort(key=lambda t: (t[0], t[1]))
    survivors = stage1[:N_SURVIVORS]

    # Stage 2: coordinate-wise refinement in fixed order.
    order = COORDINATE_ORDER + (("num_heads",) if base.architecture == "transformer" else ())
    refined: list[tuple[float, int, ModelConfig]] = []
    for rank, (loss, _, cfg) in enumerate(survivors):
        best_loss, best_cfg = loss, cfg
        for param in order:
            for cand in SEARCH_SPACE[param]:
                if cand == getattr(best_cfg, param):
                    continue  # already evaluated at this value
                candidate = replace(best_cfg, **{param: cand})
                cand_loss = run_trial(f"sweep:{param}", rank, candidate)
                if cand_loss is not None and cand_loss < best_loss:
                    best_loss, best_cfg = cand_loss, candidate
        refined.append((best_loss, rank, best_cfg))

    refined.sort(key=lambda t: (t[0], t[1]))
    best_loss, _, best_cfg = refined[0]
    return best_cfg, best_loss, audit


AUDIT_FIELDS = ("trial_id", "stage", "survivor", "architecture", "hidden_size",
                "window_size", "window_overlap", "num_layers", "batch_size",
                "num_heads", "eval_loss", "status", "wall_clock_s")


def write_audit_csv(path: str | Path, audit: list[TrialRecord]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(AUDIT_FIELDS)
        for rec in audit:
            c = rec.config
            w.writerow([rec.trial_id, rec.stage, rec.survivor, c.architecture,
                        c.hidden_size, c.window_size, c.window_overlap, c.num_layers,
                        c.batch_size, c.num_heads, repr(rec.eval_loss), rec.status,
                        f"{rec.wall_clock_s:.6f}"])

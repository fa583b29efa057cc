"""Standardization, fixed-size overlapping windows, and the train/eval split."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import PreprocessError
from .traceio import SampleTable, pack_keys

PAD = -1  # provenance marker for padded positions


@dataclass
class Standardizer:
    """Per-feature z-scoring fitted on training rows (population std).

    The fitted std is stored as-is; transform substitutes 1 where it is 0 so
    constant features map to 0 instead of dividing by zero.
    """

    mean: np.ndarray
    std: np.ndarray
    names: tuple[str, ...] = ()

    def _safe_std(self) -> np.ndarray:
        return np.where(self.std == 0.0, 1.0, self.std)

    def _checked(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.mean.shape[0]:
            raise PreprocessError(
                f"feature arity mismatch: got {x.shape[-1]}, fitted {self.mean.shape[0]}"
            )
        return x

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (self._checked(x) - self.mean) / self._safe_std()

    def inverse_transform(self, x: np.ndarray) -> np.ndarray:
        return self._checked(x) * self._safe_std() + self.mean

    def to_json(self) -> str:
        return json.dumps({
            "names": list(self.names),
            "mean": self.mean.tolist(),
            "std": self.std.tolist(),
        })

    @classmethod
    def from_json(cls, text: str, source: str = "standardizer") -> "Standardizer":
        """Parse `to_json`'s document; PreprocessError naming `source` if it
        is not JSON or not a standardizer (see `from_dict`)."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PreprocessError(f"{source} is not JSON: {exc}") from None
        return cls.from_dict(doc, source)

    @classmethod
    def from_dict(cls, doc, source: str = "standardizer") -> "Standardizer":
        """An object whose 'mean' and 'std' are equal-length lists of finite
        numbers and whose 'names' is a list of strings; else PreprocessError."""
        if not (isinstance(doc, dict) and _finite_numbers(doc.get("mean"))
                and _finite_numbers(doc.get("std")) and len(doc["mean"]) == len(doc["std"])
                and isinstance(doc.get("names"), list)
                and all(isinstance(n, str) for n in doc["names"])):
            raise PreprocessError(f"{source} needs 'mean' and 'std' lists of finite numbers "
                                  f"of equal length and a 'names' list of strings")
        return cls(np.asarray(doc["mean"], dtype=float), np.asarray(doc["std"], dtype=float),
                   tuple(doc["names"]))


def _finite_numbers(value) -> bool:
    """A JSON list of finite numbers; booleans and strings are not numbers."""
    if not isinstance(value, list):
        return False
    try:
        return all(not isinstance(v, bool) and math.isfinite(v) for v in value)
    except (TypeError, OverflowError):
        return False


def fit_standardizer(rows: np.ndarray, names: tuple[str, ...] = ()) -> Standardizer:
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] < 1:
        raise PreprocessError("need at least one row to fit a standardizer")
    return Standardizer(rows.mean(axis=0), rows.std(axis=0), names)


def standardize_table(table: SampleTable, feature_std: Standardizer,
                      target_std: Standardizer) -> SampleTable:
    """The table with features and targets z-scored by their standardizers."""
    return replace(table, features=feature_std.transform(table.features),
                   targets=target_std.transform(table.targets))


@dataclass
class WindowBatch:
    """Fixed-size zero-padded windows with masks and row provenance."""

    windows: np.ndarray  # [n_windows, W, F]
    targets: np.ndarray  # [n_windows, W, K]
    mask: np.ndarray  # [n_windows, W] bool, True = real row
    provenance: np.ndarray  # [n_windows, W, 2] (simulation_id, job_index), PAD if padding

    @property
    def window_size(self) -> int:
        return self.windows.shape[1]

    def __len__(self) -> int:
        return self.windows.shape[0]

    def select(self, ix) -> "WindowBatch":
        return WindowBatch(self.windows[ix], self.targets[ix],
                           self.mask[ix], self.provenance[ix])


def _window_starts(n: int, window: int, overlap: int) -> list[int]:
    stride = window - overlap
    starts = [0]
    while starts[-1] + window < n:
        starts.append(starts[-1] + stride)
    return starts


def make_windows(table: SampleTable, window_size: int, overlap: int) -> WindowBatch:
    """Per-simulation windows at stride window_size - overlap, zero padded."""
    if not 0 <= overlap < window_size:
        raise PreprocessError(
            f"overlap must satisfy 0 <= overlap < window_size, got {overlap} >= {window_size}"
        )
    wins, tgts, masks, prov = [], [], [], []
    n_feat = table.features.shape[1]
    n_tgt = table.targets.shape[1]
    groups = table.simulation_groups()
    offsets = np.arange(window_size)
    for sid in sorted(groups):
        ix = groups[sid]
        n = len(ix)
        starts = np.asarray(_window_starts(n, window_size, overlap))
        pos = starts[:, None] + offsets  # [n_windows, W] row offsets into ix
        valid = pos < n
        rows = ix[np.minimum(pos, n - 1)]
        wins.append(table.features[rows] * valid[:, :, None])
        tgts.append(table.targets[rows] * valid[:, :, None])
        masks.append(valid)
        p = np.stack([table.simulation_ids[rows], table.job_indices[rows]], axis=-1)
        prov.append(np.where(valid[:, :, None], p, PAD))
    if not wins:
        return WindowBatch(np.zeros((0, window_size, n_feat)),
                           np.zeros((0, window_size, n_tgt)),
                           np.zeros((0, window_size), dtype=bool),
                           np.full((0, window_size, 2), PAD, dtype=np.int64))
    return WindowBatch(np.concatenate(wins), np.concatenate(tgts),
                       np.concatenate(masks), np.concatenate(prov))


def unwindow_aligned(values: np.ndarray, provenance: np.ndarray,
                     simulation_ids: np.ndarray, job_indices: np.ndarray) -> np.ndarray:
    """Map windowed values back to the rows (simulation_ids, job_indices).

    Where overlapping windows predict the same row more than once, the value
    from the earliest window wins.  Padded positions are discarded.
    """
    prov = provenance.reshape(-1, 2)
    valid = np.nonzero(prov[:, 1] != PAD)[0]
    # np.unique's first index is each key's earliest (window-major) occurrence
    keys, first = np.unique(pack_keys(prov[valid, 0], prov[valid, 1]), return_index=True)
    flat_ix = valid[first]
    wanted = pack_keys(simulation_ids, job_indices)
    pos = np.searchsorted(keys, wanted)
    if pos.size and (pos.max(initial=0) >= len(keys) or (keys[np.minimum(pos, len(keys) - 1)] != wanted).any()):
        raise PreprocessError("windows do not cover every requested row")
    return values.reshape(-1, values.shape[-1])[flat_ix[pos]]


@dataclass
class SplitSpec:
    """Whole-simulation train/eval assignment, grouped by simulation length."""

    fraction: float
    seed: int
    train_ids: tuple[int, ...]
    eval_ids: tuple[int, ...]
    groups: dict[int, dict[str, tuple[int, ...]]] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({
            "fraction": self.fraction,
            "seed": self.seed,
            "train_ids": list(self.train_ids),
            "eval_ids": list(self.eval_ids),
            "groups": {str(k): {s: list(v) for s, v in g.items()}
                       for k, g in self.groups.items()},
        })


def split_train_eval(sim_lengths: dict[int, int], fraction: float = 0.7,
                     seed: int = 0) -> SplitSpec:
    """Assign whole simulations to train/eval per length group.

    Train count per group is round-half-up of fraction * group size, so a
    singleton group goes to train when fraction >= 0.5. A split with no
    training simulation at all raises PreprocessError.
    """
    if not 0 < fraction < 1:
        raise PreprocessError(f"fraction must be in (0, 1), got {fraction}")
    if not sim_lengths:
        raise PreprocessError("no simulations to split")
    by_length: dict[int, list[int]] = {}
    for sid, length in sim_lengths.items():
        by_length.setdefault(int(length), []).append(int(sid))
    rng = np.random.default_rng(seed)
    train: list[int] = []
    evaluation: list[int] = []
    groups: dict[int, dict[str, tuple[int, ...]]] = {}
    for length in sorted(by_length):
        ids = sorted(by_length[length])
        perm = rng.permutation(len(ids))
        shuffled = [ids[i] for i in perm]
        n_train = math.floor(fraction * len(ids) + 0.5)
        g_train = sorted(shuffled[:n_train])
        g_eval = sorted(shuffled[n_train:])
        train.extend(g_train)
        evaluation.extend(g_eval)
        groups[length] = {"train": tuple(g_train), "eval": tuple(g_eval)}
    if not train:
        raise PreprocessError(
            f"train fraction {fraction} leaves no training simulation among "
            f"{len(sim_lengths)} simulations in {len(by_length)} job-count groups")
    return SplitSpec(fraction, seed, tuple(sorted(train)), tuple(sorted(evaluation)), groups)

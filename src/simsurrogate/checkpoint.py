"""Model checkpoints: config, parameter arrays, and fitted standardizers in a
single .npz container with a versioned header."""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import PreprocessError, TrainingError
from .nn.models import ModelConfig, init_params
from .preprocess import Standardizer
from .scenarios import get_scenario

CHECKPOINT_VERSION = 2  # 2: recurrent gates stored fused
_HEADER_KEYS = ("scenario", "seed", "config", "feature_std", "target_std")


@dataclass
class Checkpoint:
    config: ModelConfig
    params: dict[str, np.ndarray]
    feature_std: Standardizer
    target_std: Standardizer
    scenario: str
    seed: int


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    header = {
        "version": CHECKPOINT_VERSION,
        "scenario": ckpt.scenario,
        "seed": ckpt.seed,
        "config": ckpt.config.to_dict(),
        "feature_std": json.loads(ckpt.feature_std.to_json()),
        "target_std": json.loads(ckpt.target_std.to_json()),
        "param_names": sorted(ckpt.params),
    }
    arrays = {f"param/{k}": v for k, v in ckpt.params.items()}
    arrays["__header__"] = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)


def load_checkpoint(path: str | Path) -> Checkpoint:
    try:
        data = np.load(path)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise TrainingError(f"{path} is not a checkpoint: not an .npz archive")
        with data:
            members = {k: data[k] for k in data.files}
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise TrainingError(f"{path} is not a checkpoint: {exc}") from None
    if "__header__" not in members:
        raise TrainingError(f"{path} is not a checkpoint: it has no __header__")
    try:
        header = json.loads(bytes(members["__header__"]).decode("utf-8"))
    except ValueError as exc:
        raise TrainingError(f"{path} is not a checkpoint: bad header: {exc}") from None
    if not isinstance(header, dict):
        raise TrainingError(f"{path} is not a checkpoint: its header is not a JSON object")
    if header.get("version") != CHECKPOINT_VERSION:
        raise TrainingError(f"unsupported checkpoint version {header.get('version')}; "
                            f"this build reads version {CHECKPOINT_VERSION}, retrain the model")
    params = {k[len("param/"):]: v for k, v in members.items() if k.startswith("param/")}
    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise TrainingError(f"checkpoint header is missing {missing}")
    if not isinstance(header["scenario"], str):
        raise TrainingError(f"checkpoint scenario {header['scenario']!r} is not a string")
    if isinstance(header["seed"], bool) or not isinstance(header["seed"], int):
        raise TrainingError(f"checkpoint seed {header['seed']!r} is not an integer")
    if not isinstance(header["config"], dict):
        raise TrainingError(f"checkpoint config {header['config']!r} is not a JSON object")
    keys, known = set(header["config"]), {f.name for f in fields(ModelConfig)}
    if keys != known:
        raise TrainingError(f"checkpoint config keys: missing {sorted(known - keys)}, "
                            f"unexpected {sorted(keys - known)}")
    ckpt = Checkpoint(
        config=ModelConfig.from_dict(header["config"]),
        params=params,
        feature_std=_standardizer(header, "feature_std"),
        target_std=_standardizer(header, "target_std"),
        scenario=header["scenario"],
        seed=header["seed"],
    )
    _validate(ckpt)
    return ckpt


def _standardizer(header: dict, key: str) -> Standardizer:
    try:
        return Standardizer.from_dict(header[key], f"checkpoint {key}")
    except PreprocessError as exc:
        raise TrainingError(str(exc)) from None


def _validate(ckpt: Checkpoint) -> None:
    """A known scenario whose feature count is the model's input width,
    parameter names, shapes and dtype as init_params(config) makes them, and
    standardizers as wide as the model's input and output."""
    features = get_scenario(ckpt.scenario).features
    if ckpt.config.input_dim != len(features):
        raise TrainingError(f"checkpoint input_dim {ckpt.config.input_dim}, but scenario "
                            f"{ckpt.scenario} has {len(features)} features")
    expected = init_params(ckpt.config)
    if set(expected) != set(ckpt.params):
        raise TrainingError(
            f"checkpoint parameters do not match the config: missing "
            f"{sorted(set(expected) - set(ckpt.params))}, "
            f"unexpected {sorted(set(ckpt.params) - set(expected))}")
    for name, init in expected.items():
        value = ckpt.params[name]
        if value.shape != init.shape or value.dtype != np.float64:
            raise TrainingError(f"checkpoint parameter {name} has shape {value.shape} and dtype "
                                f"{value.dtype}, config needs {init.shape} float64")
    for what, std, dim in (("feature", ckpt.feature_std, ckpt.config.input_dim),
                           ("target", ckpt.target_std, ckpt.config.output_dim)):
        if std.mean.shape != (dim,) or std.std.shape != (dim,):
            raise TrainingError(f"{what} standardizer shapes {std.mean.shape} and "
                                f"{std.std.shape}, config needs ({dim},)")

"""Masked-MSE training loop with an Adam optimizer and early stopping."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TrainingError
from .nn.autodiff import Tensor, fused_node
from .nn.models import ModelConfig, init_params, model_forward, wrap_params
from .preprocess import WindowBatch


@dataclass
class TrainConfig:
    model: ModelConfig
    learning_rate: float = 1e-3
    max_epochs: int = 200
    patience: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise TrainingError("learning_rate must be positive")
        if self.max_epochs < 1:
            raise TrainingError("max_epochs must be >= 1")


def mse_loss(pred, target: np.ndarray, mask: np.ndarray):
    """Mean squared error over mask-true positions and all observables; a
    Tensor on the tape for a Tensor `pred`, a float64 for an ndarray.  The node's
    backward is the composed tape's m + m, m = where(mask, g * scale, 0) * diff."""
    mask = np.asarray(mask, dtype=bool)[..., None]
    n_real = int(mask.sum())
    if n_real == 0:
        raise TrainingError("mask is all-false; no real positions to score")
    on_tape = isinstance(pred, Tensor)
    diff = (pred.data if on_tape else pred) - np.asarray(target, dtype=float)
    scale = 1.0 / (n_real * diff.shape[-1])
    loss = np.where(mask, diff * diff, 0.0).sum() * scale
    if not on_tape:
        return loss

    def backward(g):
        m = np.where(mask, g * scale, 0.0) * diff
        return (m + m,)

    return fused_node(loss, (pred,), backward)


class Adam:
    def __init__(self, params: dict[str, np.ndarray], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, g in grads.items():
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = self.m[name] / (1 - b1 ** self.t)
            v_hat = self.v[name] / (1 - b2 ** self.t)
            self.params[name] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    eval_loss: float


def _batch_loss(config: ModelConfig, params: dict[str, np.ndarray],
                batch: WindowBatch) -> tuple[float, dict[str, np.ndarray]]:
    """The batch's loss and its gradient with respect to each parameter."""
    tensors = wrap_params(params)
    pred = model_forward(config, tensors, batch.windows, batch.mask)
    loss = mse_loss(pred, batch.targets, batch.mask)
    loss.backward()
    return float(loss.data), {k: t.grad for k, t in tensors.items() if t.grad is not None}


def evaluate_loss(config: ModelConfig, params: dict[str, np.ndarray],
                  batch: WindowBatch) -> float:
    """The batch's loss, from plain numpy with no autodiff tape."""
    pred = model_forward(config, params, batch.windows, batch.mask)
    return float(mse_loss(pred, batch.targets, batch.mask))


def train_model(config: TrainConfig, train_batch: WindowBatch,
                eval_batch: WindowBatch) -> tuple[dict[str, np.ndarray], list[EpochStats]]:
    """Mini-batch Adam training; returns the best-eval-loss parameters."""
    if len(train_batch) == 0:
        raise TrainingError("no training windows")
    model_cfg = config.model
    params = init_params(model_cfg)
    opt = Adam(params, lr=config.learning_rate)
    rng = np.random.default_rng(config.seed)
    history: list[EpochStats] = []
    best_loss = float("inf")
    best_params = {k: v.copy() for k, v in params.items()}
    stale = 0
    bs = model_cfg.batch_size
    for epoch in range(config.max_epochs):
        order = rng.permutation(len(train_batch))
        train_losses = []
        for start in range(0, len(order), bs):
            batch = train_batch.select(order[start:start + bs])
            loss, grads = _batch_loss(model_cfg, params, batch)
            if not np.isfinite(loss):
                raise TrainingError(f"training diverged at epoch {epoch}: loss={loss}")
            opt.step(grads)
            train_losses.append((loss, len(batch)))
        train_loss = sum(l * n for l, n in train_losses) / sum(n for _, n in train_losses)
        eval_loss = (evaluate_loss(model_cfg, params, eval_batch)
                     if len(eval_batch) else train_loss)
        if not np.isfinite(eval_loss):
            raise TrainingError(f"training diverged at epoch {epoch}: eval loss={eval_loss}")
        history.append(EpochStats(epoch, train_loss, eval_loss))
        if eval_loss < best_loss:
            best_loss = eval_loss
            best_params = {k: v.copy() for k, v in params.items()}
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    return best_params, history

"""Tape-built references the tests hold the hand-written kernels in
`nn.models` and `train` to.

- The linear layer, layer norm, GELU, attention and the masked-MSE loss
  composed of elementwise tape ops, as `nn.models` and `train` wrote them
  before each became one node with its own backward.
- The per-gate GRU and LSTM cells, run one step at a time on the autodiff
  tape over slices of the fused parameters, for the hand-written BPTT.

The tape ops only these references use (`mean`, `sqrt`, `tanh`, `exp`,
`sigmoid`, `masked_fill`, `softmax` and `stack`) live here too."""

import math

import numpy as np

from simsurrogate.errors import TrainingError
from simsurrogate.nn.autodiff import Tensor, concat
from simsurrogate.nn.models import RNN_CELLS


def mean(x: Tensor) -> Tensor:
    """The mean over the last axis, kept: the sum times 1/n."""
    return x.sum(axis=-1, keepdims=True) * (1.0 / x.shape[-1])


def sqrt(x: Tensor) -> Tensor:
    out = np.sqrt(x.data)
    return Tensor(out, parents=(x,), backward_fn=lambda g: (g * 0.5 / out,))


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)
    return Tensor(out, parents=(x,), backward_fn=lambda g: (g * (1 - out**2),))


def composed_linear(x, w, b):
    """x @ w + b as a matmul node and a bias-add node."""
    return x @ w + b


def composed_layer_norm(x, g, b, eps: float = 1e-6):
    centered = x - mean(x)
    var = mean(centered * centered)
    return centered / sqrt(var + eps) * g + b


def composed_gelu(x):
    inner = 0.7978845608028654 * (x + 0.044715 * (x * x * x))
    return 0.5 * x * (1.0 + tanh(inner))


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.data)
    return Tensor(out, parents=(x,), backward_fn=lambda g: (g * out,))


def masked_fill(x: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Where mask is True keep the value; where False substitute `value`."""
    keep = np.asarray(mask, dtype=bool)
    return Tensor(np.where(keep, x.data, value), parents=(x,),
                  backward_fn=lambda g: (np.where(keep, g, 0.0),))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    # Subtracting the (detached) max is gradient-neutral and stabilizes exp.
    e = exp(x - x.data.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def composed_attention(x, p: dict, prefix: str, num_heads: int, mask=None):
    """multi_head_attention as scale, concat, matmul, masked_fill and softmax
    nodes, with the output projection."""
    batch, seq_len, d = x.shape
    d_head = d // num_heads
    scale = 1.0 / math.sqrt(d_head)
    w_qkv = concat([p[f"{prefix}.Wq"] * scale, p[f"{prefix}.Wk"], p[f"{prefix}.Wv"]], axis=1)
    b_qkv = concat([p[f"{prefix}.bq"] * scale, p[f"{prefix}.bk"], p[f"{prefix}.bv"]], axis=0)
    qkv = composed_linear(x.reshape(batch * seq_len, d), w_qkv, b_qkv)
    qkv = qkv.reshape(batch, seq_len, 3, num_heads, d_head).transpose((2, 0, 3, 1, 4))
    q, k, v = qkv[0], qkv[1], qkv[2]
    scores = q @ k.transpose((0, 1, 3, 2))
    if mask is not None:
        scores = masked_fill(scores, np.asarray(mask, dtype=bool)[:, None, None, :], -1e30)
    mixed = softmax(scores, axis=-1) @ v
    merged = mixed.transpose((0, 2, 1, 3)).reshape(batch * seq_len, d)
    out = composed_linear(merged, p[f"{prefix}.Wo"], p[f"{prefix}.bo"])
    return out.reshape(batch, seq_len, d)


def composed_mse_loss(pred: Tensor, target: np.ndarray, mask: np.ndarray) -> Tensor:
    """train.mse_loss as subtract, square, masked_fill, sum and scale nodes."""
    mask = np.asarray(mask, dtype=bool)
    n_real = int(mask.sum())
    if n_real == 0:
        raise TrainingError("mask is all-false; no real positions to score")
    diff = pred - np.asarray(target, dtype=float)
    sq = masked_fill(diff * diff, mask[..., None], 0.0)
    return sq.sum() * (1.0 / (n_real * pred.shape[-1]))


def sigmoid(x: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-x.data))
    return Tensor(out, parents=(x,), backward_fn=lambda g: (g * out * (1 - out),))


def stack(items: list[Tensor], axis: int = 0) -> Tensor:
    return Tensor(np.stack([t.data for t in items], axis=axis), parents=tuple(items),
                  backward_fn=lambda g: tuple(np.take(g, i, axis=axis)
                                              for i in range(len(items))))


def rnn_params(rng, prefix, in_dim, hidden, kind, scale=0.4):
    """Normal per-gate W, U and b, drawn gate by gate, stored fused."""
    cell = RNN_CELLS[kind]
    draws = [(rng.normal(0, scale, (in_dim, hidden)), rng.normal(0, scale, (hidden, hidden)),
              rng.normal(0, scale, hidden)) for _ in cell.gates]
    w, u, b = (np.concatenate(parts, axis=-1) for parts in zip(*draws))
    params = {f"{prefix}.W": w, f"{prefix}.b": b}
    col = 0
    for name, n_gates in cell.u_blocks:
        params[f"{prefix}.{name}"] = u[:, col:col + n_gates * hidden].copy()
        col += n_gates * hidden
    return params


def _gate(m, k: int, hidden: int):
    return m[..., k * hidden:(k + 1) * hidden]


def gru_cell(x_t, h_prev, p: dict, prefix: str, hidden: int):
    w, b, u_zr, u_h = (p[f"{prefix}.{n}"] for n in ("W", "b", "U_zr", "U_h"))
    z = sigmoid(x_t @ _gate(w, 0, hidden) + h_prev @ _gate(u_zr, 0, hidden) + _gate(b, 0, hidden))
    r = sigmoid(x_t @ _gate(w, 1, hidden) + h_prev @ _gate(u_zr, 1, hidden) + _gate(b, 1, hidden))
    cand = tanh(x_t @ _gate(w, 2, hidden) + (r * h_prev) @ u_h + _gate(b, 2, hidden))
    return (1.0 - z) * h_prev + z * cand


def lstm_cell(x_t, state: tuple, p: dict, prefix: str, hidden: int) -> tuple:
    h_prev, c_prev = state
    w, b, u = (p[f"{prefix}.{n}"] for n in ("W", "b", "U"))
    i, f, o, g = (x_t @ _gate(w, k, hidden) + h_prev @ _gate(u, k, hidden) + _gate(b, k, hidden)
                  for k in range(4))
    c_t = sigmoid(f) * c_prev + sigmoid(i) * tanh(g)
    return sigmoid(o) * tanh(c_t), c_t


def reference_direction(x, p: dict, prefix: str, kind: str, reverse: bool = False):
    """Time-major [T, batch, in] -> [T, batch, hidden], one tape cell per step."""
    hidden = p[f"{prefix}.b"].shape[0] // len(RNN_CELLS[kind].gates)
    seq_len, batch = x.shape[0], x.shape[1]
    h = c = Tensor(np.zeros((batch, hidden)))
    outputs = [None] * seq_len
    for t in (range(seq_len - 1, -1, -1) if reverse else range(seq_len)):
        if kind == "bigru":
            h = gru_cell(x[t], h, p, prefix, hidden)
        else:
            h, c = lstm_cell(x[t], (h, c), p, prefix, hidden)
        outputs[t] = h
    return stack(outputs, axis=0)


def reference_forward(config, p: dict, windows: np.ndarray):
    """model_forward for a recurrent config, built from the reference cells."""
    x = Tensor(np.asarray(windows, dtype=float).transpose(1, 0, 2))
    h = composed_linear(x, p["embed.W"], p["embed.b"])
    for layer in range(config.num_layers):
        h = concat([reference_direction(h, p, f"rnn{layer}.fwd", config.architecture),
                    reference_direction(h, p, f"rnn{layer}.bwd", config.architecture,
                                        reverse=True)], axis=-1)
    return composed_linear(h, p["out.W"], p["out.b"]).transpose((1, 0, 2))

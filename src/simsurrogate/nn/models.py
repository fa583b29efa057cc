"""Sequence models: stacked bidirectional GRU/LSTM and an encoder-only
transformer, all per-position regression heads over fixed-size windows."""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from ..errors import ModelConfigError
from .autodiff import Tensor, concat, masked_fill, sigmoid, softmax, stack, tanh

ARCHITECTURES = ("bigru", "bilstm", "transformer")


@dataclass
class ModelConfig:
    architecture: str
    input_dim: int
    output_dim: int
    hidden_size: int = 32
    num_layers: int = 1
    window_size: int = 16
    window_overlap: int = 0
    batch_size: int = 32
    num_heads: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ModelConfigError(f"unknown architecture {self.architecture!r}")
        if self.hidden_size < 1 or self.num_layers < 1:
            raise ModelConfigError("hidden_size and num_layers must be positive")
        if not 0 <= self.window_overlap < self.window_size:
            raise ModelConfigError("window_overlap must be < window_size")
        if self.architecture == "transformer" and self.hidden_size % self.num_heads != 0:
            raise ModelConfigError(
                f"hidden_size {self.hidden_size} not divisible by num_heads {self.num_heads}"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelConfig":
        return cls(**doc)


def _uniform(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = 1.0 / math.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


def _gate_params(rng, prefix: str, in_dim: int, hidden: int, gates: tuple[str, ...],
                 params: dict) -> None:
    for gate in gates:
        params[f"{prefix}.W{gate}"] = _uniform(rng, in_dim, (in_dim, hidden))
        params[f"{prefix}.U{gate}"] = _uniform(rng, hidden, (hidden, hidden))
        params[f"{prefix}.b{gate}"] = _uniform(rng, hidden, (hidden,))


def init_params(config: ModelConfig) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(config.seed)
    h = config.hidden_size
    params: dict[str, np.ndarray] = {
        "embed.W": _uniform(rng, config.input_dim, (config.input_dim, h)),
        "embed.b": _uniform(rng, config.input_dim, (h,)),
    }
    if config.architecture in ("bigru", "bilstm"):
        gates = ("z", "r", "h") if config.architecture == "bigru" else ("i", "f", "o", "g")
        for layer in range(config.num_layers):
            in_dim = h if layer == 0 else 2 * h
            for direction in ("fwd", "bwd"):
                _gate_params(rng, f"rnn{layer}.{direction}", in_dim, h, gates, params)
        out_in = 2 * h
    else:
        for layer in range(config.num_layers):
            p = f"enc{layer}"
            for name in ("q", "k", "v", "o"):
                params[f"{p}.W{name}"] = _uniform(rng, h, (h, h))
                params[f"{p}.b{name}"] = _uniform(rng, h, (h,))
            params[f"{p}.ln1.g"] = np.ones(h)
            params[f"{p}.ln1.b"] = np.zeros(h)
            params[f"{p}.ln2.g"] = np.ones(h)
            params[f"{p}.ln2.b"] = np.zeros(h)
            params[f"{p}.ff.W1"] = _uniform(rng, h, (h, 4 * h))
            params[f"{p}.ff.b1"] = _uniform(rng, h, (4 * h,))
            params[f"{p}.ff.W2"] = _uniform(rng, 4 * h, (4 * h, h))
            params[f"{p}.ff.b2"] = _uniform(rng, 4 * h, (h,))
        params["final_ln.g"] = np.ones(h)
        params["final_ln.b"] = np.zeros(h)
        out_in = h
    params["out.W"] = _uniform(rng, out_in, (out_in, config.output_dim))
    params["out.b"] = _uniform(rng, out_in, (config.output_dim,))
    return params


def wrap_params(params: dict[str, np.ndarray]) -> dict[str, Tensor]:
    return {k: Tensor(v, requires_grad=True) for k, v in params.items()}


# One forward, two array types ---------------------------------------------
#
# Each layer below is written once.  Given Tensor params, model_forward builds
# the autodiff tape that training backpropagates; given the plain ndarray
# params, the same code runs as numpy and builds no Tensor (prediction and
# eval loss).  Only the leaf kernels choose their code by the array's type:
# on ndarrays, layer_norm, _gelu and softmax run in-place numpy bodies, which
# only ever write buffers that nothing else reads.  `+=` likewise adds in
# place on an ndarray, while on a Tensor (which has no __iadd__) `h += y`
# rebinds h to a new tape node.

def linear_forward(x, w, b):
    if x.shape[-1] != w.shape[0]:
        raise ModelConfigError(f"linear shape mismatch: {x.shape} @ {w.shape}")
    out = x @ w
    out += b
    return out


def gru_cell(x_t, h_prev, p: dict, prefix: str):
    z = sigmoid(x_t @ p[f"{prefix}.Wz"] + h_prev @ p[f"{prefix}.Uz"] + p[f"{prefix}.bz"])
    r = sigmoid(x_t @ p[f"{prefix}.Wr"] + h_prev @ p[f"{prefix}.Ur"] + p[f"{prefix}.br"])
    cand = tanh(x_t @ p[f"{prefix}.Wh"] + (r * h_prev) @ p[f"{prefix}.Uh"] + p[f"{prefix}.bh"])
    return (1.0 - z) * h_prev + z * cand


def lstm_cell(x_t, state: tuple, p: dict, prefix: str) -> tuple:
    h_prev, c_prev = state
    i = sigmoid(x_t @ p[f"{prefix}.Wi"] + h_prev @ p[f"{prefix}.Ui"] + p[f"{prefix}.bi"])
    f = sigmoid(x_t @ p[f"{prefix}.Wf"] + h_prev @ p[f"{prefix}.Uf"] + p[f"{prefix}.bf"])
    o = sigmoid(x_t @ p[f"{prefix}.Wo"] + h_prev @ p[f"{prefix}.Uo"] + p[f"{prefix}.bo"])
    g = tanh(x_t @ p[f"{prefix}.Wg"] + h_prev @ p[f"{prefix}.Ug"] + p[f"{prefix}.bg"])
    c_t = f * c_prev + i * g
    h_t = o * tanh(c_t)
    return h_t, c_t


def _run_direction(x, p: dict, prefix: str, hidden: int, kind: str, reverse: bool) -> list:
    batch, seq_len = x.shape[0], x.shape[1]
    h = c = np.zeros((batch, hidden))
    order = range(seq_len - 1, -1, -1) if reverse else range(seq_len)
    outputs: list = [None] * seq_len
    for t in order:
        x_t = x[:, t, :]
        if kind == "bigru":
            h = gru_cell(x_t, h, p, prefix)
        else:
            h, c = lstm_cell(x_t, (h, c), p, prefix)
        outputs[t] = h
    return outputs


def bidirectional_forward(x, p: dict, layer_prefix: str, hidden: int, kind: str):
    """[batch, T, in] -> [batch, T, 2*hidden], fwd/bwd halves concatenated."""
    if x.shape[1] < 1:
        raise ModelConfigError("empty sequence")
    fwd = _run_direction(x, p, f"{layer_prefix}.fwd", hidden, kind, reverse=False)
    bwd = _run_direction(x, p, f"{layer_prefix}.bwd", hidden, kind, reverse=True)
    per_step = [concat([fwd[t], bwd[t]], axis=-1) for t in range(x.shape[1])]
    return stack(per_step, axis=1)


def layer_norm(x, g, b, eps: float = 1e-6):
    if isinstance(x, Tensor):
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        return centered / (var + eps).sqrt() * g + b
    out = x - x.mean(axis=-1, keepdims=True)  # a new buffer; x is left as it is
    var = (out * out).mean(axis=-1, keepdims=True)
    var += eps
    out /= np.sqrt(var, out=var)
    out *= g
    out += b
    return out


def _gelu(x):
    """tanh-approximate GELU; smooth, so finite-difference checks stay tight.

    An ndarray is overwritten with the result.  The cube is x * x * x:
    numpy sends x**3 through pow, which costs several times the rest."""
    if isinstance(x, Tensor):
        inner = 0.7978845608028654 * (x + 0.044715 * (x * x * x))
        return 0.5 * x * (1.0 + tanh(inner))
    inner = x * x
    inner *= x
    inner *= 0.044715
    inner += x
    inner *= 0.7978845608028654
    np.tanh(inner, out=inner)
    inner += 1.0
    x *= 0.5
    x *= inner
    return x


def multi_head_attention(x, p: dict, prefix: str, num_heads: int,
                         mask: np.ndarray | None = None):
    """Bidirectional scaled dot-product attention; padded keys get zero weight.

    x is [batch, T, d].  Q, K and V come from one fused [d, 3d] matmul over
    [batch*T, d], with the 1/sqrt(d_head) score scale folded into the Q columns."""
    batch, seq_len, d = x.shape
    if d % num_heads != 0:
        raise ModelConfigError(f"model dim {d} not divisible by {num_heads} heads")
    d_head = d // num_heads
    scale = 1.0 / math.sqrt(d_head)
    w_qkv = concat([p[f"{prefix}.Wq"] * scale, p[f"{prefix}.Wk"], p[f"{prefix}.Wv"]], axis=1)
    b_qkv = concat([p[f"{prefix}.bq"] * scale, p[f"{prefix}.bk"], p[f"{prefix}.bv"]], axis=0)
    qkv = linear_forward(x.reshape(batch * seq_len, d), w_qkv, b_qkv)
    # [batch, T, 3, heads, d_head] -> Q, K and V as [batch, heads, T, d_head]
    qkv = qkv.reshape(batch, seq_len, 3, num_heads, d_head).transpose((2, 0, 3, 1, 4))
    q, k, v = qkv[0], qkv[1], qkv[2]
    scores = q @ k.transpose((0, 1, 3, 2))
    if mask is not None:
        scores = masked_fill(scores, np.asarray(mask, dtype=bool)[:, None, None, :], -1e30)
    mixed = softmax(scores, axis=-1) @ v  # [batch, heads, T, d_head]
    merged = mixed.transpose((0, 2, 1, 3)).reshape(batch * seq_len, d)
    return linear_forward(merged, p[f"{prefix}.Wo"], p[f"{prefix}.bo"]).reshape(batch, seq_len, d)


def sinusoidal_encoding(seq_len: int, dim: int) -> np.ndarray:
    pos = np.arange(seq_len)[:, None]
    i = np.arange(dim)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    return np.where(i % 2 == 0, np.sin(angle), np.cos(angle))


def _encoder_forward(config: ModelConfig, p: dict, x: np.ndarray, mask: np.ndarray | None):
    """The transformer's embedding and encoder blocks: [batch*T, hidden].

    Activations stay 2-D, so every projection is one matmul; only the
    attention scores are 4-D."""
    batch, seq_len = x.shape[0], x.shape[1]
    hid = config.hidden_size
    h = linear_forward(x.reshape(batch * seq_len, config.input_dim), p["embed.W"], p["embed.b"])
    h += np.tile(sinusoidal_encoding(seq_len, hid), (batch, 1))
    if mask is not None and np.all(mask):
        mask = None  # every key is real: nothing to hide
    for layer in range(config.num_layers):
        pre = f"enc{layer}"
        normed = layer_norm(h, p[f"{pre}.ln1.g"], p[f"{pre}.ln1.b"])
        attn = multi_head_attention(normed.reshape(batch, seq_len, hid), p, pre,
                                    config.num_heads, mask)
        h += attn.reshape(batch * seq_len, hid)
        normed = layer_norm(h, p[f"{pre}.ln2.g"], p[f"{pre}.ln2.b"])
        ff = _gelu(linear_forward(normed, p[f"{pre}.ff.W1"], p[f"{pre}.ff.b1"]))
        h += linear_forward(ff, p[f"{pre}.ff.W2"], p[f"{pre}.ff.b2"])
    return layer_norm(h, p["final_ln.g"], p["final_ln.b"])


def model_forward(config: ModelConfig, p: dict, windows: np.ndarray,
                  mask: np.ndarray | None = None):
    """Predictions [n_windows, window_size, output_dim] for a window batch:
    a Tensor on the tape for Tensor params, an ndarray for ndarray params."""
    x = np.asarray(windows, dtype=np.float64)
    if x.shape[-1] != config.input_dim:
        raise ModelConfigError(
            f"window feature dim {x.shape[-1]} != config.input_dim {config.input_dim}"
        )
    if config.architecture == "transformer":
        out = linear_forward(_encoder_forward(config, p, x, mask), p["out.W"], p["out.b"])
        return out.reshape(x.shape[0], x.shape[1], config.output_dim)
    h = linear_forward(x, p["embed.W"], p["embed.b"])
    for layer in range(config.num_layers):
        h = bidirectional_forward(h, p, f"rnn{layer}", config.hidden_size, config.architecture)
    return linear_forward(h, p["out.W"], p["out.b"])


def model_forward_infer(config: ModelConfig, params: dict[str, np.ndarray],
                        windows: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Gradient-free forward pass: model_forward on the plain parameter arrays."""
    return model_forward(config, params, windows, mask)

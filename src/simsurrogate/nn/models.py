"""Sequence models: stacked bidirectional GRU/LSTM and an encoder-only
transformer, all per-position regression heads over fixed-size windows."""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from ..errors import ModelConfigError
from .autodiff import Tensor, concat, softmax, stack

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


def linear_forward(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    if x.shape[-1] != w.shape[0]:
        raise ModelConfigError(f"linear shape mismatch: {x.shape} @ {w.shape}")
    return x @ w + b


def gru_cell(x_t: Tensor, h_prev: Tensor, p: dict[str, Tensor], prefix: str) -> Tensor:
    z = (x_t @ p[f"{prefix}.Wz"] + h_prev @ p[f"{prefix}.Uz"] + p[f"{prefix}.bz"]).sigmoid()
    r = (x_t @ p[f"{prefix}.Wr"] + h_prev @ p[f"{prefix}.Ur"] + p[f"{prefix}.br"]).sigmoid()
    cand = (x_t @ p[f"{prefix}.Wh"] + (r * h_prev) @ p[f"{prefix}.Uh"] + p[f"{prefix}.bh"]).tanh()
    return (1.0 - z) * h_prev + z * cand


def lstm_cell(x_t: Tensor, state: tuple[Tensor, Tensor], p: dict[str, Tensor],
              prefix: str) -> tuple[Tensor, Tensor]:
    h_prev, c_prev = state
    i = (x_t @ p[f"{prefix}.Wi"] + h_prev @ p[f"{prefix}.Ui"] + p[f"{prefix}.bi"]).sigmoid()
    f = (x_t @ p[f"{prefix}.Wf"] + h_prev @ p[f"{prefix}.Uf"] + p[f"{prefix}.bf"]).sigmoid()
    o = (x_t @ p[f"{prefix}.Wo"] + h_prev @ p[f"{prefix}.Uo"] + p[f"{prefix}.bo"]).sigmoid()
    g = (x_t @ p[f"{prefix}.Wg"] + h_prev @ p[f"{prefix}.Ug"] + p[f"{prefix}.bg"]).tanh()
    c_t = f * c_prev + i * g
    h_t = o * c_t.tanh()
    return h_t, c_t


def _run_direction(x: Tensor, p: dict[str, Tensor], prefix: str, hidden: int,
                   kind: str, reverse: bool) -> list[Tensor]:
    batch, seq_len = x.shape[0], x.shape[1]
    h = Tensor(np.zeros((batch, hidden)))
    c = Tensor(np.zeros((batch, hidden)))
    order = range(seq_len - 1, -1, -1) if reverse else range(seq_len)
    outputs: list[Tensor | None] = [None] * seq_len
    for t in order:
        x_t = x[:, t, :]
        if kind == "bigru":
            h = gru_cell(x_t, h, p, prefix)
        else:
            h, c = lstm_cell(x_t, (h, c), p, prefix)
        outputs[t] = h
    return outputs  # type: ignore[return-value]


def bidirectional_forward(x: Tensor, p: dict[str, Tensor], layer_prefix: str,
                          hidden: int, kind: str) -> Tensor:
    """[batch, T, in] -> [batch, T, 2*hidden], fwd/bwd halves concatenated."""
    if x.shape[1] < 1:
        raise ModelConfigError("empty sequence")
    fwd = _run_direction(x, p, f"{layer_prefix}.fwd", hidden, kind, reverse=False)
    bwd = _run_direction(x, p, f"{layer_prefix}.bwd", hidden, kind, reverse=True)
    per_step = [concat([fwd[t], bwd[t]], axis=-1) for t in range(x.shape[1])]
    return stack(per_step, axis=1)


def layer_norm(x: Tensor, g: Tensor, b: Tensor, eps: float = 1e-6) -> Tensor:
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / (var + eps).sqrt() * g + b


def _gelu(x: Tensor) -> Tensor:
    # tanh approximation; smooth, so finite-difference checks stay tight
    inner = 0.7978845608028654 * (x + 0.044715 * (x * x * x))
    return 0.5 * x * (1.0 + inner.tanh())


def multi_head_attention(x: Tensor, p: dict[str, Tensor], prefix: str,
                         num_heads: int, mask: np.ndarray | None = None) -> Tensor:
    """Bidirectional scaled dot-product attention; padded keys get zero weight."""
    batch, seq_len, d = x.shape
    if d % num_heads != 0:
        raise ModelConfigError(f"model dim {d} not divisible by {num_heads} heads")
    d_head = d // num_heads

    def split_heads(t: Tensor) -> Tensor:
        return t.reshape(batch, seq_len, num_heads, d_head).transpose((0, 2, 1, 3))

    q = split_heads(x @ p[f"{prefix}.Wq"] + p[f"{prefix}.bq"])
    k = split_heads(x @ p[f"{prefix}.Wk"] + p[f"{prefix}.bk"])
    v = split_heads(x @ p[f"{prefix}.Wv"] + p[f"{prefix}.bv"])
    scores = (q @ k.transpose((0, 1, 3, 2))) * (1.0 / math.sqrt(d_head))
    if mask is not None:
        key_mask = np.asarray(mask, dtype=bool)[:, None, None, :]
        scores = scores.masked_fill(key_mask, -1e30)
    weights = softmax(scores, axis=-1)
    mixed = weights @ v  # [batch, heads, T, d_head]
    merged = mixed.transpose((0, 2, 1, 3)).reshape(batch, seq_len, d)
    return merged @ p[f"{prefix}.Wo"] + p[f"{prefix}.bo"]


def sinusoidal_encoding(seq_len: int, dim: int) -> np.ndarray:
    pos = np.arange(seq_len)[:, None]
    i = np.arange(dim)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    enc = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return enc


def model_forward(config: ModelConfig, p: dict[str, Tensor], windows: np.ndarray,
                  mask: np.ndarray | None = None) -> Tensor:
    """Predictions [n_windows, window_size, output_dim] for a window batch."""
    x = Tensor(windows)
    if x.shape[-1] != config.input_dim:
        raise ModelConfigError(
            f"window feature dim {x.shape[-1]} != config.input_dim {config.input_dim}"
        )
    h = linear_forward(x, p["embed.W"], p["embed.b"])
    if config.architecture in ("bigru", "bilstm"):
        for layer in range(config.num_layers):
            h = bidirectional_forward(h, p, f"rnn{layer}", config.hidden_size,
                                      config.architecture)
    else:
        h = h + Tensor(sinusoidal_encoding(x.shape[1], config.hidden_size))
        for layer in range(config.num_layers):
            prefix = f"enc{layer}"
            normed = layer_norm(h, p[f"{prefix}.ln1.g"], p[f"{prefix}.ln1.b"])
            h = h + multi_head_attention(normed, p, prefix, config.num_heads, mask)
            normed = layer_norm(h, p[f"{prefix}.ln2.g"], p[f"{prefix}.ln2.b"])
            ff = _gelu(normed @ p[f"{prefix}.ff.W1"] + p[f"{prefix}.ff.b1"])
            h = h + (ff @ p[f"{prefix}.ff.W2"] + p[f"{prefix}.ff.b2"])
        h = layer_norm(h, p["final_ln.g"], p["final_ln.b"])
    return linear_forward(h, p["out.W"], p["out.b"])


# Inference-only forward pass ----------------------------------------------
#
# BiGRU and BiLSTM predict through model_forward itself on tape-free Tensors
# (requires_grad=False, so no graph is kept): each recurrent cell is written
# once, in gru_cell and lstm_cell.  Only the transformer has its own in-place
# numpy path, because model_forward measured 1.6-2x slower for it: the fused
# QKV matmul, 2-D activations and in-place layer norm, softmax and GELU
# buffers below have no counterpart on Tensors.  An equivalence test keeps
# _transformer_infer in step with the autodiff path.

def _np_softmax_(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in place in x."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _np_layer_norm(x, g, b, eps=1e-6):
    """Layer norm over the last axis into a new buffer; x is left as it is."""
    out = x - x.mean(axis=-1, keepdims=True)
    var = (out * out).mean(axis=-1, keepdims=True)
    var += eps
    out /= np.sqrt(var, out=var)
    out *= g
    out += b
    return out


def _np_gelu_(x: np.ndarray) -> np.ndarray:
    """The tanh-approximate GELU of _gelu, computed in place in x.

    The cube is x * x * x: numpy sends x**3 through pow, which costs several
    times the rest of the function."""
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


def model_forward_infer(config: ModelConfig, params: dict[str, np.ndarray],
                        windows: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Gradient-free forward pass; same outputs as model_forward."""
    x = np.asarray(windows, dtype=float)
    if x.shape[-1] != config.input_dim:
        raise ModelConfigError(
            f"window feature dim {x.shape[-1]} != config.input_dim {config.input_dim}"
        )
    if config.architecture == "transformer":
        return _transformer_infer(config, params, x, mask)
    return model_forward(config, {k: Tensor(v) for k, v in params.items()}, x, mask).data


def _transformer_infer(config: ModelConfig, params: dict[str, np.ndarray],
                       x: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """The transformer branch of model_forward_infer.

    Activations stay a 2-D [batch*T, hidden] array; only the attention scores
    are 4-D.  Q, K and V come from one fused [hidden, 3*hidden] matmul, with
    the 1/sqrt(d_head) score scale folded into the Q columns."""
    batch, seq_len = x.shape[0], x.shape[1]
    hid, n_heads = config.hidden_size, config.num_heads
    d_head = hid // n_heads
    scale = 1.0 / math.sqrt(d_head)
    h = x.reshape(batch * seq_len, config.input_dim) @ params["embed.W"]
    h += params["embed.b"]
    h3 = h.reshape(batch, seq_len, hid)  # a view: adds into h
    h3 += sinusoidal_encoding(seq_len, hid)
    pad = None
    if mask is not None and not np.all(mask):
        pad = ~np.asarray(mask, dtype=bool)[:, None, None, :]
    for layer in range(config.num_layers):
        pre = f"enc{layer}"
        w_qkv = np.concatenate([params[f"{pre}.Wq"] * scale, params[f"{pre}.Wk"],
                                params[f"{pre}.Wv"]], axis=1)
        b_qkv = np.concatenate([params[f"{pre}.bq"] * scale, params[f"{pre}.bk"],
                                params[f"{pre}.bv"]])
        qkv = _np_layer_norm(h, params[f"{pre}.ln1.g"], params[f"{pre}.ln1.b"]) @ w_qkv
        qkv += b_qkv
        # [batch, T, 3, heads, d_head] -> three [batch, heads, T, d_head] views
        q, k, v = qkv.reshape(batch, seq_len, 3, n_heads, d_head).transpose(2, 0, 3, 1, 4)
        scores = q @ k.transpose(0, 1, 3, 2)
        if pad is not None:
            np.copyto(scores, -1e30, where=pad)
        mixed = _np_softmax_(scores) @ v  # [batch, heads, T, d_head]
        h += mixed.transpose(0, 2, 1, 3).reshape(batch * seq_len, hid) @ params[f"{pre}.Wo"]
        h += params[f"{pre}.bo"]
        normed = _np_layer_norm(h, params[f"{pre}.ln2.g"], params[f"{pre}.ln2.b"])
        ff = normed @ params[f"{pre}.ff.W1"]
        ff += params[f"{pre}.ff.b1"]
        h += _np_gelu_(ff) @ params[f"{pre}.ff.W2"]
        h += params[f"{pre}.ff.b2"]
    h = _np_layer_norm(h, params["final_ln.g"], params["final_ln.b"])
    out = h @ params["out.W"]
    out += params["out.b"]
    return out.reshape(batch, seq_len, config.output_dim)

"""Sequence models: stacked bidirectional GRU/LSTM and an encoder-only
transformer, all per-position regression heads over fixed-size windows."""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Callable

import numpy as np

from ..errors import ModelConfigError
from .autodiff import Tensor, concat, fused_node

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


def _fused_gate_params(rng, in_dim: int, hidden: int, n_gates: int):
    """A direction's W [in, n*h], U [h, n*h] and b [n*h].  Each gate's W, U and
    b are drawn in turn, then joined along the gate axis, so the initial
    weights do not depend on the fused layout."""
    draws = [(_uniform(rng, in_dim, (in_dim, hidden)),
              _uniform(rng, hidden, (hidden, hidden)),
              _uniform(rng, hidden, (hidden,))) for _ in range(n_gates)]
    return tuple(np.concatenate(parts, axis=-1) for parts in zip(*draws))


def init_params(config: ModelConfig) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(config.seed)
    h = config.hidden_size
    params: dict[str, np.ndarray] = {
        "embed.W": _uniform(rng, config.input_dim, (config.input_dim, h)),
        "embed.b": _uniform(rng, config.input_dim, (h,)),
    }
    if config.architecture in RNN_CELLS:
        cell = RNN_CELLS[config.architecture]
        for layer in range(config.num_layers):
            in_dim = h if layer == 0 else 2 * h
            for direction in ("fwd", "bwd"):
                pre = f"rnn{layer}.{direction}"
                w, u, b = _fused_gate_params(rng, in_dim, h, len(cell.gates))
                params[f"{pre}.W"], params[f"{pre}.b"] = w, b
                col = 0
                for name, n_gates in cell.u_blocks:
                    params[f"{pre}.{name}"] = u[:, col:col + n_gates * h].copy()
                    col += n_gates * h
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
# eval loss).  Each layer and the masked-MSE loss (train.mse_loss) is a
# kernel whose forward is always numpy: on ndarrays it returns the result, and
# given any Tensor operand it adds one tape node (fused_node) whose
# hand-written backward returns every operand's gradient from what the forward
# kept.  On the numpy route GELU overwrites
# its input, and `+=` adds in place; on a Tensor (which has no __iadd__)
# `h += y` rebinds h to a new tape node.


def _arrays(operands) -> list:
    return [a.data if isinstance(a, Tensor) else a for a in operands]


def _on_tape(operands) -> bool:
    return any(isinstance(a, Tensor) for a in operands)


def linear_forward(x, w, b):
    """x @ w + b over x's last axis.  The backward is g @ w.T, x.T @ g and
    g's column sums: the operations the matmul and bias-add nodes did."""
    x_d, w_d, b_d = _arrays((x, w, b))
    if x_d.shape[-1] != w_d.shape[0]:
        raise ModelConfigError(f"linear shape mismatch: {x_d.shape} @ {w_d.shape}")
    out = x_d @ w_d
    out += b_d
    if not _on_tape((x, w, b)):
        return out

    def backward(g):
        rows = g.reshape(-1, g.shape[-1])
        return g @ w_d.T, x_d.reshape(len(rows), -1).T @ rows, rows.sum(axis=0)

    return fused_node(out, (x, w, b), backward)


# Recurrent layers -----------------------------------------------------------
#
# Each direction stores its gates fused: a GRU has W [in, 3h] (z, r and
# candidate columns), U_zr [h, 2h], U_h [h, h] and b [3h]; U_h stays apart
# because the candidate reads (r*h) @ U_h.  An LSTM has W [in, 4h] (i, f, o,
# g), U [h, 4h] and b [4h].  rnn_direction runs one direction in numpy,
# time-major, whatever the array type: one x @ W + b matmul covers every
# step, and each step multiplies only the hidden state.  Inside, the
# pre-activations are gate-major, [T, gates, batch, h]: each gate's block is
# contiguous, and every forward matmul is a stack of [batch, h] @ [h, h],
# which OpenBLAS ran faster per flop than one [batch, h] @ [h, gates*h] (256
# windows, h=32).  The scan overwrites them with the gate activations.  Given
# Tensors, rnn_direction returns one tape node whose backward is the
# hand-written BPTT below, run once for all of the node's parents (x, W, the
# U blocks and b).

def _sigmoid_(a: np.ndarray) -> np.ndarray:
    """Logistic sigmoid, in place."""
    np.negative(a, out=a)
    np.exp(a, out=a)
    a += 1.0
    return np.reciprocal(a, out=a)


def _previous(seq: np.ndarray, reverse: bool) -> np.ndarray:
    """The state each step started from: seq shifted one step against the
    scan order, with the zero initial state at the scan's first step."""
    prev = np.zeros_like(seq)
    if reverse:
        prev[:-1] = seq[1:]
    else:
        prev[1:] = seq[:-1]
    return prev


def _gru_scan(act: np.ndarray, order, u_zr: np.ndarray, u_h: np.ndarray):
    """act [T, 3, batch, h] holds x @ W + b; on return it holds z, r and the
    candidate.  Returns the states [T, batch, h] and nothing else to keep."""
    hid = u_h.shape[0]
    u_zr = u_zr.reshape(hid, 2, hid).transpose(1, 0, 2)
    out = np.empty(act[:, 0].shape)
    h = np.zeros(out.shape[1:])
    hu, rh, rhu = np.empty((2,) + h.shape), np.empty_like(h), np.empty_like(h)
    for t in order:
        zr = act[t, :2]
        zr += np.matmul(h, u_zr, out=hu)
        _sigmoid_(zr)
        np.multiply(zr[1], h, out=rh)
        cand = act[t, 2]
        cand += np.matmul(rh, u_h, out=rhu)
        np.tanh(cand, out=cand)
        h_new = out[t]  # h + z * (cand - h)
        np.subtract(cand, h, out=h_new)
        h_new *= zr[0]
        h_new += h
        h = h_new
    return out, ()


def _gru_bptt(dout: np.ndarray, act: np.ndarray, out: np.ndarray, saved, order,
              reverse: bool, u_zr: np.ndarray, u_h: np.ndarray) -> tuple:
    """dL/d(x @ W + b) as rows [T, batch, 3h], and what U_zr and U_h
    multiplied: h_prev and r * h_prev."""
    hid = u_h.shape[0]
    z, r, cand = act[:, 0], act[:, 1], act[:, 2]
    h_prev = _previous(out, reverse)
    # Each pre-activation's gradient is a step's incoming dh (or, for r, the
    # gradient reaching r*h) times a factor the forward fixed.
    keep = 1.0 - z
    k_cand = cand * cand
    np.subtract(1.0, k_cand, out=k_cand)
    k_cand *= z
    k_z = cand - h_prev
    k_z *= z
    k_z *= keep
    k_r = 1.0 - r
    k_r *= r
    k_r *= h_prev
    d_act = np.empty(out.shape[:2] + (3 * hid,))
    u_zr_t, u_h_t = u_zr.T, u_h.T
    dh = np.zeros(out.shape[1:])
    for t in reversed(order):
        dh += dout[t]
        da = d_act[t]
        np.multiply(dh, k_cand[t], out=da[:, 2 * hid:])
        d_rh = da[:, 2 * hid:] @ u_h_t
        np.multiply(dh, k_z[t], out=da[:, :hid])
        np.multiply(d_rh, k_r[t], out=da[:, hid:2 * hid])
        dh *= keep[t]
        d_rh *= r[t]
        dh += d_rh
        dh += da[:, :2 * hid] @ u_zr_t
    return d_act, (h_prev, r * h_prev)


def _lstm_scan(act: np.ndarray, order, u: np.ndarray):
    """act [T, 4, batch, h] holds x @ W + b; on return it holds i, f, o and g.
    Returns the states [T, batch, h] and the cell states to keep."""
    hid = u.shape[0]
    u = u.reshape(hid, 4, hid).transpose(1, 0, 2)
    out = np.empty(act[:, 0].shape)
    cells = np.empty_like(out)
    h = c = np.zeros(out.shape[1:])
    hu, ig = np.empty(act.shape[1:]), np.empty_like(h)
    for t in order:
        a = act[t]
        a += np.matmul(h, u, out=hu)
        _sigmoid_(a[:3])
        np.tanh(a[3], out=a[3])
        c_new = cells[t]
        np.multiply(a[1], c, out=c_new)
        c_new += np.multiply(a[0], a[3], out=ig)
        h_new = out[t]
        np.tanh(c_new, out=h_new)
        h_new *= a[2]
        h, c = h_new, c_new
    return out, (cells,)


def _lstm_bptt(dout: np.ndarray, act: np.ndarray, out: np.ndarray, saved, order,
               reverse: bool, u: np.ndarray) -> tuple:
    """dL/d(x @ W + b) as rows [T, batch, 4h], and what U multiplied: h_prev."""
    (cells,) = saved
    hid = u.shape[0]
    i, f, o, g = act[:, 0], act[:, 1], act[:, 2], act[:, 3]
    tc = np.tanh(cells)
    # dL/d(pre-activation) is dh or dc times a factor the forward fixed.
    k_o = 1.0 - o
    k_o *= o
    k_o *= tc
    k_c = tc * tc
    np.subtract(1.0, k_c, out=k_c)
    k_c *= o
    k_i = 1.0 - i
    k_i *= i
    k_i *= g
    k_f = 1.0 - f
    k_f *= f
    k_f *= _previous(cells, reverse)
    k_g = g * g
    np.subtract(1.0, k_g, out=k_g)
    k_g *= i
    d_act = np.empty(out.shape[:2] + (4 * hid,))
    u_t = u.T
    dh = np.zeros(out.shape[1:])
    dc, tmp = np.zeros_like(dh), np.empty_like(dh)
    for t in reversed(order):
        dh += dout[t]
        dc += np.multiply(dh, k_c[t], out=tmp)
        da = d_act[t]
        np.multiply(dc, k_i[t], out=da[:, :hid])
        np.multiply(dc, k_f[t], out=da[:, hid:2 * hid])
        np.multiply(dh, k_o[t], out=da[:, 2 * hid:3 * hid])
        np.multiply(dc, k_g[t], out=da[:, 3 * hid:])
        dc *= f[t]
        np.matmul(da, u_t, out=dh)
    return d_act, (_previous(out, reverse),)


@dataclass(frozen=True)
class RnnCell:
    gates: tuple[str, ...]
    u_blocks: tuple[tuple[str, int], ...]  # (parameter name, gates it covers)
    scan: Callable
    bptt: Callable


RNN_CELLS = {
    "bigru": RnnCell(("z", "r", "h"), (("U_zr", 2), ("U_h", 1)), _gru_scan, _gru_bptt),
    "bilstm": RnnCell(("i", "f", "o", "g"), (("U", 4),), _lstm_scan, _lstm_bptt),
}


def rnn_direction(x, p: dict, prefix: str, kind: str, reverse: bool = False):
    """One recurrent direction from a zero state: time-major [T, batch, in] ->
    [T, batch, hidden].  An ndarray for ndarray operands; one tape node if x or
    the parameters are Tensors."""
    cell = RNN_CELLS[kind]
    operands = [x, p[f"{prefix}.W"], *(p[f"{prefix}.{n}"] for n, _ in cell.u_blocks),
                p[f"{prefix}.b"]]
    x_d, w, *us, b = _arrays(operands)
    seq_len, batch, in_dim = x_d.shape
    if in_dim != w.shape[0]:
        raise ModelConfigError(f"{prefix}: input width {in_dim} != W rows {w.shape[0]}")
    hid = us[0].shape[0]
    act = np.matmul(x_d[:, None], w.reshape(in_dim, -1, hid).transpose(1, 0, 2))
    act += b.reshape(-1, 1, hid)  # x @ W + b: [T, gates, batch, h]
    order = range(seq_len - 1, -1, -1) if reverse else range(seq_len)
    out, saved = cell.scan(act, order, *us)
    if not _on_tape(operands):
        return out

    def backward(dout):
        d_act, u_inputs = cell.bptt(dout, act, out, saved, order, reverse, *us)
        rows = d_act.reshape(seq_len * batch, -1)
        # a plain-array x (layer 0's raw features) takes no gradient
        dx = (rows @ w.T).reshape(x_d.shape) if isinstance(x, Tensor) else None
        grads = [dx, x_d.reshape(len(rows), in_dim).T @ rows]
        col = 0
        for u, u_in in zip(us, u_inputs):
            grads.append(u_in.reshape(len(rows), hid).T @ rows[:, col:col + u.shape[1]])
            col += u.shape[1]
        return (*grads, rows.sum(axis=0))

    return fused_node(out, operands, backward)


def _fold_embedding(p: dict) -> dict:
    """p with the linear embedding folded into layer 0's input projection:
    each direction's W becomes embed.W @ W [in, gates*h] and its b becomes
    embed.b @ W + b, so layer 0 reads the raw features.  Given Tensors, each
    folded array is one tape node."""
    folded = dict(p)
    for direction in ("fwd", "bwd"):
        pre = f"rnn0.{direction}"
        w = p[f"{pre}.W"]
        folded[f"{pre}.W"] = p["embed.W"] @ w
        folded[f"{pre}.b"] = linear_forward(p["embed.b"], w, p[f"{pre}.b"])
    return folded


def bidirectional_forward(x, p: dict, layer_prefix: str, kind: str):
    """Time-major [T, batch, in] -> [T, batch, 2*hidden], fwd/bwd halves concatenated."""
    if x.shape[0] < 1:
        raise ModelConfigError("empty sequence")
    return concat([rnn_direction(x, p, f"{layer_prefix}.fwd", kind),
                   rnn_direction(x, p, f"{layer_prefix}.bwd", kind, reverse=True)], axis=-1)


def layer_norm(x, g, b, eps: float = 1e-6):
    """(x - mean) / sigma * g + b over the last axis, sigma = sqrt(var + eps).

    The backward keeps xhat = (x - mean) / sigma and sigma:
    dx = (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) / sigma with
    dxhat = dy * g, and dg, db sum dy * xhat and dy over the leading axes."""
    x_d, g_d, b_d = _arrays((x, g, b))
    xhat = x_d - x_d.mean(axis=-1, keepdims=True)  # a new buffer; x is left as it is
    sigma = (xhat * xhat).mean(axis=-1, keepdims=True)
    sigma += eps
    xhat /= np.sqrt(sigma, out=sigma)
    if not _on_tape((x, g, b)):
        xhat *= g_d
        xhat += b_d
        return xhat
    out = xhat * g_d
    out += b_d

    def backward(dy):
        width = dy.shape[-1]
        dxhat = dy * g_d
        dx = dxhat - dxhat.mean(axis=-1, keepdims=True)
        dxhat *= xhat
        dx -= xhat * dxhat.mean(axis=-1, keepdims=True)
        dx /= sigma
        dg = (dy * xhat).reshape(-1, width).sum(axis=0)
        return dx, dg, dy.reshape(-1, width).sum(axis=0)

    return fused_node(out, (x, g, b), backward)


_GELU_A, _GELU_C = 0.044715, 0.7978845608028654


def _gelu(x):
    """tanh-approximate GELU, 0.5 * x * (1 + tanh(c * (x + a * x^3))); smooth,
    so finite-difference checks stay tight.

    An ndarray is overwritten with the result.  A Tensor's node keeps
    1 + tanh for the backward:
    0.5 * (1 + tanh) + 0.5 * x * (1 - tanh^2) * c * (1 + 3a * x^2).
    The cube is x * x * x: numpy sends x**3 through pow, which costs several
    times the rest."""
    on_tape = isinstance(x, Tensor)
    x_d = x.data if on_tape else x
    inner = x_d * x_d
    inner *= x_d
    inner *= _GELU_A
    inner += x_d
    inner *= _GELU_C
    np.tanh(inner, out=inner)
    inner += 1.0
    out = np.multiply(x_d, 0.5, out=None if on_tape else x_d)
    out *= inner
    if not on_tape:
        return out

    def backward(g):
        d = x_d * x_d
        d *= 3.0 * _GELU_A
        d += 1.0
        d *= _GELU_C
        d *= x_d
        d *= 2.0 - inner
        d *= inner  # now x * c * (1 + 3a * x^2) * (1 - tanh^2)
        d += inner
        d *= 0.5
        d *= g
        return (d,)

    return fused_node(out, (x,), backward)


def multi_head_attention(x, p: dict, prefix: str, num_heads: int,
                         mask: np.ndarray | None = None):
    """Bidirectional scaled dot-product attention; padded keys get zero weight.

    x is [batch, T, d].  Q, K and V come from one fused [d, 3d] matmul over
    [batch*T, d], with the 1/sqrt(d_head) score scale folded into the Q columns.
    Given Tensors, all up to the softmax-weighted values is one tape node that
    keeps the weights P; its softmax backward is dS = P * (dP - rowsum(dP * P))."""
    operands = [x, *(p[f"{prefix}.{n}"] for n in ("Wq", "Wk", "Wv", "bq", "bk", "bv"))]
    x_d, wq, wk, wv, bq, bk, bv = _arrays(operands)
    batch, seq_len, d = x_d.shape
    if d % num_heads != 0:
        raise ModelConfigError(f"model dim {d} not divisible by {num_heads} heads")
    d_head = d // num_heads
    rows = x_d.reshape(batch * seq_len, d)
    cols = np.repeat([1.0 / math.sqrt(d_head), 1.0, 1.0], d)  # the score scale on Q
    w_qkv = np.concatenate([wq, wk, wv], axis=1) * cols
    qkv = linear_forward(rows, w_qkv, np.concatenate([bq, bk, bv]) * cols)
    # [batch, T, 3, heads, d_head] -> Q, K and V as [batch, heads, T, d_head]
    q, k, v = qkv.reshape(batch, seq_len, 3, num_heads, d_head).transpose(2, 0, 3, 1, 4)
    weights = q @ k.transpose(0, 1, 3, 2)
    if mask is not None:
        weights = np.where(np.asarray(mask, dtype=bool)[:, None, None, :], weights, -1e30)
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    mixed = (weights @ v).transpose(0, 2, 1, 3).reshape(batch * seq_len, d)
    if _on_tape(operands):
        def backward(g):
            d_out = g.reshape(batch, seq_len, num_heads, d_head).transpose(0, 2, 1, 3)
            d_s = d_out @ v.transpose(0, 1, 3, 2)
            d_s -= (d_s * weights).sum(axis=-1, keepdims=True)
            d_s *= weights
            d_qkv = np.stack([d_s @ k, d_s.transpose(0, 1, 3, 2) @ q,
                              weights.transpose(0, 1, 3, 2) @ d_out])
            d_rows = d_qkv.transpose(1, 3, 0, 2, 4).reshape(batch * seq_len, 3 * d)
            d_w, d_b = (rows.T @ d_rows) * cols, d_rows.sum(axis=0) * cols
            return (d_rows @ w_qkv.T).reshape(x_d.shape), *np.hsplit(d_w, 3), *np.split(d_b, 3)

        mixed = fused_node(mixed, operands, backward)
    return linear_forward(mixed, p[f"{prefix}.Wo"], p[f"{prefix}.bo"]).reshape(batch, seq_len, d)


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
    # The recurrent stack runs time-major, on rows ordered (step, window).
    # Layer 0 reads the raw features through the folded embedding: one
    # [in, gates*h] matmul per row instead of [in, h] and then [h, gates*h].
    batch, seq_len = x.shape[0], x.shape[1]
    h = np.ascontiguousarray(x.transpose(1, 0, 2))
    for layer in range(config.num_layers):
        h = bidirectional_forward(h, _fold_embedding(p) if layer == 0 else p,
                                  f"rnn{layer}", config.architecture)
    out = linear_forward(h.reshape(seq_len * batch, -1), p["out.W"], p["out.b"])
    return out.reshape(seq_len, batch, config.output_dim).transpose((1, 0, 2))


def model_forward_infer(config: ModelConfig, params: dict[str, np.ndarray],
                        windows: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Gradient-free forward pass: model_forward on the plain parameter arrays."""
    return model_forward(config, params, windows, mask)


# Inference chunks -------------------------------------------------------------
#
# Outputs are per-window, so prediction may batch wider than training did.  A
# transformer chunk holds as many windows as keep its widest float64
# activation within INFERENCE_CHUNK_BYTES: the [windows*T, 4h] feed-forward
# hidden, or the [windows, heads, T, T] scores once heads*T passes 4h.  At
# h=32, T=16 that is 64 windows.  On a Xeon with a 2 MiB per-core L2, a
# 256-window chunk's 4 MiB hidden predicted 10k rows about 1.3x slower and
# page-faulted on every call.  The recurrent models run 256 windows, or
# training's batch size if larger: 64 or 113 windows measured no faster.

INFERENCE_CHUNK_BYTES = 1 << 20
RNN_INFERENCE_WINDOWS = 256


def inference_chunk(config: ModelConfig) -> int:
    """Windows per model_forward_infer call when predicting many windows."""
    if config.architecture != "transformer":
        return max(RNN_INFERENCE_WINDOWS, config.batch_size)
    seq_len = config.window_size
    widest = seq_len * max(4 * config.hidden_size, config.num_heads * seq_len) * 8
    return max(1, INFERENCE_CHUNK_BYTES // widest)

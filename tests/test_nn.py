import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from tape_reference import (
    composed_attention,
    composed_gelu,
    composed_layer_norm,
    composed_linear,
    gru_cell,
    masked_fill,
    reference_direction,
    reference_forward,
    rnn_params,
    softmax,
    stack,
)

from simsurrogate.errors import ModelConfigError
from simsurrogate import evaluate
from simsurrogate.evaluate import predict_rows
from simsurrogate.nn.autodiff import Tensor, concat, fused_node
from simsurrogate.nn.models import (
    ModelConfig,
    _gelu,
    bidirectional_forward,
    inference_chunk,
    init_params,
    layer_norm,
    linear_forward,
    model_forward,
    model_forward_infer,
    multi_head_attention,
    rnn_direction,
    sinusoidal_encoding,
    wrap_params,
)
from simsurrogate.preprocess import (
    fit_standardizer,
    make_windows,
    standardize_table,
    unwindow_aligned,
)
from simsurrogate.traceio import SampleTable
from simsurrogate.train import mse_loss


def numeric_grad(fn, params, name, step=1e-3):
    """Central finite differences of scalar fn w.r.t. params[name]."""
    base = params[name]
    grad = np.zeros_like(base)
    it = np.nditer(base, flags=["multi_index"])
    while not it.finished:
        ix = it.multi_index
        orig = base[ix]
        base[ix] = orig + step
        hi = fn(params)
        base[ix] = orig - step
        lo = fn(params)
        base[ix] = orig
        grad[ix] = (hi - lo) / (2 * step)
        it.iternext()
    return grad


def check_grads(loss_fn, params, tol):
    """loss_fn(tensors) -> Tensor scalar; compares backprop to central diffs."""
    tensors = wrap_params(params)
    loss = loss_fn(tensors)
    loss.backward()

    def scalar(raw):
        return float(loss_fn(wrap_params(raw)).data)

    worst = 0.0
    for name in params:
        analytic = tensors[name].grad
        if analytic is None:
            analytic = np.zeros_like(params[name])
        numeric = numeric_grad(scalar, params, name)
        denom = max(np.abs(numeric).max(), np.abs(analytic).max(), 1e-8)
        err = np.abs(analytic - numeric).max() / denom
        worst = max(worst, err)
        assert err < tol, f"gradient mismatch for {name}: {err:.2e}"
    return worst


class TestLinear:
    def test_zero_input_gives_bias(self):
        w = Tensor(np.random.default_rng(0).normal(size=(3, 2)))
        b = Tensor(np.array([1.0, -2.0]))
        out = linear_forward(Tensor(np.zeros((4, 3))), w, b)
        np.testing.assert_allclose(out.data, np.tile([1.0, -2.0], (4, 1)))

    def test_identity_weights(self):
        x = np.random.default_rng(1).normal(size=(5, 3))
        out = linear_forward(Tensor(x), Tensor(np.eye(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, x)

    def test_matches_manual_matmul(self):
        rng = np.random.default_rng(2)
        x, w, b = rng.normal(size=(4, 3)), rng.normal(size=(3, 2)), rng.normal(size=2)
        out = linear_forward(Tensor(x), Tensor(w), Tensor(b))
        manual = np.array([[sum(x[i, k] * w[k, j] for k in range(3)) + b[j]
                            for j in range(2)] for i in range(4)])
        np.testing.assert_allclose(out.data, manual)

    def test_shape_mismatch(self):
        with pytest.raises(ModelConfigError, match="shape mismatch"):
            linear_forward(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))),
                           Tensor(np.zeros(2)))


def kernel_operands(rng):
    """name -> (kernel, its composed-tape formula, operand names and arrays)."""
    return {
        "linear": (linear_forward, composed_linear,
                   {"x": rng.normal(size=(6, 4)), "w": rng.normal(size=(4, 3)),
                    "b": rng.normal(size=3)}),
        "layer_norm": (layer_norm, composed_layer_norm,
                       {"x": rng.normal(2.0, 3.0, size=(6, 5)), "g": rng.normal(size=5),
                        "b": rng.normal(size=5)}),
        "gelu": (_gelu, composed_gelu, {"x": rng.normal(0.0, 2.0, size=(6, 5))}),
    }


KERNELS = ("linear", "layer_norm", "gelu")


class TestKernelNodes:
    """The linear layer, layer norm and GELU: a numpy forward that, given
    Tensors, adds one tape node with a hand-written backward."""

    @staticmethod
    def case(name, seed=0):
        kernel, composed, operands = kernel_operands(np.random.default_rng(seed))[name]
        rng = np.random.default_rng(seed + 100)
        weights = rng.normal(size=kernel(*(a.copy() for a in operands.values())).shape)
        return kernel, composed, operands, weights

    @pytest.mark.parametrize("name", KERNELS)
    def test_one_node(self, name):
        kernel, _, operands, _ = self.case(name)
        tensors = [Tensor(a, requires_grad=True) for a in operands.values()]
        out = kernel(*tensors)
        assert out.parents == tuple(tensors)

    @pytest.mark.parametrize("name", KERNELS)
    def test_finite_differences(self, name):
        kernel, _, operands, weights = self.case(name)

        def loss(t):
            return (kernel(*(t[k] for k in operands)) * Tensor(weights)).sum()

        assert check_grads(loss, operands, 1e-5) < 1e-5

    @pytest.mark.parametrize("name", KERNELS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradients_match_composed_formulas(self, name, seed):
        kernel, composed, operands, weights = self.case(name, seed)
        grads = []
        for fn in (kernel, composed):
            tensors = [Tensor(a, requires_grad=True) for a in operands.values()]
            (fn(*tensors) * Tensor(weights)).sum().backward()
            grads.append([t.grad for t in tensors])
        for fused, tape in zip(*grads):
            np.testing.assert_allclose(fused, tape, rtol=1e-10, atol=1e-10 * np.abs(tape).max())

    @pytest.mark.parametrize("name", KERNELS)
    def test_tensor_and_ndarray_forwards_bit_equal(self, name):
        kernel, _, operands, _ = self.case(name)
        on_tape = kernel(*(Tensor(a, requires_grad=True) for a in operands.values())).data
        assert np.array_equal(kernel(*(a.copy() for a in operands.values())), on_tape)

    def test_linear_on_an_ndarray_input(self):
        """The embedding's input is a plain array: W and b get their
        gradients, and no input gradient is formed."""
        _, _, operands, weights = self.case("linear")
        x, w, b = operands.values()
        grads = []
        for fn in (linear_forward, composed_linear):
            tw, tb = Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
            (fn(x, tw, tb) * Tensor(weights)).sum().backward()
            grads.append((tw.grad, tb.grad))
        np.testing.assert_array_equal(grads[0][0], grads[1][0])
        np.testing.assert_array_equal(grads[0][1], grads[1][1])

    def test_layer_norm_over_leading_axes(self):
        """g and b gather their gradients over every leading axis."""
        rng = np.random.default_rng(3)
        params = {"x": rng.normal(size=(2, 3, 4)), "g": rng.normal(size=4),
                  "b": rng.normal(size=4)}
        weights = rng.normal(size=(2, 3, 4))

        def loss(t):
            return (layer_norm(t["x"], t["g"], t["b"]) * Tensor(weights)).sum()

        assert check_grads(loss, params, 1e-5) < 1e-5


def perfbench_step_loss(config, params):
    """One training step's loss over 32 windows of 16 steps and 5 features,
    the last window partly masked."""
    rng = np.random.default_rng(0)
    mask = np.ones((32, 16), dtype=bool)
    mask[-1, 9:] = False
    return mse_loss(model_forward(config, params, rng.normal(size=(32, 16, 5)), mask),
                    rng.normal(size=(32, 16, 5)), mask)


def perfbench_step_nodes(config) -> int:
    """The tape nodes behind perfbench_step_loss."""
    loss = perfbench_step_loss(config, wrap_params(init_params(config)))
    seen, todo = {id(loss)}, [loss]
    while todo:
        for parent in todo.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return len(seen)


PERFBENCH_TRANSFORMER = ModelConfig("transformer", input_dim=5, output_dim=5, hidden_size=32,
                                    num_heads=2, window_size=16, batch_size=32)


def test_perfbench_sized_transformer_step_tape():
    """A training step at h=32, 2 heads, 32 windows of 16 steps and 5
    features: one node per linear layer, layer norm, GELU, attention and the
    loss.  Composed of elementwise ops, attention and the loss made it 71."""
    assert perfbench_step_nodes(PERFBENCH_TRANSFORMER) == 42


def test_perfbench_sized_transformer_step_memory():
    """The step's forward and backward peak under 7.5 MiB of traced
    allocations: 6.6 MiB with one attention node that keeps the weights P,
    8.5 MiB when each elementwise op of attention and the loss kept its own
    score- or output-shaped array."""
    params = wrap_params(init_params(PERFBENCH_TRANSFORMER))
    tracemalloc.start()
    try:
        perfbench_step_loss(PERFBENCH_TRANSFORMER, params).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.5 * 2**20


@pytest.mark.parametrize("arch, hidden, nodes", [("bigru", 24, 26), ("bilstm", 32, 24)])
def test_perfbench_sized_recurrent_step_tape(arch, hidden, nodes):
    """A training step of perfbench's BiGRU (h=24) or BiLSTM (h=32).  Folding
    the embedding into layer 0 adds one node per folded array (each
    direction's W and b) and drops the embedding's own; the loss is one node,
    where its elementwise ops took seven: 32 and 30 nodes then."""
    config = ModelConfig(arch, input_dim=5, output_dim=5, hidden_size=hidden,
                         window_size=16, batch_size=32)
    assert perfbench_step_nodes(config) == nodes


def sequence(rng, seq_len=3, batch=2, in_dim=4):
    """A time-major input [T, batch, in]."""
    return rng.normal(size=(seq_len, batch, in_dim))


class TestGruCell:
    def test_zero_params_halve_state(self):
        # z = r = 1/2: each step keeps half the state and adds half the
        # candidate, which sees only x
        rng = np.random.default_rng(0)
        params = {k: np.zeros_like(v) for k, v in rnn_params(rng, "c", 4, 3, "bigru").items()}
        w_h = rng.normal(size=(4, 3))
        params["c.W"][:, 6:] = w_h
        x = sequence(rng)
        h = rnn_direction(Tensor(x), wrap_params(params), "c", "bigru")
        expected = np.zeros((2, 3))
        for t in range(3):
            expected = 0.5 * expected + 0.5 * np.tanh(x[t] @ w_h)
            np.testing.assert_allclose(h.data[t], expected, rtol=1e-12)

    def test_zero_state_zero_candidate(self):
        rng = np.random.default_rng(1)
        params = rnn_params(rng, "c", 4, 3, "bigru")
        params["c.W"][:, 6:] = 0
        params["c.U_h"][:] = 0
        params["c.b"][6:] = 0
        h = rnn_direction(Tensor(sequence(rng)), wrap_params(params), "c", "bigru")
        np.testing.assert_allclose(h.data, 0.0, atol=1e-15)

    def test_gradients(self):
        rng = np.random.default_rng(2)
        params = rnn_params(rng, "c", 3, 4, "bigru")
        x = sequence(rng, in_dim=3)
        weights = rng.normal(size=(3, 2, 4))

        def loss(t):
            return (rnn_direction(Tensor(x), t, "c", "bigru") * Tensor(weights)).sum()

        assert check_grads(loss, params, 1e-4) < 1e-4


class TestLstmCell:
    def test_zero_params(self):
        # i = f = o = 1/2: c_t = (c_{t-1} + g_t) / 2 and h_t = tanh(c_t) / 2
        rng = np.random.default_rng(0)
        params = {k: np.zeros_like(v) for k, v in rnn_params(rng, "c", 4, 3, "bilstm").items()}
        w_g = rng.normal(size=(4, 3))
        params["c.W"][:, 9:] = w_g
        x = sequence(rng)
        h = rnn_direction(Tensor(x), wrap_params(params), "c", "bilstm")
        c = np.zeros((2, 3))
        for t in range(3):
            c = 0.5 * c + 0.5 * np.tanh(x[t] @ w_g)
            np.testing.assert_allclose(h.data[t], 0.5 * np.tanh(c), rtol=1e-12)

    def test_zero_cell_and_candidate(self):
        rng = np.random.default_rng(1)
        params = rnn_params(rng, "c", 4, 3, "bilstm")
        params["c.W"][:, 9:] = 0
        params["c.U"][:, 9:] = 0
        params["c.b"][9:] = 0
        h = rnn_direction(Tensor(sequence(rng)), wrap_params(params), "c", "bilstm")
        np.testing.assert_allclose(h.data, 0.0, atol=1e-15)

    def test_gradients(self):
        rng = np.random.default_rng(2)
        params = rnn_params(rng, "c", 3, 4, "bilstm")
        x = sequence(rng, in_dim=3)
        weights = rng.normal(size=(3, 2, 4))

        def loss(t):
            return (rnn_direction(Tensor(x), t, "c", "bilstm", reverse=True)
                    * Tensor(weights)).sum()

        assert check_grads(loss, params, 1e-4) < 1e-4


class TestBidirectional:
    def make_params(self, rng, in_dim, hidden, kind="bigru"):
        p = rnn_params(rng, "rnn0.fwd", in_dim, hidden, kind)
        p.update(rnn_params(rng, "rnn0.bwd", in_dim, hidden, kind))
        return p

    def test_t1_is_concat_of_single_steps(self):
        rng = np.random.default_rng(0)
        p = self.make_params(rng, 3, 4)
        x = rng.normal(size=(1, 2, 3))
        out = bidirectional_forward(Tensor(x), wrap_params(p), "rnn0", "bigru")
        t = wrap_params(p)
        fwd = gru_cell(Tensor(x[0]), Tensor(np.zeros((2, 4))), t, "rnn0.fwd", 4)
        bwd = gru_cell(Tensor(x[0]), Tensor(np.zeros((2, 4))), t, "rnn0.bwd", 4)
        np.testing.assert_allclose(out.data[0, :, :4], fwd.data)
        np.testing.assert_allclose(out.data[0, :, 4:], bwd.data)

    def test_palindrome_symmetry(self):
        # with identical fwd/bwd params, a palindromic sequence gives
        # mirror-symmetric outputs with halves swapped
        rng = np.random.default_rng(1)
        p = rnn_params(rng, "rnn0.fwd", 3, 4, "bigru")
        p.update({k.replace(".fwd", ".bwd"): v.copy() for k, v in p.items()})
        row = rng.normal(size=(1, 3))
        x = np.stack([row, 2 * row, row], axis=0)  # palindrome over T=3
        out = bidirectional_forward(Tensor(x), wrap_params(p), "rnn0", "bigru").data
        for t in range(3):
            np.testing.assert_allclose(out[t, :, :4], out[2 - t, :, 4:], rtol=1e-10)

    @pytest.mark.parametrize("kind", ["bigru", "bilstm"])
    def test_gradients(self, kind):
        rng = np.random.default_rng(2)
        p = self.make_params(rng, 3, 3, kind)
        x = sequence(rng, in_dim=3)
        weights = rng.normal(size=(3, 2, 6))

        def loss(t):
            return (bidirectional_forward(Tensor(x), t, "rnn0", kind)
                    * Tensor(weights)).sum()

        assert check_grads(loss, p, 1e-4) < 1e-4


def max_relative_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))


class TestBpttMatchesReferenceCells:
    """The hand-written BPTT against the per-gate cells on the tape."""

    @pytest.mark.parametrize("kind", ["bigru", "bilstm"])
    @pytest.mark.parametrize("reverse", [False, True], ids=["fwd", "bwd"])
    @pytest.mark.parametrize("seq_len, batch", [(5, 3), (4, 1), (1, 2)],
                             ids=["batch3", "batch1", "t1"])
    def test_direction(self, kind, reverse, seq_len, batch):
        rng = np.random.default_rng(seq_len * 10 + batch)
        params = rnn_params(rng, "c", 3, 4, kind)
        x = rng.normal(size=(seq_len, batch, 3))
        weights = rng.normal(size=(seq_len, batch, 4))
        grads = {}
        for name, direction in (("fused", rnn_direction), ("reference", reference_direction)):
            p = wrap_params(params)
            xt = Tensor(x, requires_grad=True)
            out = direction(xt, p, "c", kind, reverse=reverse)
            (out * weights).sum().backward()
            grads[name] = {"x": xt.grad, "out": out.data, **{k: t.grad for k, t in p.items()}}
        for key, want in grads["reference"].items():
            err = max_relative_error(grads["fused"][key], want)
            assert err <= 1e-12, f"{key}: relative error {err:.1e}"

    @pytest.mark.parametrize("arch", ["bigru", "bilstm"])
    def test_two_layers_masked_loss(self, arch):
        config = tiny_config(arch, num_layers=2, window_size=5, seed=3)
        params = init_params(config)
        rng = np.random.default_rng(11)
        windows = rng.normal(size=(3, 5, 3))
        targets = rng.normal(size=(3, 5, 2))
        mask = np.ones((3, 5), dtype=bool)
        mask[1, 3:] = False
        mask[2, 1:] = False
        grads = {}
        for name, forward in (("fused", lambda t: model_forward(config, t, windows, mask)),
                              ("reference", lambda t: reference_forward(config, t, windows))):
            tensors = wrap_params(params)
            mse_loss(forward(tensors), targets, mask).backward()
            grads[name] = {k: t.grad for k, t in tensors.items()}
        for key, want in grads["reference"].items():
            err = max_relative_error(grads["fused"][key], want)
            assert err <= 1e-12, f"{key}: relative error {err:.1e}"


@pytest.mark.parametrize("kind", ["bigru", "bilstm"])
def test_direction_on_an_ndarray_input(kind):
    """Layer 0 reads the raw features as a plain array: the parameters get
    the gradients a Tensor input gives them, bit for bit."""
    rng = np.random.default_rng(12)
    params = rnn_params(rng, "c", 3, 4, kind)
    x = rng.normal(size=(5, 2, 3))
    weights = rng.normal(size=(5, 2, 4))
    grads = []
    for operand in (x, Tensor(x, requires_grad=True)):
        p = wrap_params(params)
        (rnn_direction(operand, p, "c", kind, reverse=True) * weights).sum().backward()
        grads.append({k: t.grad for k, t in p.items()})
    for key, want in grads[1].items():
        np.testing.assert_array_equal(grads[0][key], want)


class TestEmbeddingFold:
    """The recurrent models run layer 0 on the raw features, with the linear
    embedding folded into its input weights."""

    @pytest.mark.parametrize("arch", ["bigru", "bilstm"])
    @pytest.mark.parametrize("num_layers", [1, 2])
    def test_equals_unfolded_composition(self, arch, num_layers):
        """The ndarray forward against the embedding's linear layer followed
        by the stored layer-0 directions, over a masked batch."""
        config = tiny_config(arch, num_layers=num_layers, hidden_size=8, window_size=6,
                             seed=num_layers)
        params = init_params(config)
        rng = np.random.default_rng(20 + num_layers)
        windows = rng.normal(size=(5, 6, 3))
        mask = np.ones((5, 6), dtype=bool)
        mask[1, 4:] = False
        mask[4, 1:] = False
        windows[~mask] = 0.0
        got = model_forward(config, params, windows, mask)
        h = linear_forward(windows.transpose(1, 0, 2), params["embed.W"], params["embed.b"])
        for layer in range(num_layers):
            h = concat([rnn_direction(h, params, f"rnn{layer}.fwd", arch),
                        rnn_direction(h, params, f"rnn{layer}.bwd", arch, reverse=True)],
                       axis=-1)
        want = linear_forward(h, params["out.W"], params["out.b"]).transpose(1, 0, 2)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def attention_params(rng, d):
    p = {}
    for n in ("q", "k", "v", "o"):
        p[f"a.W{n}"] = rng.normal(0, 0.4, (d, d))
        p[f"a.b{n}"] = rng.normal(0, 0.1, d)
    return p


class TestAttention:
    def identity_params(self, d):
        p = {}
        for n in ("q", "k", "v", "o"):
            p[f"a.W{n}"] = np.eye(d)
            p[f"a.b{n}"] = np.zeros(d)
        return p

    def test_t1_identity_projections_return_input(self):
        x = np.random.default_rng(0).normal(size=(2, 1, 4))
        out = multi_head_attention(Tensor(x), wrap_params(self.identity_params(4)), "a", 2)
        np.testing.assert_allclose(out.data, x, rtol=1e-12)

    def test_two_identical_positions_average(self):
        row = np.random.default_rng(1).normal(size=4)
        x = np.stack([row, row])[None]  # [1, 2, 4], equal logits -> weights 0.5/0.5
        out = multi_head_attention(Tensor(x), wrap_params(self.identity_params(4)), "a", 2)
        np.testing.assert_allclose(out.data[0, 0], row, rtol=1e-12)
        np.testing.assert_allclose(out.data[0, 1], row, rtol=1e-12)

    def test_attention_rows_sum_to_one_and_mask_zeroes(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(1, 4, 4)))
        mask = np.array([[True, True, True, False]])
        p = wrap_params(attention_params(rng, 4))
        q = (x @ p["a.Wq"] + p["a.bq"]).reshape(1, 4, 2, 2).transpose((0, 2, 1, 3))
        k = (x @ p["a.Wk"] + p["a.bk"]).reshape(1, 4, 2, 2).transpose((0, 2, 1, 3))
        scores = (q @ k.transpose((0, 1, 3, 2))) * (1 / math.sqrt(2))
        scores = masked_fill(scores, mask[:, None, None, :], -1e30)
        weights = softmax(scores, axis=-1).data
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-12)
        assert (weights[..., 3] == 0.0).all()
        # The kernel gives the padded key zero weight too: the real positions'
        # outputs do not move, by a bit, when its input does.
        raw = {name: t.data for name, t in p.items()}
        moved = x.data.copy()
        moved[0, 3] += 5.0
        got = [multi_head_attention(arg, raw, "a", 2, mask)[0, :3] for arg in (x.data, moved)]
        np.testing.assert_array_equal(got[0], got[1])

    def test_divisibility_enforced(self):
        with pytest.raises(ModelConfigError, match="divisible"):
            multi_head_attention(Tensor(np.zeros((1, 2, 4))),
                                 wrap_params(self.identity_params(4)), "a", 3)

    def test_gradients(self):
        rng = np.random.default_rng(3)
        p = attention_params(rng, 4)
        x = rng.normal(size=(2, 3, 4))
        weights = rng.normal(size=(2, 3, 4))

        def loss(t):
            return (multi_head_attention(Tensor(x), t, "a", 2) * Tensor(weights)).sum()

        assert check_grads(loss, p, 1e-4) < 1e-4

    def test_masked_gradients(self):
        rng = np.random.default_rng(4)
        p = attention_params(rng, 4)
        x = rng.normal(size=(1, 3, 4))
        mask = np.array([[True, True, False]])
        weights = rng.normal(size=(1, 3, 4)) * mask[..., None]

        def loss(t):
            return (multi_head_attention(Tensor(x), t, "a", 2, mask)
                    * Tensor(weights)).sum()

        assert check_grads(loss, p, 1e-4) < 1e-4


class TestAttentionNode:
    """Attention up to the softmax-weighted values is one tape node, held to
    the composed scale, concat, matmul, masked_fill and softmax nodes."""

    @staticmethod
    def case(seed, masked):
        rng = np.random.default_rng(seed)
        p = attention_params(rng, 6)
        x = rng.normal(size=(3, 5, 6))
        mask = None
        if masked:
            mask = np.ones((3, 5), dtype=bool)
            mask[1, 3:] = False
            mask[2, 1:] = False
        return p, x, mask, rng.normal(size=(3, 5, 6))

    def test_one_node(self):
        p, x, mask, _ = self.case(0, True)
        tensors = wrap_params({"x": x, **p})
        out = multi_head_attention(tensors["x"], tensors, "a", 3, mask)
        linear = out.parents[0]  # the reshape's parent: the output projection
        assert linear.parents[1:] == (tensors["a.Wo"], tensors["a.bo"])
        operands = ("x", "a.Wq", "a.Wk", "a.Wv", "a.bq", "a.bk", "a.bv")
        assert linear.parents[0].parents == tuple(tensors[k] for k in operands)

    @pytest.mark.parametrize("masked", [False, True], ids=["full", "padded"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_gradients_match_composed_attention(self, seed, masked):
        p, x, mask, weights = self.case(seed, masked)
        grads, outs = [], []
        for fn in (multi_head_attention, composed_attention):
            tensors = wrap_params({"x": x, **p})
            out = fn(tensors["x"], tensors, "a", 3, mask)
            (out * weights).sum().backward()
            outs.append(out.data)
            grads.append({k: t.grad for k, t in tensors.items()})
        np.testing.assert_array_equal(outs[0], outs[1])
        fused, tape = grads
        largest = max(np.abs(g).max() for g in tape.values())
        for key, want in tape.items():
            if key == "a.bk":
                # Softmax ignores a per-row shift, so bk's true gradient is 0
                # and both sides hold rounding noise: bound it by the largest.
                assert np.abs(fused[key]).max() <= 1e-14 * largest
                assert np.abs(want).max() <= 1e-14 * largest
                continue
            err = max_relative_error(fused[key], want)
            assert err <= 1e-12, f"{key}: relative error {err:.1e}"

    def test_tensor_and_ndarray_forwards_bit_equal(self):
        p, x, mask, _ = self.case(2, True)
        tensors = wrap_params({"x": x, **p})
        on_tape = multi_head_attention(tensors["x"], tensors, "a", 3, mask).data
        assert np.array_equal(multi_head_attention(x, p, "a", 3, mask), on_tape)


def tiny_config(arch, **kw):
    defaults = dict(architecture=arch, input_dim=3, output_dim=2, hidden_size=4,
                    num_layers=2, window_size=4, window_overlap=0, batch_size=2,
                    num_heads=2, seed=0)
    defaults.update(kw)
    return ModelConfig(**defaults)


class TestModelForward:
    @pytest.mark.parametrize("arch", ["bigru", "bilstm", "transformer"])
    def test_output_shape(self, arch):
        config = tiny_config(arch)
        params = init_params(config)
        x = np.random.default_rng(0).normal(size=(3, 4, 3))
        out = model_forward(config, wrap_params(params), x)
        assert out.shape == (3, 4, 2)

    @pytest.mark.parametrize("arch", ["bigru", "bilstm", "transformer"])
    def test_zero_output_layer_gives_bias(self, arch):
        config = tiny_config(arch)
        params = init_params(config)
        params["out.W"][:] = 0.0
        params["out.b"][:] = [1.5, -0.5]
        x = np.random.default_rng(1).normal(size=(2, 4, 3))
        out = model_forward(config, wrap_params(params), x)
        np.testing.assert_allclose(out.data, np.broadcast_to([1.5, -0.5], (2, 4, 2)))

    @pytest.mark.parametrize("arch", ["bigru", "bilstm", "transformer"])
    def test_deterministic_forward(self, arch):
        config = tiny_config(arch)
        params = init_params(config)
        x = np.random.default_rng(2).normal(size=(2, 4, 3))
        a = model_forward(config, wrap_params(params), x).data
        b = model_forward(config, wrap_params(params), x).data
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("arch", ["bigru", "bilstm", "transformer"])
    def test_window_permutation_equivariance(self, arch):
        config = tiny_config(arch)
        params = init_params(config)
        x = np.random.default_rng(3).normal(size=(4, 4, 3))
        perm = np.array([2, 0, 3, 1])
        out = model_forward(config, wrap_params(params), x).data
        out_perm = model_forward(config, wrap_params(params), x[perm]).data
        np.testing.assert_allclose(out_perm, out[perm], rtol=1e-12)

    @pytest.mark.parametrize("arch", ["bigru", "bilstm", "transformer"])
    def test_end_to_end_gradients(self, arch):
        config = tiny_config(arch, num_layers=1)
        params = init_params(config)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 4, 3))
        weights = rng.normal(size=(2, 4, 2))

        def loss(t):
            return (model_forward(config, t, x) * Tensor(weights)).sum()

        assert check_grads(loss, params, 1e-3) < 1e-3

    def test_feature_dim_mismatch(self):
        config = tiny_config("bigru")
        with pytest.raises(ModelConfigError, match="input_dim"):
            model_forward(config, wrap_params(init_params(config)), np.zeros((1, 4, 5)))


class TestConfigValidation:
    def test_heads_divisibility(self):
        with pytest.raises(ModelConfigError, match="divisible"):
            tiny_config("transformer", hidden_size=6, num_heads=4)

    def test_overlap_bound(self):
        with pytest.raises(ModelConfigError, match="window_overlap"):
            tiny_config("bigru", window_size=4, window_overlap=4)

    def test_init_deterministic(self):
        config = tiny_config("transformer")
        a = init_params(config)
        b = init_params(config)
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    @pytest.mark.parametrize("arch, digest", [
        ("bigru", "328237adb314bd7daaf96929496e19336b0f4399a41f532b59284029e606f334"),
        ("bilstm", "1373824d4b6e10ce2d64801ca6b6296606fcf2ff8750e644001fcd2646ec3716"),
    ])
    def test_fused_init_is_the_per_gate_draws_joined(self, arch, digest):
        """Each fused array is the per-gate arrays the per-gate layout drew,
        in the same order, joined along the gate axis.  The digests were
        computed from that layout's init_params."""
        config = ModelConfig(arch, input_dim=5, output_dim=2, hidden_size=6,
                             num_layers=2, seed=3)
        sha = hashlib.sha256()
        for name, value in sorted(init_params(config).items()):
            sha.update(name.encode("utf-8"))
            sha.update(np.ascontiguousarray(value, dtype="<f8").tobytes())
        assert sha.hexdigest() == digest


def test_sinusoidal_encoding_shape_and_range():
    enc = sinusoidal_encoding(8, 6)
    assert enc.shape == (8, 6)
    assert np.abs(enc).max() <= 1.0


def test_concat_stack_softmax_helpers():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.zeros((2, 3)), requires_grad=True)
    c = concat([a, b], axis=-1)
    assert c.shape == (2, 5)
    s = stack([a, a], axis=1)
    assert s.shape == (2, 2, 2)
    soft = softmax(Tensor(np.zeros((1, 4))), axis=-1)
    np.testing.assert_allclose(soft.data, 0.25)


class TestInferenceForward:
    @pytest.mark.parametrize("arch", ["bigru", "bilstm", "transformer"])
    def test_matches_autodiff_forward(self, arch):
        config = tiny_config(arch)
        params = init_params(config)
        rng = np.random.default_rng(5)
        windows = rng.normal(size=(3, config.window_size, config.input_dim))
        mask = np.ones((3, config.window_size), dtype=bool)
        mask[-1, 2:] = False
        slow = model_forward(config, wrap_params(params), windows, mask).data
        fast = model_forward_infer(config, params, windows, mask)
        np.testing.assert_array_equal(fast, slow)

    @pytest.mark.parametrize("hidden, heads", [(12, 3), (15, 3)])
    def test_fused_qkv_split_matches_autodiff(self, hidden, heads):
        """Three heads, with d_head 4 and the odd 5: the fused [h, 3h]
        projection must split into the same per-head Q, K and V."""
        config = tiny_config("transformer", hidden_size=hidden, num_heads=heads,
                             num_layers=2, window_size=6)
        params = init_params(config)
        rng = np.random.default_rng(9)
        windows = rng.normal(size=(4, config.window_size, config.input_dim))
        mask = np.ones((4, config.window_size), dtype=bool)
        mask[0, 4:] = False
        mask[-1, 1:] = False
        slow = model_forward(config, wrap_params(params), windows, mask).data
        fast = model_forward_infer(config, params, windows, mask)
        np.testing.assert_array_equal(fast, slow)

    @staticmethod
    def chunked_table(config, n_windows):
        """Three simulations, the last partly padded, with more than n_windows
        windows; features and targets are random."""
        stride = config.window_size - config.window_overlap
        rng = np.random.default_rng(13)
        lengths = (stride * n_windows + config.window_overlap + 2, 383, 8)
        n_rows = sum(lengths)
        return SampleTable(
            "heterogeneous",
            np.concatenate([np.full(n, sid, dtype=np.int64) for sid, n in enumerate(lengths)]),
            np.concatenate([np.arange(n, dtype=np.int64) for n in lengths]),
            rng.normal(2.0, 3.0, size=(n_rows, config.input_dim)),
            rng.normal(-1.0, 0.5, size=(n_rows, config.output_dim)),
            ("f0", "f1", "f2"),
            ("t0", "t1"),
        )

    @pytest.mark.parametrize("arch", ["bigru", "bilstm", "transformer"])
    def test_predict_rows_chunks_match_one_autodiff_forward(self, arch):
        """predict_rows runs inference in chunks of windows; over two chunks
        and a ragged third, with overlapping windows and a partially masked
        last window, it must equal one autodiff forward over every window."""
        config = tiny_config(arch, window_overlap=1, num_layers=1)
        params = init_params(config)
        chunk = inference_chunk(config)
        table = self.chunked_table(config, 2 * chunk)
        f_std = fit_standardizer(table.features)
        t_std = fit_standardizer(table.targets)
        scaled = standardize_table(table, f_std, t_std)
        batch = make_windows(scaled, config.window_size, config.window_overlap)
        assert len(batch) > 2 * chunk and len(batch) % chunk and not batch.mask[-1].all()
        whole = model_forward(config, wrap_params(params), batch.windows, batch.mask).data
        expected = t_std.inverse_transform(unwindow_aligned(
            whole, batch.provenance, table.simulation_ids, table.job_indices))
        got, _ = predict_rows(config, params, table, f_std, t_std)
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("arch, small", [("bigru", 2), ("bilstm", 2), ("transformer", 1)])
    def test_predict_rows_bit_identical_across_chunk_sizes(self, arch, small, monkeypatch):
        """A window's arithmetic does not depend on which chunk it runs in:
        chunks of 1, `small` and 7 windows and one of every window agree."""
        config = tiny_config(arch, window_overlap=1, num_layers=1)
        params = init_params(config)
        table = self.chunked_table(config, 40)
        f_std = fit_standardizer(table.features)
        t_std = fit_standardizer(table.targets)
        got = []
        for chunk in sorted({1, small, 7, len(table)}):
            monkeypatch.setattr(evaluate, "inference_chunk", lambda _config, n=chunk: n)
            got.append(predict_rows(config, params, table, f_std, t_std)[0])
        assert all(np.array_equal(got[0], other) for other in got[1:])

    @pytest.mark.parametrize("arch", ["bigru", "bilstm"])
    def test_predict_rows_lone_window_chunk(self, arch, monkeypatch):
        """At the recurrent models' 256 windows per chunk, a table of 257
        windows ends in a one-window chunk, and a one-window table is one.
        Each predicts as in one chunk of all 257 windows."""
        config = tiny_config(arch, num_layers=1)
        params = init_params(config)
        n_rows = 257 * config.window_size - 1  # the last window is partly padded
        rng = np.random.default_rng(14)
        features = rng.normal(size=(n_rows, config.input_dim))
        targets = rng.normal(size=(n_rows, config.output_dim))

        def first_rows(n):
            return SampleTable("heterogeneous", np.zeros(n, dtype=np.int64),
                               np.arange(n, dtype=np.int64), features[:n], targets[:n],
                               ("f0", "f1", "f2"), ("t0", "t1"))

        table, first = first_rows(n_rows), first_rows(config.window_size)
        f_std = fit_standardizer(table.features)
        t_std = fit_standardizer(table.targets)
        assert inference_chunk(config) == 256
        chunked = predict_rows(config, params, table, f_std, t_std)[0]
        alone = predict_rows(config, params, first, f_std, t_std)[0]
        monkeypatch.setattr(evaluate, "inference_chunk", lambda _config: 257)
        whole = predict_rows(config, params, table, f_std, t_std)[0]
        assert np.array_equal(chunked, whole)
        assert np.array_equal(alone, whole[:config.window_size])

    @pytest.mark.parametrize("arch, hidden, heads, window, chunk", [
        ("bigru", 24, 2, 16, 256),
        ("bilstm", 32, 2, 16, 256),
        ("transformer", 32, 2, 16, 64),  # the [64 * 16, 128] hidden is 1 MiB
        ("transformer", 8, 2, 16, 256),
        ("transformer", 8, 4, 64, 8),  # 4 heads of 64 x 64 scores outgrow the 4h = 32 hidden
        ("transformer", 2048, 2, 256, 1),
    ])
    def test_inference_chunk(self, arch, hidden, heads, window, chunk):
        config = ModelConfig(arch, input_dim=3, output_dim=2, hidden_size=hidden,
                             num_heads=heads, window_size=window)
        assert inference_chunk(config) == chunk

    def test_feature_dim_mismatch(self):
        config = tiny_config("bigru")
        with pytest.raises(ModelConfigError, match="input_dim"):
            model_forward_infer(config, init_params(config), np.zeros((1, 4, 7)))

    @pytest.mark.parametrize("arch", ["bigru", "bilstm", "transformer"])
    def test_builds_no_tensor(self, arch, monkeypatch):
        config = tiny_config(arch)
        params = init_params(config)
        windows = np.random.default_rng(6).normal(size=(3, config.window_size, 3))
        mask = np.ones((3, config.window_size), dtype=bool)
        mask[-1, 1:] = False

        def refuse(*_args, **_kwargs):
            raise AssertionError("a Tensor was built")

        monkeypatch.setattr(Tensor, "__init__", refuse)
        out = model_forward_infer(config, params, windows, mask)
        assert type(out) is np.ndarray and out.shape == (3, config.window_size, 2)

    @pytest.mark.parametrize("arch", ["bigru", "bilstm"])
    def test_recurrent_bit_identical_to_autodiff(self, arch):
        config = tiny_config(arch)
        params = init_params(config)
        windows = np.random.default_rng(7).normal(size=(5, config.window_size, 3))
        slow = model_forward(config, wrap_params(params), windows).data
        np.testing.assert_array_equal(model_forward_infer(config, params, windows), slow)


def test_fused_node_backward_runs_once_per_call():
    """A node with three operands, one a plain ndarray, and two consumers runs
    its backward once per Tensor.backward; the ndarray takes no gradient."""
    a, b = Tensor(np.ones(3), requires_grad=True), Tensor(np.full(3, 2.0), requires_grad=True)
    calls = []

    def backward(g):
        calls.append(g)
        return g * 2.0, g * 3.0, g * 5.0

    out = fused_node(a.data + b.data, (a, np.ones(3), b), backward)
    (out.sum() + (out * 2.0).sum()).backward()
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], np.full(3, 3.0))
    np.testing.assert_array_equal(a.grad, np.full(3, 6.0))
    np.testing.assert_array_equal(b.grad, np.full(3, 15.0))
    assert out.parents[1].grad is None
    out.sum().backward()
    assert len(calls) == 2


def test_second_backward_over_a_tape_does_not_double_count():
    """A second backward() accumulates into the leaves only: inner nodes
    start from no gradient, so the first call's is not passed on again."""
    a = Tensor(np.ones(3), requires_grad=True)
    out = a * 2.0
    out.sum().backward()
    out.sum().backward()
    np.testing.assert_array_equal(a.grad, np.full(3, 4.0))
    np.testing.assert_array_equal(out.grad, np.ones(3))


class TestNdarrayOperands:
    """A plain ndarray on the left of a Tensor op yields a Tensor on the tape."""

    def test_add_and_matmul_stay_on_tape(self):
        rng = np.random.default_rng(8)
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        x = rng.normal(size=(4, 3))
        out = np.ones((4, 2)) + x @ w
        assert isinstance(out, Tensor)
        out.sum().backward()
        np.testing.assert_allclose(w.grad, x.sum(axis=0)[:, None] * np.ones((1, 2)))

    def test_sub_and_mul_stay_on_tape(self):
        a = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        out = np.float64(2.0) * (np.ones(3) - a)
        assert isinstance(out, Tensor)
        out.sum().backward()
        np.testing.assert_array_equal(a.grad, [-2.0, -2.0, -2.0])

import hashlib

import numpy as np
import pytest
from tape_reference import composed_mse_loss

from simsurrogate import train
from simsurrogate.errors import TrainingError
from simsurrogate.nn.autodiff import Tensor
from simsurrogate.nn.models import ModelConfig, init_params, model_forward, wrap_params
from simsurrogate.preprocess import WindowBatch
from simsurrogate.train import Adam, TrainConfig, evaluate_loss, mse_loss, train_model


def batch_from_arrays(x, y, mask=None):
    n, w = x.shape[:2]
    if mask is None:
        mask = np.ones((n, w), dtype=bool)
    prov = np.stack(np.meshgrid(np.arange(n), np.arange(w), indexing="ij"), axis=-1)
    return WindowBatch(x, y, mask, prov.astype(np.int64))


class TestMseLoss:
    def test_perfect_prediction(self):
        pred = Tensor(np.ones((2, 3, 1)))
        loss = mse_loss(pred, np.ones((2, 3, 1)), np.ones((2, 3), dtype=bool))
        assert float(loss.data) == 0.0

    def test_hand_computed(self):
        pred = Tensor(np.array([[[0.0], [2.0]]]))
        target = np.zeros((1, 2, 1))
        loss = mse_loss(pred, target, np.ones((1, 2), dtype=bool))
        assert float(loss.data) == 2.0  # (0 + 4) / 2

    def test_masked_positions_ignored(self):
        pred = Tensor(np.array([[[0.0], [123456.0]]]))
        target = np.zeros((1, 2, 1))
        mask = np.array([[True, False]])
        loss = mse_loss(pred, target, mask)
        assert float(loss.data) == 0.0

    def test_garbage_in_padding_does_not_change_loss(self):
        rng = np.random.default_rng(0)
        pred = rng.normal(size=(2, 4, 3))
        target = rng.normal(size=(2, 4, 3))
        mask = np.array([[True, True, False, False], [True, False, False, False]])
        a = float(mse_loss(Tensor(pred), target, mask).data)
        garbage = target.copy()
        garbage[~mask] = 1e9
        b = float(mse_loss(Tensor(pred), garbage, mask).data)
        assert a == b

    def test_ndarray_prediction_gives_the_same_float(self):
        rng = np.random.default_rng(1)
        pred, target = rng.normal(size=(3, 4, 2)), rng.normal(size=(3, 4, 2))
        mask = rng.random((3, 4)) < 0.7
        assert float(mse_loss(pred, target, mask)) == float(mse_loss(Tensor(pred), target, mask).data)

    def test_all_false_mask_rejected(self):
        for loss in (mse_loss, composed_mse_loss):
            with pytest.raises(TrainingError, match="all-false"):
                loss(Tensor(np.zeros((1, 2, 1))), np.zeros((1, 2, 1)),
                     np.zeros((1, 2), dtype=bool))

    def test_one_node_bit_equal_to_composed_tape(self):
        """The node's loss and pred gradient are the composed subtract,
        square, masked_fill, sum and scale nodes' to the bit, with garbage
        at the padded positions."""
        rng = np.random.default_rng(2)
        pred, target = rng.normal(size=(4, 5, 3)), rng.normal(size=(4, 5, 3))
        mask = rng.random((4, 5)) < 0.6
        target[~mask] = 1e9
        results = []
        for loss_fn in (mse_loss, composed_mse_loss):
            tensor = Tensor(pred, requires_grad=True)
            loss = loss_fn(tensor, target, mask)
            loss.backward(np.float64(0.7))
            results.append((loss, tensor))
        (node, pred_node), (composed, pred_composed) = results
        assert node.parents == (pred_node,)
        assert node.data.tobytes() == composed.data.tobytes()
        assert pred_node.grad.tobytes() == pred_composed.grad.tobytes()
        assert not pred_node.grad[~mask].any()


class TestAdam:
    def test_minimizes_quadratic(self):
        params = {"x": np.array([5.0])}
        opt = Adam(params, lr=0.1)
        for _ in range(500):
            opt.step({"x": 2 * params["x"]})
        assert abs(params["x"][0]) < 1e-3


def linear_task(arch, n_windows=100, w=8, n_feat=3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n_windows, w, n_feat))
    y = 2.0 * x[:, :, :1]
    config = TrainConfig(
        model=ModelConfig(architecture=arch, input_dim=n_feat, output_dim=1,
                          hidden_size=16, num_layers=1, window_size=w,
                          window_overlap=0, batch_size=16, num_heads=2, seed=seed),
        learning_rate=1e-2,
        max_epochs=200,
        patience=200,
        seed=seed,
    )
    split = int(0.75 * n_windows)
    return (config, batch_from_arrays(x[:split], y[:split]),
            batch_from_arrays(x[split:], y[split:]))


class TestTrainModel:
    def test_constant_target_converges_fast(self):
        # bias-only solution exists, so eval MSE drops below 1e-6 in 50 epochs
        x = np.zeros((256, 4, 2))
        y = np.full((256, 4, 1), 0.37)
        config = TrainConfig(
            model=ModelConfig(architecture="bigru", input_dim=2, output_dim=1,
                              hidden_size=4, window_size=4, batch_size=4, seed=1),
            learning_rate=1e-3, max_epochs=50, patience=50, seed=1)
        params, history = train_model(config, batch_from_arrays(x[:192], y[:192]),
                                      batch_from_arrays(x[192:], y[192:]))
        assert min(h.eval_loss for h in history) < 1e-6

    @pytest.mark.parametrize("arch", ["bigru", "bilstm", "transformer"])
    def test_linear_target_reaches_tolerance(self, arch):
        config, train_batch, eval_batch = linear_task(arch)
        params, history = train_model(config, train_batch, eval_batch)
        best = evaluate_loss(config.model, params, eval_batch)
        assert best < 1e-3, f"{arch}: eval MSE {best:.2e} after {len(history)} epochs"

    def test_identical_runs_identical_history(self):
        config, train_batch, eval_batch = linear_task("bigru")
        config.max_epochs = 5
        _, h1 = train_model(config, train_batch, eval_batch)
        _, h2 = train_model(config, train_batch, eval_batch)
        assert h1 == h2

    def test_best_checkpoint_contract(self):
        config, train_batch, eval_batch = linear_task("bigru")
        config.max_epochs = 30
        params, history = train_model(config, train_batch, eval_batch)
        best = evaluate_loss(config.model, params, eval_batch)
        assert best <= min(h.eval_loss for h in history) + 1e-12

    @pytest.mark.parametrize("arch", ["bigru", "transformer"])
    def test_evaluate_loss_builds_no_tensor(self, arch, monkeypatch):
        config, _, eval_batch = linear_task(arch)
        params = init_params(config.model)
        expected = float(mse_loss(model_forward(config.model, wrap_params(params),
                                                eval_batch.windows, eval_batch.mask),
                                  eval_batch.targets, eval_batch.mask).data)

        def refuse(*_args, **_kwargs):
            raise AssertionError("a Tensor was built")

        monkeypatch.setattr(Tensor, "__init__", refuse)
        assert evaluate_loss(config.model, params, eval_batch) == expected

    def test_empty_training_data_rejected(self):
        config, train_batch, eval_batch = linear_task("bigru")
        empty = train_batch.select(np.array([], dtype=int))
        with pytest.raises(TrainingError, match="no training windows"):
            train_model(config, empty, eval_batch)

    def test_divergence_reported_with_epoch(self):
        config, train_batch, eval_batch = linear_task("bigru")
        train_batch.windows[0, 0, 0] = np.nan
        with pytest.raises(TrainingError, match="diverged at epoch"):
            train_model(config, train_batch, eval_batch)


def three_epochs(arch):
    """Params and history of 3 epochs on 8 train and 2 eval windows of 6
    steps, three of them partly padded.  The transformer is 4 wide, since its
    2 heads do not divide 5."""
    rng = np.random.default_rng(21)
    x, y = rng.normal(size=(10, 6, 3)), rng.normal(size=(10, 6, 2))
    mask = np.ones((10, 6), dtype=bool)
    mask[3, 2:] = False
    mask[7, 4:] = False
    mask[9, 1:] = False
    hidden = 4 if arch == "transformer" else 5
    config = TrainConfig(ModelConfig(arch, input_dim=3, output_dim=2, hidden_size=hidden,
                                     window_size=6, batch_size=4, seed=1),
                         max_epochs=3, patience=3, seed=2)
    return train_model(config, batch_from_arrays(x[:8], y[:8], mask[:8]),
                       batch_from_arrays(x[8:], y[8:], mask[8:]))


def digest(params, history) -> str:
    sha = hashlib.sha256()
    for name, value in sorted(params.items()):
        sha.update(name.encode("utf-8"))
        sha.update(np.ascontiguousarray(value, dtype="<f8").tobytes())
    for stats in history:
        sha.update(np.array([stats.train_loss, stats.eval_loss], dtype="<f8").tobytes())
    return sha.hexdigest()


def arithmetic_canary() -> str:
    """A digest of the numpy and BLAS results the training digests rest on
    (exp, tanh, sqrt, sums, last-axis means, division, 2-D, broadcast and 4-D
    batched matmuls), which a numpy build or CPU with other SIMD kernels may
    round differently."""
    rng = np.random.default_rng(5)
    v = rng.normal(size=(4, 6, 5))
    sha = hashlib.sha256()
    for out in (np.exp(v), np.tanh(v), v @ rng.normal(size=(5, 15)), v.sum(),
                rng.normal(size=(4, 1, 6, 3)) @ rng.normal(size=(3, 3, 5)),
                np.sqrt(np.abs(v)), v.mean(axis=-1), v / rng.normal(size=5),
                rng.normal(size=(2, 3, 6, 4)) @ rng.normal(size=(2, 3, 4, 6))):
        sha.update(np.ascontiguousarray(out, dtype="<f8").tobytes())
    return sha.hexdigest()


@pytest.mark.parametrize("arch", ["bigru", "bilstm"])
def test_recurrent_training_bit_equal_with_composed_loss(arch, monkeypatch):
    """Three epochs with the loss node give the parameters and history that
    the composed loss tape gives, to the bit.  (The eval loss is on ndarrays
    and takes mse_loss either way.)"""
    node = digest(*three_epochs(arch))
    monkeypatch.setattr(train, "mse_loss", lambda pred, *rest: (
        composed_mse_loss if isinstance(pred, Tensor) else mse_loss)(pred, *rest))
    assert digest(*three_epochs(arch)) == node


@pytest.mark.parametrize("arch, expected", [
    ("bigru", "eae5c788c25c54ca386f3bc07377e9b70588dcaa2dbad131916db450bfb7e810"),
    ("bilstm", "ca15ecacfb5c8039459daac0ac98fe1efd9ca21ed9100f3ccdb3f28c1526b518"),
    ("transformer", "dafba3deb1c2140880a81410ca7307f3c97bc9d1033a3893862d15673ccb0bab"),
])
def test_training_digest(arch, expected):
    """Three epochs of training pinned across commits (numpy 2.4.6, OpenBLAS,
    x86-64).  The recurrent digests were computed with the composed-tape loss
    and hold while the BiGRU and BiLSTM train bit-identically to it; the
    transformer's was computed with its attention and loss nodes."""
    if arithmetic_canary() != "8a5aa0d0b2bc4a792dd1ebef8b7d7be7133153ba79786d851f6dc9684a0e6487":
        pytest.skip("this numpy build rounds the canary operations differently")
    assert digest(*three_epochs(arch)) == expected

import numpy as np
import pytest

from simsurrogate.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from simsurrogate.errors import TrainingError
from simsurrogate.nn.models import ModelConfig, init_params
from simsurrogate.preprocess import fit_standardizer


def checkpoint(**changes) -> Checkpoint:
    config = ModelConfig("bigru", input_dim=3, output_dim=2, hidden_size=4)
    rng = np.random.default_rng(0)
    fields = dict(config=config, params=init_params(config),
                  feature_std=fit_standardizer(rng.normal(size=(5, 3))),
                  target_std=fit_standardizer(rng.normal(size=(5, 2))),
                  scenario="heterogeneous", seed=0)
    fields.update(changes)
    return Checkpoint(**fields)


def test_round_trip(tmp_path):
    ckpt = checkpoint()
    save_checkpoint(tmp_path / "c.npz", ckpt)
    back = load_checkpoint(tmp_path / "c.npz")
    assert back.config == ckpt.config
    for name, value in ckpt.params.items():
        np.testing.assert_array_equal(back.params[name], value)


def test_dropped_parameter_rejected(tmp_path):
    ckpt = checkpoint()
    del ckpt.params["rnn0.bwd.Uz"]
    save_checkpoint(tmp_path / "c.npz", ckpt)
    with pytest.raises(TrainingError, match=r"missing \['rnn0.bwd.Uz'\]"):
        load_checkpoint(tmp_path / "c.npz")


def test_wrong_shape_rejected(tmp_path):
    ckpt = checkpoint()
    ckpt.params["out.W"] = np.zeros((8, 3))
    save_checkpoint(tmp_path / "c.npz", ckpt)
    with pytest.raises(TrainingError, match="out.W has shape"):
        load_checkpoint(tmp_path / "c.npz")


def test_wrong_standardizer_arity_rejected(tmp_path):
    ckpt = checkpoint(feature_std=fit_standardizer(np.ones((5, 4))))
    save_checkpoint(tmp_path / "c.npz", ckpt)
    with pytest.raises(TrainingError, match="feature standardizer"):
        load_checkpoint(tmp_path / "c.npz")

import json
import struct
import zipfile

import numpy as np
import pytest

from simsurrogate.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from simsurrogate.errors import TrainingError, WorkloadError
from simsurrogate.nn.models import ModelConfig, init_params
from simsurrogate.preprocess import fit_standardizer


def checkpoint(**changes) -> Checkpoint:
    # heterogeneous samples carry 5 feature columns
    config = ModelConfig("bigru", input_dim=5, output_dim=2, hidden_size=4)
    rng = np.random.default_rng(0)
    fields = dict(config=config, params=init_params(config),
                  feature_std=fit_standardizer(rng.normal(size=(5, 5))),
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
    del ckpt.params["rnn0.bwd.U_zr"]
    save_checkpoint(tmp_path / "c.npz", ckpt)
    with pytest.raises(TrainingError, match=r"missing \['rnn0.bwd.U_zr'\]"):
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


def resave_with_header(path, edit):
    """Rewrite a saved checkpoint's JSON header through `edit(header)`."""
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    header = json.loads(bytes(arrays["__header__"]).decode("utf-8"))
    edit(header)
    arrays["__header__"] = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)


@pytest.mark.parametrize("edit, match", [
    (lambda h: h["config"].update(dropout=0.1), r"unexpected \['dropout'\]"),
    (lambda h: h["config"].pop("hidden_size"), r"missing \['hidden_size'\]"),
], ids=["extra_key", "missing_key"])
def test_config_keys_must_match(tmp_path, edit, match):
    save_checkpoint(tmp_path / "c.npz", checkpoint())
    resave_with_header(tmp_path / "c.npz", edit)
    with pytest.raises(TrainingError, match=match):
        load_checkpoint(tmp_path / "c.npz")


def test_per_gate_version_1_rejected(tmp_path):
    # version 1 stored one W, U and b per gate; those models must be retrained
    save_checkpoint(tmp_path / "c.npz", checkpoint())
    resave_with_header(tmp_path / "c.npz", lambda h: h.update(version=1))
    with pytest.raises(TrainingError, match="unsupported checkpoint version 1"):
        load_checkpoint(tmp_path / "c.npz")


def test_unknown_scenario_rejected(tmp_path):
    save_checkpoint(tmp_path / "c.npz", checkpoint())
    resave_with_header(tmp_path / "c.npz", lambda h: h.update(scenario="nonsense"))
    with pytest.raises(WorkloadError, match="unknown scenario 'nonsense'"):
        load_checkpoint(tmp_path / "c.npz")


def test_input_dim_must_match_scenario_features(tmp_path):
    # a 5-feature model labelled with the 4-feature homogeneous scenario
    save_checkpoint(tmp_path / "c.npz", checkpoint(scenario="homogeneous"))
    with pytest.raises(TrainingError, match="input_dim 5.*4 features"):
        load_checkpoint(tmp_path / "c.npz")


def write_npy(path):
    with open(path, "wb") as fh:
        np.save(fh, np.zeros(3))


@pytest.mark.parametrize("make", [
    lambda p: p.write_text("not a checkpoint"),
    lambda p: p.write_bytes(b""),
    lambda p: p.write_bytes(b"PK\x03\x04truncated"),
    write_npy,
    lambda p: np.savez(p, weights=np.zeros(3)),
], ids=["text", "empty", "broken_zip", "npy", "npz_without_header"])
def test_file_that_is_not_a_checkpoint_rejected(tmp_path, make):
    path = tmp_path / "c.npz"
    make(path)
    with pytest.raises(TrainingError, match="is not a checkpoint"):
        load_checkpoint(path)


@pytest.mark.parametrize("header", [b"{not json", b"\xff\xfe", b"[2]"],
                         ids=["not_json", "not_utf8", "not_an_object"])
def test_unreadable_header_rejected(tmp_path, header):
    path = tmp_path / "c.npz"
    save_checkpoint(path, checkpoint())
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    arrays["__header__"] = np.frombuffer(header, dtype=np.uint8)
    np.savez(path, **arrays)
    with pytest.raises(TrainingError, match="is not a checkpoint"):
        load_checkpoint(path)


@pytest.mark.parametrize("key", ["config", "scenario", "seed", "feature_std", "target_std"])
def test_header_missing_a_key_rejected(tmp_path, key):
    save_checkpoint(tmp_path / "c.npz", checkpoint())
    resave_with_header(tmp_path / "c.npz", lambda h: h.pop(key))
    with pytest.raises(TrainingError, match=rf"header is missing \['{key}'\]"):
        load_checkpoint(tmp_path / "c.npz")


def drop_mean(header):
    del header["feature_std"]["mean"]


def set_std(key, values):
    return lambda header: header[key].update(std=values)


@pytest.mark.parametrize("edit, match", [
    (lambda h: h.update(config=5), "config 5 is not a JSON object"),
    (drop_mean, "feature_std needs 'mean' and 'std'"),
    (set_std("target_std", ["a", "b"]), "target_std needs 'mean' and 'std'"),
    (set_std("feature_std", [1.0, True, 1.0, 1.0, 1.0]), "feature_std needs 'mean' and 'std'"),
    (set_std("feature_std", 1.0), "feature_std needs 'mean' and 'std'"),
    (lambda h: h.update(feature_std=[0.0]), "feature_std needs 'mean' and 'std'"),
    (lambda h: h.update(seed="x"), "seed 'x' is not an integer"),
    (lambda h: h.update(seed=True), "seed True is not an integer"),
    (lambda h: h.update(seed=1.5), "seed 1.5 is not an integer"),
    (lambda h: h.update(scenario=3), "scenario 3 is not a string"),
], ids=["config_int", "std_without_mean", "std_strings", "std_bool", "std_scalar",
        "std_not_object", "seed_str", "seed_bool", "seed_float", "scenario_int"])
def test_header_of_wrong_type_rejected(tmp_path, edit, match):
    save_checkpoint(tmp_path / "c.npz", checkpoint())
    resave_with_header(tmp_path / "c.npz", edit)
    with pytest.raises(TrainingError, match=match):
        load_checkpoint(tmp_path / "c.npz")


def flip_a_data_byte(path, member="param/out.W.npy"):
    """Flip the last data byte of a stored member, so its CRC-32 fails."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member)
    raw = bytearray(path.read_bytes())
    name_len, extra_len = struct.unpack("<HH", raw[info.header_offset + 26:info.header_offset + 30])
    raw[info.header_offset + 30 + name_len + extra_len + info.compress_size - 1] ^= 0xFF
    path.write_bytes(bytes(raw))


def object_params(path):
    ckpt = checkpoint()
    ckpt.params["out.W"] = ckpt.params["out.W"].astype(object)
    save_checkpoint(path, ckpt)


def string_params(path):
    ckpt = checkpoint()
    ckpt.params["out.W"] = np.full(ckpt.params["out.W"].shape, "a")
    save_checkpoint(path, ckpt)


def flipped_byte(path):
    save_checkpoint(path, checkpoint())
    flip_a_data_byte(path)


DEFECTIVE_MEMBERS = pytest.mark.parametrize("make, match", [
    (object_params, "is not a checkpoint: Object arrays cannot be loaded"),
    (flipped_byte, "is not a checkpoint: Bad CRC-32"),
    (string_params, r"out.W has shape \(8, 2\) and dtype <U1, config needs \(8, 2\) float64"),
], ids=["object_dtype", "bad_crc", "string_dtype"])


@DEFECTIVE_MEMBERS
def test_defective_parameter_member_rejected(tmp_path, make, match):
    make(tmp_path / "c.npz")
    with pytest.raises(TrainingError, match=match):
        load_checkpoint(tmp_path / "c.npz")

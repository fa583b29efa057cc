import itertools
import math

import numpy as np
import pytest

from simsurrogate.errors import TrainingError
from simsurrogate.nn.models import ARCHITECTURES, ModelConfig
from simsurrogate.preprocess import WindowBatch
from simsurrogate.train import TrainConfig, evaluate_loss, train_model
from simsurrogate.tuner import (
    COORDINATE_ORDER,
    SEARCH_SPACE,
    tune_hyperparameters,
    write_audit_csv,
)


def base_config(arch="bigru"):
    return ModelConfig(architecture=arch, input_dim=3, output_dim=2)


def quadratic_loss(optimum):
    """Stub trainer with a unique known minimizer over the search space."""
    def train_fn(cfg):
        return sum((getattr(cfg, k) - v) ** 2 for k, v in optimum.items())
    return train_fn


class TestSchedule:
    def test_stage_one_has_exactly_n_random_trials(self):
        _, _, audit = tune_hyperparameters(base_config(),
                                           quadratic_loss({"hidden_size": 32}), seed=0)
        assert sum(1 for r in audit if r.stage == "random") == 10

    def test_sweep_order_is_fixed(self):
        _, _, audit = tune_hyperparameters(base_config(),
                                           quadratic_loss({"hidden_size": 32}), seed=0)
        sweep_stages = [r.stage for r in audit if r.stage.startswith("sweep:")]
        seen = []
        for stage in sweep_stages:
            param = stage.split(":", 1)[1]
            if not seen or seen[-1] != param:
                seen.append(param)
        # three survivors, each swept over the coordinates in declared order
        assert tuple(seen) == COORDINATE_ORDER * 3

    def test_trial_count_formula(self):
        _, _, audit = tune_hyperparameters(base_config(),
                                           quadratic_loss({"hidden_size": 32}), seed=0)
        # each survivor sweeps every candidate of each coordinate but its
        # current value
        per_survivor = sum(len(SEARCH_SPACE[p]) - 1 for p in COORDINATE_ORDER)
        assert len(audit) == 10 + 3 * per_survivor

    def test_transformer_also_sweeps_num_heads(self):
        _, _, audit = tune_hyperparameters(base_config("transformer"),
                                           quadratic_loss({"hidden_size": 32}), seed=0)
        assert any(r.stage == "sweep:num_heads" for r in audit)
        per_survivor = sum(len(SEARCH_SPACE[p]) - 1
                           for p in COORDINATE_ORDER + ("num_heads",))
        assert len(audit) == 10 + 3 * per_survivor

    def test_gru_never_sweeps_num_heads(self):
        _, _, audit = tune_hyperparameters(base_config("bigru"),
                                           quadratic_loss({"hidden_size": 32}), seed=0)
        assert all(r.stage != "sweep:num_heads" for r in audit)


class TestSelection:
    def test_finds_known_optimum(self):
        optimum = {"hidden_size": 64, "window_size": 8, "window_overlap": 4,
                   "num_layers": 2, "batch_size": 16}
        best, loss, _ = tune_hyperparameters(base_config(),
                                             quadratic_loss(optimum), seed=0)
        assert loss == 0.0
        for k, v in optimum.items():
            assert getattr(best, k) == v

    def test_returned_loss_matches_best_audit_entry(self):
        best, loss, audit = tune_hyperparameters(
            base_config(), quadratic_loss({"batch_size": 64}), seed=3)
        ok = [r.eval_loss for r in audit if r.status == "ok"]
        assert loss == min(ok)

    def test_deterministic_replay(self):
        fn = quadratic_loss({"hidden_size": 16, "num_layers": 2})
        a = tune_hyperparameters(base_config(), fn, seed=7)
        b = tune_hyperparameters(base_config(), fn, seed=7)
        assert a[0] == b[0] and a[1] == b[1]
        assert [(r.stage, r.config, r.eval_loss) for r in a[2]] == \
               [(r.stage, r.config, r.eval_loss) for r in b[2]]


class TestFailures:
    def test_failed_trials_logged_and_skipped(self):
        def flaky(cfg):
            if cfg.hidden_size == 64:
                raise TrainingError("diverged at epoch 0")
            return float(cfg.hidden_size)
        best, loss, audit = tune_hyperparameters(base_config(), flaky, seed=1)
        skipped = [r for r in audit if r.status.startswith("skipped:diverged")]
        assert skipped and all(math.isnan(r.eval_loss) for r in skipped)
        assert best.hidden_size == 16

    def test_all_random_failures_raise(self):
        def always_fail(cfg):
            raise TrainingError("bad")
        with pytest.raises(TrainingError, match="all random trials failed"):
            tune_hyperparameters(base_config(), always_fail, seed=0)


@pytest.mark.parametrize("arch", ["bigru", "transformer"])
def test_each_distinct_config_trains_once(arch):
    """The sweep revisits configs (a survivor's start value, two survivors
    meeting, recurrent configs apart only in the unused num_heads); each
    distinct one is trained once and every trial that meets it logs its loss."""
    searched = COORDINATE_ORDER + (("num_heads",) if arch == "transformer" else ())
    # the first candidate of each coordinate is best, so a sweep that starts
    # elsewhere moves off its start value and meets it again
    loss = quadratic_loss({k: SEARCH_SPACE[k][0] for k in searched})
    calls = []

    def counting(cfg):
        calls.append(cfg)
        return loss(cfg)

    _, _, audit = tune_hyperparameters(base_config(arch), counting, seed=0)

    def key(cfg):
        return tuple(getattr(cfg, k) for k in searched)

    keys = {key(r.config) for r in audit}
    assert len(calls) == len(keys) < len(audit)
    assert {key(c) for c in calls} == keys
    first = {}
    for r in audit:
        assert first.setdefault(key(r.config), (r.eval_loss, r.status)) == (r.eval_loss, r.status)


def test_recurrent_loss_ignores_num_heads():
    """Why the tuner's key drops num_heads for recurrent models: a BiGRU
    trained and scored at 1 and at 4 heads gives the same loss to the bit."""
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=(12, 4, 3)), rng.normal(size=(12, 4, 2))
    mask = np.ones((12, 4), dtype=bool)
    prov = np.zeros((12, 4, 2), dtype=np.int64)
    train_batch = WindowBatch(x[:8], y[:8], mask[:8], prov[:8])
    eval_batch = WindowBatch(x[8:], y[8:], mask[8:], prov[8:])
    losses = []
    for heads in (1, 4):
        model = ModelConfig("bigru", input_dim=3, output_dim=2, hidden_size=6,
                            window_size=4, batch_size=4, num_heads=heads)
        params, _ = train_model(TrainConfig(model, max_epochs=2, patience=2),
                                train_batch, eval_batch)
        losses.append(evaluate_loss(model, params, eval_batch))
    assert losses[0] == losses[1]


def test_every_search_space_combination_is_valid():
    """The tuner has no path for an invalid candidate: every combination of
    the space is a valid ModelConfig for every architecture."""
    for arch in ARCHITECTURES:
        for combo in itertools.product(*SEARCH_SPACE.values()):
            ModelConfig(arch, input_dim=3, output_dim=2, **dict(zip(SEARCH_SPACE, combo)))


def test_audit_csv_round_numbers(tmp_path):
    _, _, audit = tune_hyperparameters(base_config(),
                                       quadratic_loss({"hidden_size": 32}), seed=0)
    path = tmp_path / "audit.csv"
    write_audit_csv(path, audit)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == len(audit) + 1
    assert lines[0].startswith("trial_id,stage,survivor,architecture")

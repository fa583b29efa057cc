"""End-to-end acceptance gate.

One test per criterion, so `pytest -v` prints one pass/fail line for each.
Assertion messages carry the measured values, so a failure documents itself.
The experiment fixtures (criteria 6 and 7) train real models and take a few
minutes; everything else is fast.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from tape_reference import rnn_params

from simsurrogate.cli import resolve_manifest, run_experiment, simulate_suite, time_speedup
from simsurrogate.engine import run_simulation
from simsurrogate.evaluate import default_grid, kde, r_squared
from simsurrogate.nn.autodiff import Tensor
from simsurrogate.nn.models import (
    ModelConfig,
    bidirectional_forward,
    init_params,
    model_forward,
    multi_head_attention,
    rnn_direction,
    wrap_params,
)
from simsurrogate.platform import LinkSpec, NodeSpec, PlatformSpec, builtin_platform, validate_platform
from simsurrogate.preprocess import (
    WindowBatch,
    fit_standardizer,
    make_windows,
    split_train_eval,
    unwindow_aligned,
)
from simsurrogate.traceio import SampleTable
from simsurrogate.train import TrainConfig, train_model
from simsurrogate.tuner import COORDINATE_ORDER, tune_hyperparameters
from simsurrogate.workload import (
    DatasetSpec,
    FileSpec,
    JobSpec,
    generate_workload,
)

SEEDS = (0, 1, 2)
MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


def criterion6_manifest(scenario: str, seed: int = 0):
    """Criterion 6's experiment for one scenario: a BiGRU (h=24, 16-row
    windows), from the manifest that compare_scenarios.py also runs."""
    return resolve_manifest(str(MANIFESTS / f"criterion6_{scenario}.json"), seed=seed)


# Shared plumbing ------------------------------------------------------------

def one_worker_platform(cores=1, core_speed=1e9, link_bw=1.25e8, latency=1e-4,
                        disk_bw=2.5e8):
    spec = PlatformSpec(
        nodes=(
            NodeSpec("w0", "worker", cores=cores, core_speed_flops=core_speed),
            NodeSpec("s0", "storage", disk_read_bw_bps=disk_bw, disk_write_bw_bps=disk_bw),
        ),
        links=(LinkSpec("l0", link_bw, latency),),
        routes={("s0", "w0"): ("l0",), ("w0", "s0"): ("l0",)},
    )
    validate_platform(spec)
    return spec


def job(idx, flops=1e9, files=(), out=0.0):
    return JobSpec(simulation_id=0, job_index=idx, submission_time_s=0.0,
                   flops=flops, input_files=tuple(files),
                   output_files_size_bytes=out, class_id=0)


@pytest.fixture(scope="module")
def hetero_runs():
    """One 200-simulation x 100-job heterogeneous experiment per seed."""
    runs = {}
    for seed in SEEDS:
        man = criterion6_manifest("heterogeneous", seed)
        runs[seed] = run_experiment(man, *simulate_suite(man))
    return runs


@pytest.fixture(scope="module")
def homog_runs():
    """Homogeneous training suite (20 simulations per job count) per seed.

    The workload is seed-independent by construction (fixed demands, all jobs
    at t=0), so the simulations are shared and only split and initialization
    vary per seed.
    """
    suite = simulate_suite(criterion6_manifest("homogeneous"))
    return {seed: run_experiment(criterion6_manifest("homogeneous", seed), *suite)
            for seed in SEEDS}


# 1. Analytic simulator oracles ---------------------------------------------

def test_criterion_1_simulator_analytic_oracles():
    platform = one_worker_platform(core_speed=1.2e10)
    t = run_simulation(platform, [job(0, flops=2.4e11)], DatasetSpec(()))[0]
    assert math.isclose(t.compute_time_s, 2.4e11 / 1.2e10, rel_tol=1e-9), t.compute_time_s

    ds = DatasetSpec((FileSpec("f0", 1e9, "s0"),))
    t = run_simulation(platform, [job(0, files=["f0"])], ds)[0]
    expected = 1e-4 + 1e9 / 1.25e8
    assert math.isclose(t.input_files_transfer_time_s, expected, rel_tol=1e-9)

    # two concurrent transfers on one link share bandwidth equally
    fair = one_worker_platform(cores=2, disk_bw=1e12)
    ds = DatasetSpec((FileSpec("f0", 5e8, "s0"), FileSpec("f1", 5e8, "s0")))
    traces = run_simulation(fair, [job(0, files=["f0"]), job(1, files=["f1"])], ds)
    expected = 1e-4 + 2 * 5e8 / 1.25e8
    for t in traces:
        assert math.isclose(t.input_files_transfer_time_s, expected, rel_tol=1e-9), \
            t.input_files_transfer_time_s


# 2. Wave oracle -------------------------------------------------------------

def test_criterion_2_wave_oracle():
    for cores in (1, 2, 12, 24):
        platform = one_worker_platform(cores=cores)
        for n in range(1, 51):
            traces = run_simulation(platform, [job(i, flops=5e9) for i in range(n)],
                                    DatasetSpec(()))
            wave_len = 5e9 / 1e9
            for t in traces:
                wave = t.job_index // cores
                assert math.isclose(t.end_time_s, (wave + 1) * wave_len, rel_tol=1e-9), \
                    f"n={n} cores={cores} job={t.job_index}: end {t.end_time_s}"
            n_waves = len({round(t.end_time_s, 6) for t in traces})
            assert n_waves == math.ceil(n / cores), f"n={n} cores={cores}: {n_waves} waves"


# 3. Preprocessing properties ------------------------------------------------

def test_criterion_3_preprocessing_properties():
    rng = np.random.default_rng(0)
    rows = rng.normal(3.0, 9.0, size=(100, 5)) * 1e6
    s = fit_standardizer(rows)
    np.testing.assert_allclose(s.inverse_transform(s.transform(rows)), rows, rtol=1e-12)

    lengths = [7, 1, 12, 16, 3, 33]
    sims = np.concatenate([np.full(n, i) for i, n in enumerate(lengths)])
    idx = np.concatenate([np.arange(n) for n in lengths])
    table = SampleTable("heterogeneous", sims.astype(np.int64), idx.astype(np.int64),
                        rng.normal(size=(len(sims), 3)), rng.normal(size=(len(sims), 2)),
                        ("a", "b", "c"), ("t0", "t1"))
    for w, v in ((4, 0), (4, 2), (8, 4), (16, 0)):
        batch = make_windows(table, w, v)
        per_row = unwindow_aligned(batch.targets, batch.provenance,
                                   table.simulation_ids, table.job_indices)
        covered = set(map(tuple, batch.provenance[batch.mask].tolist()))
        assert covered == set(zip(sims.tolist(), idx.tolist())), (w, v)
        np.testing.assert_array_equal(per_row, table.targets,
                                      err_msg=f"window={w} overlap={v}")

    split = split_train_eval({i: 10 + (i % 2) for i in range(20)}, 0.7, seed=1)
    for length, group in split.groups.items():
        assert len(group["train"]) == 7 and len(group["eval"]) == 3, length


# 4. Gradient suite ----------------------------------------------------------

def numeric_grad(scalar_fn, params, name, step=1e-3):
    flat = params[name].ravel()
    grad = np.empty_like(flat)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        up = scalar_fn(params)
        flat[i] = keep - step
        down = scalar_fn(params)
        flat[i] = keep
        grad[i] = (up - down) / (2 * step)
    return grad.reshape(params[name].shape)


def check_grads(loss_fn, params, tol):
    tensors = wrap_params(params)
    loss_fn(tensors).backward()

    def scalar(raw):
        return float(loss_fn(wrap_params(raw)).data)

    for name in params:
        got = tensors[name].grad
        want = numeric_grad(scalar, params, name)
        denom = max(np.abs(want).max(), 1e-8)
        err = np.abs(got - want).max() / denom
        assert err < tol, f"{name}: max relative gradient error {err:.2e}"


def test_criterion_4_gradient_suite():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 2, 3))  # time-major [T, batch, in]

    def squared_sum(out):
        return (out * out).sum()

    p = rnn_params(rng, "c", 3, 4, "bigru")
    check_grads(lambda t: squared_sum(rnn_direction(Tensor(x), t, "c", "bigru")), p, 1e-4)

    p = rnn_params(rng, "c", 3, 4, "bilstm")
    check_grads(lambda t: squared_sum(rnn_direction(Tensor(x), t, "c", "bilstm")), p, 1e-4)

    seq = rng.normal(size=(3, 2, 3))
    p = {**rnn_params(rng, "rnn0.fwd", 3, 4, "bigru"),
         **rnn_params(rng, "rnn0.bwd", 3, 4, "bigru")}
    check_grads(lambda t: squared_sum(
        bidirectional_forward(Tensor(seq), t, "rnn0", "bigru")), p, 1e-4)

    p = {}
    for name in ("q", "k", "v", "o"):
        p[f"a.W{name}"] = rng.normal(scale=0.5, size=(4, 4))
        p[f"a.b{name}"] = rng.normal(scale=0.5, size=(4,))
    att_x = rng.normal(size=(2, 3, 4))
    check_grads(lambda t: squared_sum(multi_head_attention(Tensor(att_x), t, "a", 2)),
                p, 1e-4)

    for arch in ("bigru", "bilstm", "transformer"):
        config = ModelConfig(arch, input_dim=3, output_dim=2, hidden_size=4,
                             num_layers=2, window_size=3, batch_size=2,
                             num_heads=2, seed=1)
        params = init_params(config)
        windows = rng.normal(size=(2, 3, 3))
        check_grads(lambda t: squared_sum(model_forward(config, t, windows)),
                    params, 1e-3)


# 5. Training sanity ---------------------------------------------------------

def test_criterion_5_training_sanity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(100, 8, 3))
    y = 2.0 * x[:, :, :1]
    mask = np.ones((100, 8), dtype=bool)
    prov = np.stack(np.meshgrid(np.arange(100), np.arange(8), indexing="ij"), axis=-1)
    batch = WindowBatch(x, y, mask, prov.astype(np.int64))
    for arch in ("bigru", "bilstm", "transformer"):
        config = TrainConfig(
            model=ModelConfig(arch, input_dim=3, output_dim=1, hidden_size=16,
                              window_size=8, batch_size=16, num_heads=2, seed=0),
            learning_rate=1e-2, max_epochs=200, patience=200, seed=0)
        _, history = train_model(config, batch.select(np.arange(75)),
                                 batch.select(np.arange(75, 100)))
        best = min(h.eval_loss for h in history)
        assert best < 1e-3, f"{arch}: best eval MSE {best:.2e}"


# 6. Directional reproduction of the published pattern -----------------------

def test_criterion_6_pattern_reproduction(hetero_runs, homog_runs):
    for seed in SEEDS:
        het = hetero_runs[seed][0].r2
        hom = homog_runs[seed][0].r2
        gap = het["compute_time_s"] - het["input_files_transfer_time_s"]
        assert het["compute_time_s"] >= 0.8, \
            f"seed {seed}: heterogeneous compute R2 {het['compute_time_s']:.3f}"
        assert gap >= 0.3, \
            f"seed {seed}: compute R2 {het['compute_time_s']:.3f} minus transfer " \
            f"R2 {het['input_files_transfer_time_s']:.3f} gap {gap:.3f}"
        assert hom["compute_time_s"] < het["compute_time_s"], \
            f"seed {seed}: homogeneous compute R2 {hom['compute_time_s']:.3f} vs " \
            f"heterogeneous {het['compute_time_s']:.3f}"


# 7. Speedup at 10,000 jobs --------------------------------------------------

def test_criterion_7_speedup(hetero_runs):
    _, ckpt = hetero_runs[SEEDS[0]]
    jobs, datasets = generate_workload("heterogeneous", 10_000, 0, SEEDS[0])
    row = time_speedup(builtin_platform("heterogeneous"), "heterogeneous", jobs, datasets,
                       ckpt, repeats=1)
    assert row["speedup"] >= 10.0, \
        f"simulator {row['simulator_seconds']:.2f}s / surrogate " \
        f"{row['surrogate_seconds']:.3f}s = {row['speedup']:.1f}x"


# 8. Metric properties -------------------------------------------------------

def test_criterion_8_metric_properties():
    actual = np.array([1.0, 5.0, 2.0, 8.0])
    assert r_squared(actual.copy(), actual) == 1.0
    assert r_squared(np.full(4, actual.mean()), actual) == 0.0
    # prediction mirrored through the mean: SS_res = 4 * SS_tot
    assert math.isclose(r_squared(2 * actual.mean() - actual, actual), -3.0,
                        rel_tol=1e-12)

    rng = np.random.default_rng(3)
    for _ in range(5):
        values = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 3), size=300)
        grid = default_grid(values)
        density = kde(values, grid)
        assert (density >= 0).all()
        mass = float(np.trapezoid(density, grid))
        assert abs(mass - 1.0) < 1e-3, f"KDE mass {mass}"


# 9. Tuner contract ----------------------------------------------------------

def test_criterion_9_tuner_contract():
    optimum = {"hidden_size": 64, "window_size": 8, "window_overlap": 4,
               "num_layers": 2, "batch_size": 16}

    def train_fn(cfg):
        return float(sum((getattr(cfg, k) - v) ** 2 for k, v in optimum.items()))

    base = ModelConfig("bigru", input_dim=3, output_dim=2)
    best, loss, audit = tune_hyperparameters(base, train_fn, seed=0)

    # schedule: 10 random trials, then 3 survivors swept in the fixed order
    assert sum(1 for r in audit if r.stage == "random") == 10
    sweep_params = []
    for r in audit:
        if r.stage.startswith("sweep:"):
            param = r.stage.split(":", 1)[1]
            if not sweep_params or sweep_params[-1] != param:
                sweep_params.append(param)
    assert tuple(sweep_params) == COORDINATE_ORDER * 3

    # separable quadratic loss: coordinate descent must land on the optimum
    assert loss == 0.0, f"best loss {loss}"
    for k, v in optimum.items():
        assert getattr(best, k) == v, f"{k}: {getattr(best, k)} != {v}"

    replay_best, replay_loss, replay_audit = tune_hyperparameters(base, train_fn, seed=0)
    assert replay_best == best and replay_loss == loss
    assert [(r.stage, r.config, r.eval_loss) for r in replay_audit] == \
           [(r.stage, r.config, r.eval_loss) for r in audit]

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simsurrogate import evaluate
from simsurrogate.errors import EvalError
from simsurrogate.evaluate import (
    default_grid,
    evaluate_model,
    kde,
    r_squared,
    silverman_bandwidth,
    speedup_row,
    time_call,
    write_report,
    write_speedup_csv,
)
from simsurrogate.nn.models import ModelConfig
from simsurrogate.preprocess import fit_standardizer, make_windows, standardize_table
from simsurrogate.traceio import SampleTable
from simsurrogate.train import TrainConfig, train_model


class TestRSquared:
    def test_perfect_prediction_is_one(self):
        actual = np.array([1.0, 2.0, 3.0, 4.0])
        assert r_squared(actual.copy(), actual) == 1.0

    def test_mean_prediction_is_zero(self):
        actual = np.array([1.0, 2.0, 3.0, 4.0])
        pred = np.full(4, actual.mean())
        assert r_squared(pred, actual) == 0.0

    def test_mirrored_prediction_is_minus_three(self):
        # pred = 2*mean - actual doubles every residual: R^2 = 1 - 4 = -3
        actual = np.array([1.0, 5.0, 2.0, 8.0])
        pred = 2 * actual.mean() - actual
        assert math.isclose(r_squared(pred, actual), -3.0, rel_tol=1e-12)

    def test_hand_computed(self):
        actual = np.array([0.0, 2.0])  # mean 1, ss_tot 2
        pred = np.array([0.0, 1.0])  # ss_res 1
        assert r_squared(pred, actual) == 0.5

    def test_constant_actual_rejected(self):
        with pytest.raises(EvalError, match="constant"):
            r_squared(np.array([1.0, 2.0]), np.array([3.0, 3.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(EvalError):
            r_squared(np.ones(3), np.ones(4))

    @given(scale=st.floats(0.1, 100.0), shift=st.floats(-50.0, 50.0),
           seed=st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_affine_invariance(self, scale, shift, seed):
        rng = np.random.default_rng(seed)
        actual = rng.normal(size=20)
        pred = actual + rng.normal(scale=0.3, size=20)
        a = r_squared(pred, actual)
        b = r_squared(scale * pred + shift, scale * actual + shift)
        assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


class TestKde:
    def test_density_integrates_to_one(self):
        values = np.random.default_rng(0).normal(size=200)
        grid = default_grid(values)
        density = kde(values, grid)
        assert abs(np.trapezoid(density, grid) - 1.0) < 1e-3

    def test_symmetric_samples_symmetric_density(self):
        values = np.array([-2.0, -1.0, 1.0, 2.0])
        grid = np.linspace(-5, 5, 201)
        density = kde(values, grid, bandwidth=0.5)
        np.testing.assert_allclose(density, density[::-1], rtol=1e-12)

    def test_two_spike_samples_give_bimodal_density(self):
        rng = np.random.default_rng(1)
        values = np.concatenate([rng.normal(0.0, 0.1, 100),
                                 rng.normal(10.0, 0.1, 100)])
        grid = np.linspace(-2, 12, 400)
        density = kde(values, grid, bandwidth=0.3)
        interior = (density[1:-1] > density[:-2]) & (density[1:-1] > density[2:])
        assert interior.sum() == 2

    def test_silverman_hand_value(self):
        values = np.arange(100, dtype=float)
        std = values.std()
        iqr = np.percentile(values, 75) - np.percentile(values, 25)
        expected = 0.9 * min(std, iqr / 1.34) * 100 ** (-0.2)
        assert math.isclose(silverman_bandwidth(values), expected, rel_tol=1e-12)

    def test_constant_samples_use_bandwidth_floor(self):
        assert silverman_bandwidth(np.full(50, 3.0)) == 1e-9

    def test_too_few_values_rejected(self):
        with pytest.raises(EvalError):
            kde(np.array([1.0]), np.linspace(0, 2, 10))

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(EvalError, match="bandwidth"):
            kde(np.array([1.0, 2.0]), np.linspace(0, 3, 10), bandwidth=0.0)


def kde_samples(kind, n=20_000, seed=0):
    rng = np.random.default_rng(seed)
    if kind == "bimodal":
        return np.concatenate([rng.normal(0.0, 1.0, n // 2), rng.normal(8.0, 0.5, n - n // 2)])
    sigma = {"lognormal-0.5": 0.5, "lognormal-1.5": 1.5}[kind]
    return rng.lognormal(0.0, sigma, n)


def peak_error(values, grid, bandwidth=None):
    """Largest |kde - exact sum| on `grid`, as a share of the exact peak."""
    bw = silverman_bandwidth(values) if bandwidth is None else bandwidth
    exact = evaluate._kde_exact(values, grid, bw)
    return float(np.abs(kde(values, grid, bandwidth) - exact).max() / exact.max())


def bulk_grid(values):
    """256 points over the central 99% of `values`: a heavy tail's lattice
    then stays smaller than the sample."""
    return np.linspace(*np.quantile(values, [0.005, 0.995]), 256)


KINDS = ("lognormal-0.5", "lognormal-1.5", "bimodal")


def count_exact_calls(monkeypatch) -> list:
    """The calls `kde` makes to the exact sum from now on; results are unchanged."""
    calls = []
    exact = evaluate._kde_exact
    monkeypatch.setattr(evaluate, "_kde_exact", lambda *args: calls.append(args) or exact(*args))
    return calls


class TestBinnedKde:
    """`kde` against the exact Gaussian sum, on inputs large enough to bin."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_default_grid_within_1e3_of_peak(self, kind):
        values = kde_samples(kind)
        assert peak_error(values, default_grid(values)) <= 1e-3

    @pytest.mark.parametrize("kind", KINDS)
    def test_grid_of_other_data_within_1e3_of_peak(self, kind):
        # predictions scored on the target's grid: some fall off its lattice
        values = kde_samples(kind)
        rng = np.random.default_rng(1)
        predicted = 1.1 * values + rng.normal(0.0, 0.2 * values.std(), values.size)
        assert peak_error(predicted, default_grid(values)) <= 1e-3
        assert peak_error(values, bulk_grid(predicted)) <= 1e-3

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("scale", [0.5, 3.0])
    def test_explicit_bandwidth_within_1e3_of_peak(self, kind, scale):
        values = kde_samples(kind)
        bandwidth = scale * silverman_bandwidth(values)
        assert peak_error(values, bulk_grid(values), bandwidth) <= 1e-3

    def test_far_outlier(self):
        values = kde_samples("bimodal")
        values[0] = values[1:].max() + 1e6
        # on the bulk's grid the outlier is off the lattice and dropped
        assert peak_error(values, default_grid(values[1:])) <= 1e-3
        # on its own grid the lattice outgrows the sample: the exact sum
        assert peak_error(values, default_grid(values)) == 0.0

    @pytest.mark.parametrize("values, grid, binned", [
        (kde_samples("lognormal-0.5"), None, True),
        (kde_samples("bimodal"), None, True),
        (kde_samples("lognormal-1.5"), "bulk", True),
        # a 370-wide tail needs ~27,000 lattice nodes for 20,000 values
        (kde_samples("lognormal-1.5"), None, False),
        (np.array([0.0, 1.0, 3.0]), None, False),
    ], ids=["lognormal-0.5", "bimodal", "lognormal-1.5-bulk", "lognormal-1.5", "three-values"])
    def test_binned_unless_lattice_outnumbers_values(self, monkeypatch, values, grid, binned):
        grid = bulk_grid(values) if grid == "bulk" else default_grid(values)
        calls = count_exact_calls(monkeypatch)
        kde(values, grid)
        assert len(calls) == (0 if binned else 1)

    @pytest.mark.parametrize("values, binned", [
        (kde_samples("lognormal-0.5"), True),
        (np.array([0.0, 1.0, 3.0]), False),
    ], ids=["binned", "exact"])
    @pytest.mark.parametrize("bad_value, bandwidth", [
        (np.nan, None), (np.inf, None), (np.nan, 0.5), (None, np.nan), (None, np.inf),
    ])
    def test_non_finite_input_rejected_on_both_paths(self, monkeypatch, values, binned,
                                                     bad_value, bandwidth):
        grid = default_grid(values)
        calls = count_exact_calls(monkeypatch)
        finite_bw = 0.5 if bandwidth == 0.5 else None
        kde(values, grid, finite_bw)  # the path these inputs take
        assert len(calls) == (0 if binned else 1)
        with pytest.raises(EvalError, match="finite"):
            if bad_value is None:
                kde(values, grid, bandwidth)
            else:
                kde(np.append(values, bad_value), grid, finite_bw)
        assert len(calls) == (0 if binned else 1)


def linear_table(n=64, seed=0):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, 1))
    return SampleTable(
        scenario="heterogeneous",
        simulation_ids=np.zeros(n, dtype=np.int64),
        job_indices=np.arange(n, dtype=np.int64),
        features=feats,
        targets=2.0 * feats + 1.0,
        feature_names=("f0",),
        target_names=("t0",),
    )


@pytest.fixture(scope="module")
def trained():
    table = linear_table()
    f_std = fit_standardizer(table.features, names=table.feature_names)
    t_std = fit_standardizer(table.targets, names=table.target_names)
    scaled = standardize_table(table, f_std, t_std)
    model = ModelConfig(architecture="bigru", input_dim=1, output_dim=1,
                        hidden_size=16, window_size=8, batch_size=16, seed=0)
    batch = make_windows(scaled, 8, 0)
    params, _ = train_model(
        TrainConfig(model=model, learning_rate=1e-2, max_epochs=150, patience=150),
        batch, batch)
    return table, model, params, f_std, t_std


class TestEvaluateModel:
    def test_learned_linear_map_r2_near_one(self, trained):
        table, model, params, f_std, t_std = trained
        report = evaluate_model(model, params, table, f_std, t_std)
        assert report.r2["t0"] > 0.99
        assert report.n_rows == len(table)

    def test_report_files(self, tmp_path, trained):
        table, model, params, f_std, t_std = trained
        report = evaluate_model(model, params, table, f_std, t_std, seed=5)
        write_report(tmp_path, report)
        assert (tmp_path / "r2.csv").exists()
        assert (tmp_path / "kde_t0.csv").exists()
        summary = json.loads((tmp_path / "report.json").read_text())
        assert summary["seed"] == 5
        assert summary["r2"]["t0"] == report.r2["t0"]
        assert "surrogate_seconds" not in summary  # bench times the surrogate


class TestSpeedup:
    def test_ratio(self):
        row = speedup_row("heterogeneous", 100, 2.0, 0.1)
        assert row["speedup"] == 20.0

    def test_csv_written(self, tmp_path):
        path = tmp_path / "speedup.csv"
        write_speedup_csv(path, [speedup_row("a", 10, 4.0, 2.0)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "scenario,n_jobs,simulator_seconds,surrogate_seconds,speedup"
        assert len(lines) == 2 and lines[1] == "a,10,4.0,2.0,2.0"


class TestTimeCall:
    @staticmethod
    def fake_clock(monkeypatch, durations):
        """A clock that only moves when the timed function runs, by the next
        of `durations`; returns the function and the log of calls and reads."""
        now, log, steps = [0.0], [], iter(durations)

        def read():
            log.append("clock")
            return now[0]

        def fn():
            now[0] += next(steps)
            log.append("call")
            return log.count("call")

        monkeypatch.setattr(evaluate, "time", SimpleNamespace(perf_counter=read))
        return fn, log

    def test_warm_up_untimed_then_median_of_repeats(self, monkeypatch):
        fn, log = self.fake_clock(monkeypatch, [100.0, 3.0, 1.0, 2.0])
        result, seconds = time_call(fn, 3)
        assert log[:2] == ["call", "clock"]  # the warm-up runs before any clock read
        assert log.count("call") == 4
        assert seconds == 2.0  # median of 3, 1 and 2; the 100 s warm-up is not counted
        assert result == 4  # the last call's result

    def test_even_repeats_average_the_middle_pair(self, monkeypatch):
        fn, _ = self.fake_clock(monkeypatch, [100.0, 4.0, 1.0, 2.0, 10.0])
        assert time_call(fn, 4)[1] == 3.0

    def test_zero_repeats_rejected(self):
        with pytest.raises(EvalError, match="repeats"):
            time_call(lambda: None, 0)

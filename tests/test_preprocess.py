import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simsurrogate.errors import PreprocessError
from simsurrogate.preprocess import (
    Standardizer,
    WindowBatch,
    fit_standardizer,
    make_windows,
    split_train_eval,
    unwindow_aligned,
)
from simsurrogate.traceio import SampleTable


def windowed_keys(batch):
    """The distinct (simulation_id, job_index) rows the windows cover."""
    return set(map(tuple, batch.provenance[batch.mask].tolist()))


def table_keys(table):
    return set(zip(table.simulation_ids.tolist(), table.job_indices.tolist()))


def table_from(lengths, n_feat=3, n_tgt=2, seed=0):
    rng = np.random.default_rng(seed)
    sims, idx = [], []
    for sid, n in enumerate(lengths):
        sims.extend([sid] * n)
        idx.extend(range(n))
    n_rows = len(sims)
    return SampleTable(
        scenario="heterogeneous",
        simulation_ids=np.asarray(sims, dtype=np.int64),
        job_indices=np.asarray(idx, dtype=np.int64),
        features=rng.normal(size=(n_rows, n_feat)),
        targets=rng.normal(size=(n_rows, n_tgt)),
        feature_names=tuple(f"f{i}" for i in range(n_feat)),
        target_names=tuple(f"t{i}" for i in range(n_tgt)),
    )


class TestStandardizer:
    def test_hand_computed_stats(self):
        s = fit_standardizer(np.array([[3.0], [5.0], [7.0]]))
        assert s.mean[0] == 5.0
        assert math.isclose(s.std[0], math.sqrt(8.0 / 3.0), rel_tol=1e-12)

    def test_constant_feature_divides_by_one(self):
        s = fit_standardizer(np.array([[4.0], [4.0]]))
        assert s.std[0] == 0.0
        np.testing.assert_allclose(s.transform(np.array([[7.0]])), [[3.0]])

    def test_transform_value(self):
        s = Standardizer(np.array([5.0]), np.array([2.0]))
        assert s.transform(np.array([[7.0]]))[0, 0] == 1.0

    def test_inverse_of_zero_is_mean(self):
        s = fit_standardizer(np.random.default_rng(0).normal(size=(50, 4)))
        np.testing.assert_allclose(s.inverse_transform(np.zeros((1, 4))), [s.mean])

    def test_round_trip_identity(self):
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(100, 5)) * 1e6
        s = fit_standardizer(rows)
        back = s.inverse_transform(s.transform(rows))
        np.testing.assert_allclose(back, rows, rtol=1e-12)

    def test_training_set_standardized_stats(self):
        rows = np.random.default_rng(2).normal(3.0, 7.0, size=(200, 3))
        s = fit_standardizer(rows)
        z = s.transform(rows)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_no_leakage_eval_mean_nonzero(self):
        rng = np.random.default_rng(3)
        train = rng.normal(0.0, 1.0, size=(100, 2))
        evaluation = rng.normal(5.0, 1.0, size=(100, 2))
        s = fit_standardizer(train)
        assert abs(s.transform(evaluation).mean()) > 1.0

    def test_empty_input_rejected(self):
        with pytest.raises(PreprocessError):
            fit_standardizer(np.empty((0, 3)))

    def test_arity_mismatch_rejected(self):
        s = fit_standardizer(np.ones((4, 3)))
        with pytest.raises(PreprocessError, match="arity"):
            s.transform(np.ones((4, 2)))

    def test_json_round_trip(self):
        s = fit_standardizer(np.random.default_rng(4).normal(size=(10, 3)),
                             names=("a", "b", "c"))
        back = Standardizer.from_json(s.to_json())
        np.testing.assert_array_equal(back.mean, s.mean)
        np.testing.assert_array_equal(back.std, s.std)
        assert back.names == s.names


class TestWindows:
    def test_seven_rows_w4_v0(self):
        batch = make_windows(table_from([7]), 4, 0)
        assert len(batch) == 2
        assert batch.mask[0].all()
        np.testing.assert_array_equal(batch.mask[1], [True, True, True, False])
        np.testing.assert_array_equal(batch.provenance[1, :, 1], [4, 5, 6, -1])
        assert (batch.windows[1, 3] == 0).all()
        assert (batch.targets[1, 3] == 0).all()

    def test_six_rows_w4_v2(self):
        batch = make_windows(table_from([6]), 4, 2)
        assert len(batch) == 2
        np.testing.assert_array_equal(batch.provenance[0, :, 1], [0, 1, 2, 3])
        np.testing.assert_array_equal(batch.provenance[1, :, 1], [2, 3, 4, 5])
        assert batch.mask.all()

    def test_single_row(self):
        batch = make_windows(table_from([1]), 4, 0)
        assert len(batch) == 1
        np.testing.assert_array_equal(batch.mask[0], [True, False, False, False])

    def test_windows_never_span_simulations(self):
        batch = make_windows(table_from([5, 3]), 4, 0)
        for w in range(len(batch)):
            sids = {int(s) for s in batch.provenance[w, :, 0] if s != -1}
            assert len(sids) == 1

    def test_invalid_overlap_rejected(self):
        with pytest.raises(PreprocessError, match="overlap"):
            make_windows(table_from([5]), 4, 4)

    @pytest.mark.parametrize("w,v", [(4, 0), (4, 2), (8, 4), (16, 0)])
    def test_unwindow_identity_on_targets(self, w, v):
        table = table_from([7, 1, 12, 16, 3])
        batch = make_windows(table, w, v)
        per_row = unwindow_aligned(batch.targets, batch.provenance,
                                   table.simulation_ids, table.job_indices)
        assert windowed_keys(batch) == table_keys(table)
        np.testing.assert_array_equal(per_row, table.targets)

    def test_overlap_earliest_window_wins(self):
        table = table_from([6])
        batch = make_windows(table, 4, 2)
        # poison the second window's copy of row 2; earliest window must win
        values = batch.targets.copy()
        values[1, 0] = 999.0
        per_row = unwindow_aligned(values, batch.provenance,
                                   table.simulation_ids, table.job_indices)
        np.testing.assert_array_equal(per_row[2], table.targets[2])

    @pytest.mark.parametrize("sid, job", [(0, 2**32), (0, 2**31), (2**31, 0), (-2, 0)])
    def test_keys_out_of_range_rejected(self, sid, job):
        """(0, 2**32) would pack to the key of (1, 0)."""
        table = table_from([3])
        table.simulation_ids[:] = [1, 1, sid]
        table.job_indices[:] = [0, 1, job]
        batch = make_windows(table, 4, 0)
        # the windows' own keys are checked, not only the requested ones
        with pytest.raises(PreprocessError, match=r"2\*\*31"):
            unwindow_aligned(batch.targets, batch.provenance,
                             table.simulation_ids[:2], table.job_indices[:2])
        with pytest.raises(PreprocessError, match=r"2\*\*31"):
            unwindow_aligned(batch.targets, batch.provenance,
                             table.simulation_ids, table.job_indices)

    @given(n=st.integers(1, 40), w=st.integers(2, 10), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_row_covered(self, n, w, data):
        v = data.draw(st.integers(0, w - 1))
        table = table_from([n])
        batch = make_windows(table, w, v)
        per_row = unwindow_aligned(batch.targets, batch.provenance,
                                   table.simulation_ids, table.job_indices)
        assert windowed_keys(batch) == table_keys(table)
        np.testing.assert_array_equal(per_row, table.targets)
        if v == 0:
            # with no overlap each row appears exactly once
            count = sum(int(m.sum()) for m in batch.mask)
            assert count == n


class TestSplit:
    def test_ten_sims_split_7_3(self):
        split = split_train_eval({i: 100 for i in range(10)}, 0.7, seed=1)
        assert len(split.train_ids) == 7
        assert len(split.eval_ids) == 3

    def test_singleton_group_goes_to_train(self):
        split = split_train_eval({5: 42}, 0.7, seed=0)
        assert split.train_ids == (5,)
        assert split.eval_ids == ()

    def test_deterministic_given_seed(self):
        lengths = {i: (i % 3) * 10 + 10 for i in range(30)}
        a = split_train_eval(lengths, 0.7, seed=9)
        b = split_train_eval(lengths, 0.7, seed=9)
        assert a == b

    def test_split_is_per_length_group(self):
        lengths = {i: 10 for i in range(10)} | {i: 20 for i in range(10, 20)}
        split = split_train_eval(lengths, 0.7, seed=2)
        for length, group in split.groups.items():
            assert len(group["train"]) == 7
            assert len(group["eval"]) == 3

    def test_whole_simulation_on_one_side(self):
        split = split_train_eval({i: 10 for i in range(10)}, 0.7, seed=3)
        assert not set(split.train_ids) & set(split.eval_ids)

    def test_empty_rejected(self):
        with pytest.raises(PreprocessError):
            split_train_eval({}, 0.7, seed=0)

    def test_empty_train_set_rejected(self):
        # round-half-up of 0.3 * 1 is 0 in every singleton group
        with pytest.raises(PreprocessError, match="no training simulation"):
            split_train_eval({0: 20, 1: 50}, 0.3, seed=0)

    def test_bad_fraction_rejected(self):
        with pytest.raises(PreprocessError, match="fraction"):
            split_train_eval({0: 5}, 1.5, seed=0)

import json
import math
import re
from dataclasses import asdict

import numpy as np
import pytest

from simsurrogate.cli import ExperimentManifest, _suite
from simsurrogate.errors import WorkloadError
from simsurrogate.scenarios import _TINY, _heterogeneous_demands
from simsurrogate.workload import (
    DEFAULT_JOB_CLASSES,
    EXTRAPOLATION_JOB_COUNT,
    TRAIN_JOB_COUNTS,
    JobClassSpec,
    generate_workload,
    load_job_classes,
)


def test_homogeneous_demands_identical():
    jobs, ds = generate_workload("homogeneous", 10, 0, 42)
    assert len(jobs) == 10
    assert len({j.flops for j in jobs}) == 1
    assert len({j.output_files_size_bytes for j in jobs}) == 1
    sizes = ds.sizes()
    assert len({sizes[j.input_files[0]] for j in jobs}) == 1
    assert all(j.submission_time_s == 0.0 for j in jobs)
    assert all(j.class_id == 0 for j in jobs)


def test_empty_workload():
    jobs, ds = generate_workload("heterogeneous", 0, 0, 1)
    assert jobs == []
    assert ds.files == ()


def test_negative_job_count_rejected():
    with pytest.raises(WorkloadError, match="nonnegative"):
        generate_workload("homogeneous", -1, 0, 1)


def test_seeded_determinism():
    a = generate_workload("heterogeneous", 50, 3, 99)
    b = generate_workload("heterogeneous", 50, 3, 99)
    assert a == b


def test_different_seeds_differ():
    a, _ = generate_workload("heterogeneous", 50, 3, 99)
    b, _ = generate_workload("heterogeneous", 50, 3, 100)
    assert a != b


def test_different_simulations_are_independent_streams():
    a, _ = generate_workload("heterogeneous", 20, 0, 7)
    b, _ = generate_workload("heterogeneous", 20, 1, 7)
    assert [j.flops for j in a] != [j.flops for j in b]


def test_heterogeneous_submission_times_strictly_increasing():
    jobs, _ = generate_workload("heterogeneous", 200, 0, 5)
    times = [j.submission_time_s for j in jobs]
    assert all(b > a for a, b in zip(times, times[1:]))


def test_all_samples_strictly_positive():
    jobs, ds = generate_workload("heterogeneous", 500, 0, 11)
    assert all(j.flops > 0 for j in jobs)
    assert all(j.output_files_size_bytes > 0 for j in jobs)
    assert all(f.size_bytes > 0 for f in ds.files)


def test_class_ids_cover_all_classes():
    jobs, _ = generate_workload("heterogeneous", 300, 0, 1)
    assert set(j.class_id for j in jobs) == set(range(5))


def reference_heterogeneous_demands(rng, n_jobs, classes):
    """The heterogeneous sampler written with numpy's own scalar draws."""
    def lognormal(median, sigma):
        return max(float(rng.lognormal(mean=np.log(median), sigma=sigma)), _TINY)

    t = 0.0
    for _ in range(n_jobs):
        cls = classes[int(rng.integers(len(classes)))]
        t += max(float(rng.exponential(cls.mean_interarrival_s)), _TINY)
        flops = lognormal(cls.flops_median, cls.flops_sigma)
        in_size = lognormal(cls.input_size_median_bytes, cls.input_size_sigma)
        out_size = lognormal(cls.output_size_median_bytes, cls.output_size_sigma)
        yield t, flops, in_size, out_size, cls.class_id


# sigma 0, and medians and gaps under _TINY, beside an ordinary class
EDGE_CLASSES = (
    JobClassSpec(0, 1e-12, 0.0, 3.0e8, 0.0, 1e-10, 0.5, 1e-11),
    JobClassSpec(7, 2.5e10, 1.5, 5e-10, 2.0, 4.0e7, 0.0, 10.0),
)


@pytest.mark.parametrize("classes", [DEFAULT_JOB_CLASSES, EDGE_CLASSES],
                         ids=["default", "edge"])
@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
def test_heterogeneous_draws_match_numpy_samplers(seed, classes):
    """The scalar draws give every bit numpy's exponential and lognormal
    give, and leave the generator in the same state."""
    fast, slow = (np.random.Generator(np.random.Philox(key=seed)) for _ in range(2))
    got = list(_heterogeneous_demands(fast, 3000, classes))
    assert repr(got) == repr(list(reference_heterogeneous_demands(slow, 3000, classes)))
    assert repr(fast.bit_generator.state) == repr(slow.bit_generator.state)
    if classes is EDGE_CLASSES:
        assert {_TINY} <= {v for job in got for v in job[1:4]}


def test_suite_contents():
    suite = _suite(ExperimentManifest(scenario="homogeneous", sims_per_batch=1000))
    train = [e for e in suite if e.kind == "train"]
    extra = [e for e in suite if e.kind == "extrapolation"]
    assert tuple(e.n_jobs for e in train) == TRAIN_JOB_COUNTS
    assert all(e.n_simulations == 1000 for e in train)
    assert len(extra) == 1
    assert extra[0].n_jobs == EXTRAPOLATION_JOB_COUNT
    assert extra[0].n_simulations == 10
    assert all(e.n_jobs >= 1 and e.n_simulations >= 1 for e in suite)


def test_suite_sims_per_batch_override():
    suite = _suite(ExperimentManifest(sims_per_batch=20))
    assert all(e.n_simulations == 20 for e in suite if e.kind == "train")


def test_job_classes_round_trip(tmp_path):
    path = tmp_path / "classes.json"
    path.write_text(json.dumps({"classes": [asdict(c) for c in DEFAULT_JOB_CLASSES]}))
    assert load_job_classes(path) == DEFAULT_JOB_CLASSES


CLASS_0 = asdict(DEFAULT_JOB_CLASSES[0])


@pytest.mark.parametrize("text, message", [
    ("{not json", "not valid JSON"),
    (json.dumps([CLASS_0]), "nonempty 'classes' list"),
    (json.dumps({"classes": []}), "nonempty 'classes' list"),
    (json.dumps({"classes": [CLASS_0 | {"oops": 1}]}), "unknown keys ['oops']"),
    (json.dumps({"classes": [{k: v for k, v in CLASS_0.items() if k != "flops_sigma"}]}),
     "missing keys ['flops_sigma']"),
    (json.dumps({"classes": [CLASS_0 | {"flops_median": "big"}]}), "must be a number"),
    (json.dumps({"classes": [CLASS_0 | {"input_size_median_bytes": 0}]}), "must be positive"),
    (json.dumps({"classes": [CLASS_0 | {"mean_interarrival_s": -1.0}]}), "must be positive"),
    (json.dumps({"classes": [CLASS_0 | {"output_size_sigma": -0.1}]}), "sigmas nonnegative"),
    (json.dumps({"classes": [CLASS_0 | {"mean_interarrival_s": math.inf}]}), "must be finite"),
    (json.dumps({"classes": [CLASS_0 | {"flops_sigma": math.nan}]}), "must be finite"),
    (json.dumps({"classes": [CLASS_0 | {"flops_median": "BIG"}]}).replace('"BIG"', "1e400"),
     "must be finite"),
    (json.dumps({"classes": [CLASS_0 | {"class_id": 1.5}]}), "class_id must be an integer"),
    (json.dumps({"classes": [CLASS_0 | {"class_id": 2.0}]}), "class_id must be an integer"),
])
def test_bad_job_class_table_rejected(tmp_path, text, message):
    path = tmp_path / "classes.json"
    path.write_text(text)
    with pytest.raises(WorkloadError, match=re.escape(message)):
        load_job_classes(path)


def test_zero_sigma_accepted(tmp_path):
    path = tmp_path / "classes.json"
    path.write_text(json.dumps({"classes": [CLASS_0 | {"flops_sigma": 0}]}))
    assert load_job_classes(path)[0].flops_sigma == 0

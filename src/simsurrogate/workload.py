"""Seeded workload generation for the registered scenarios.

Sampling uses numpy's Philox counter-based generator keyed by
``(seed, scenario, simulation_id)`` so every simulation's workload is an
independent, portable, bit-reproducible stream.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .errors import WorkloadError
from .scenarios import get_scenario


def slot_init(cls):
    """Give a frozen slotted dataclass an ``__init__`` that writes each slot
    through its member descriptor, instead of the generated one's
    ``object.__setattr__`` call per field (about half the cost per record).

    The signature, its annotations and the arity errors stay the dataclass's.
    Only classes whose fields all take a required argument, with no
    ``__post_init__``, qualify.
    """
    flds = fields(cls)
    if (hasattr(cls, "__post_init__")
            or any(not f.init or f.default is not MISSING or f.default_factory is not MISSING
                   for f in flds)):
        raise TypeError(f"{cls.__name__}: slot_init needs required fields and no __post_init__")
    names = [f.name for f in flds]
    setters = ", ".join(f"_set_{n}" for n in names)
    body = "".join(f"        _set_{n}(self, {n})\n" for n in names)
    namespace: dict = {}
    exec(f"def make({setters}):\n"
         f"    def __init__(self, {', '.join(names)}):\n{body}"
         f"    return __init__\n", namespace)
    init = namespace["make"](*(cls.__dict__[n].__set__ for n in names))
    init.__qualname__ = cls.__init__.__qualname__
    init.__annotations__ = dict(cls.__init__.__annotations__)
    cls.__init__ = init
    return cls


@slot_init
@dataclass(frozen=True, slots=True)
class JobSpec:
    simulation_id: int
    job_index: int
    submission_time_s: float
    flops: float
    input_files: tuple[str, ...]
    output_files_size_bytes: float
    class_id: int


@slot_init
@dataclass(frozen=True, slots=True)
class FileSpec:
    file_id: str
    size_bytes: float
    location: str


@dataclass(frozen=True, slots=True)
class DatasetSpec:
    files: tuple[FileSpec, ...]

    def sizes(self) -> dict[str, float]:
        return {f.file_id: f.size_bytes for f in self.files}


@dataclass(frozen=True)
class JobClassSpec:
    """Lognormal resource demands plus exponential interarrival gaps."""

    class_id: int
    flops_median: float
    flops_sigma: float
    input_size_median_bytes: float
    input_size_sigma: float
    output_size_median_bytes: float
    output_size_sigma: float
    mean_interarrival_s: float


# Pinned parameters of the five heterogeneous job classes.  Flops medians span
# two decades so compute times are strongly multimodal; input sizes and
# interarrival gaps put the shared storage uplink near critical load, which
# makes transfer times contention-dominated.
DEFAULT_JOB_CLASSES: tuple[JobClassSpec, ...] = (
    JobClassSpec(0, 1.0e10, 0.25, 2.0e8, 0.4, 2.0e7, 0.4, 8.0),
    JobClassSpec(1, 3.2e10, 0.25, 4.0e8, 0.4, 4.0e7, 0.4, 9.0),
    JobClassSpec(2, 1.0e11, 0.25, 7.0e8, 0.4, 7.0e7, 0.4, 10.0),
    JobClassSpec(3, 3.2e11, 0.25, 1.2e9, 0.4, 1.2e8, 0.4, 11.0),
    JobClassSpec(4, 1.0e12, 0.25, 2.0e9, 0.4, 2.0e8, 0.4, 12.0),
)


_POSITIVE_CLASS_KEYS = ("flops_median", "input_size_median_bytes",
                        "output_size_median_bytes", "mean_interarrival_s")
_SIGMA_CLASS_KEYS = ("flops_sigma", "input_size_sigma", "output_size_sigma")


def load_job_classes(path) -> tuple[JobClassSpec, ...]:
    """Parse a job-class table file; any defect in it is a WorkloadError."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise WorkloadError(f"job-class table {path} is not valid JSON: {exc}") from None
    entries = doc.get("classes") if isinstance(doc, dict) else None
    if not isinstance(entries, list) or not entries:
        raise WorkloadError(f"job-class table {path} needs a nonempty 'classes' list")
    keys = {f.name for f in fields(JobClassSpec)}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise WorkloadError(f"job class {i} is not an object")
        unknown, missing = sorted(set(entry) - keys), sorted(keys - set(entry))
        if unknown or missing:
            raise WorkloadError(f"job class {i}: unknown keys {unknown}, missing keys {missing}")
        if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in entry.values()):
            raise WorkloadError(f"job class {i}: every value must be a number")
        try:  # float() of an integer literal beyond float range overflows
            finite = all(math.isfinite(float(v)) for v in entry.values())
        except OverflowError:
            finite = False
        if not finite:
            raise WorkloadError(f"job class {i}: every value must be finite")
        if not isinstance(entry["class_id"], int):
            raise WorkloadError(f"job class {i}: class_id must be an integer")
        if (any(not entry[k] > 0 for k in _POSITIVE_CLASS_KEYS)
                or any(not entry[k] >= 0 for k in _SIGMA_CLASS_KEYS)):
            raise WorkloadError(f"job class {i}: medians and the mean interarrival gap "
                                f"must be positive and sigmas nonnegative")
    return tuple(JobClassSpec(**entry) for entry in entries)


def generate_workload(
    scenario: str,
    n_jobs: int,
    simulation_id: int,
    seed: int,
    classes: tuple[JobClassSpec, ...] = DEFAULT_JOB_CLASSES,
) -> tuple[list[JobSpec], DatasetSpec]:
    """Generate one simulation's jobs and initial file placement."""
    entry = get_scenario(scenario)
    if n_jobs < 0:
        raise WorkloadError(f"n_jobs must be nonnegative, got {n_jobs}")
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64((simulation_id << 1) | entry.code)], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    jobs: list[JobSpec] = []
    files: list[FileSpec] = []
    for i, (submit, flops, in_size, out_size, class_id) in enumerate(
            entry.demands(rng, n_jobs, classes)):
        file_id = f"sim{simulation_id}_job{i}_in"
        files.append(FileSpec(file_id, in_size, entry.storage))
        jobs.append(JobSpec(simulation_id, i, submit, flops, (file_id,), out_size, class_id))
    return jobs, DatasetSpec(files=tuple(files))


@dataclass(frozen=True)
class SuiteEntry:
    n_jobs: int
    n_simulations: int
    kind: str  # "train" or "extrapolation"

    def __post_init__(self):
        if self.n_jobs < 0 or self.n_simulations < 0:
            raise WorkloadError(f"n_jobs and n_simulations must be nonnegative, got "
                                f"{self.n_jobs} and {self.n_simulations}")


TRAIN_JOB_COUNTS = (1, 10, 20, 50, 100, 250, 500, 1000, 1500, 2000)
EXTRAPOLATION_JOB_COUNT = 10_000
EXTRAPOLATION_SIMULATIONS = 10


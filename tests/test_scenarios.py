"""The preset scenarios, pinned to golden digests and run under the engine's
invariant audit."""

import hashlib

import pytest

from simsurrogate.engine import run_simulation
from simsurrogate.errors import WorkloadError
from simsurrogate.platform import builtin_platform, serialize_platform
from simsurrogate.scenarios import SCENARIOS, get_scenario
from simsurrogate.workload import generate_workload


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# sha256 of serialize_platform(builtin_platform(name)), and of
# repr((jobs, datasets, traces)) for 1,000 jobs of simulation 0 at seed 0.
# The heterogeneous run digest is keyed to numpy's Philox bit generator and
# the Generator's integers, exponential and lognormal streams: a numpy release
# that changes any of those changes this digest with no change to this code.
GOLDEN = {
    "homogeneous": (
        "3e7b4dd2432c356448eb81f275e4f414adc91d01f6dbf52bcd5afb148948a466",
        "8f7f73d6a6449ce936cb7a6c59a420629ff39152687e657e11fa0c930d61a43a",
    ),
    "heterogeneous": (
        "5617bb7d0567f86720d834f3bea3fbce027ab6ceb2a2d7a829f3440cf3a825c3",
        "bebc31dec09aaa8143a666a5e55c32f46d43446f7a2464360dbe58c74937c8ee",
    ),
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_preset_is_bit_identical_and_passes_audit(scenario):
    platform_digest, run_digest = GOLDEN[scenario]
    platform = builtin_platform(scenario)
    assert sha256(serialize_platform(platform)) == platform_digest
    jobs, datasets = generate_workload(scenario, 1000, 0, 0)
    traces = run_simulation(platform, jobs, datasets, audit=True)
    assert sha256(repr((jobs, datasets, traces))) == run_digest


def test_philox_codes_are_distinct():
    codes = [s.code for s in SCENARIOS.values()]
    assert len(set(codes)) == len(codes)


@pytest.mark.parametrize("name", ["galactic", ["heterogeneous"]])
def test_unknown_name_is_a_workload_error(name):
    with pytest.raises(WorkloadError, match="unknown scenario"):
        get_scenario(name)

"""The preset scenarios, pinned to golden digests and run under the engine's
invariant audit."""

import hashlib
from dataclasses import replace

import pytest

from simsurrogate.engine import run_simulation
from simsurrogate.errors import WorkloadError
from simsurrogate.platform import builtin_platform, platform_from_doc, serialize_platform
from simsurrogate.scenarios import SCENARIOS, get_scenario
from simsurrogate.workload import generate_workload
from test_engine import force_eager_rates


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


# Longer runs pinned the same way: sha256 of repr(traces) for simulation 0 at
# seed 1.  "probe-star" is 1,000 heterogeneous jobs, submissions scaled by
# 11/48, on a star of 48 24-core workers behind one shared storage uplink: it
# keeps dozens of routes open at once, which neither preset does.
RUN_GOLDEN = {
    "homogeneous-10k": "a18847619157452974be8fd52a02a2f1f726a592a5f93b03781bb03a72c5deec",
    "heterogeneous-10k": "fb723e6ac87ff18e7cf88ce707e8a38c23289233571e34dcd2b335fae84a311a",
    "probe-star": "a24f3e7c8c6b2d17bb39c73b99991746296e0fabb708736648f1bc22098a830e",
}
PROBE_WORKERS = 48


def probe_star_platform():
    storage = get_scenario("heterogeneous").storage
    workers = [f"w{i:02d}" for i in range(PROBE_WORKERS)]
    nodes = [{"id": w, "role": "worker", "cores": 24, "core_speed_flops": 1e9}
             for w in workers]
    nodes.append({"id": storage, "role": "storage", "disk_read_bw_bps": 2.5e8,
                  "disk_write_bw_bps": 2.5e8, "storage_capacity_bytes": 10**15})
    links = [{"id": f"link_{n}", "bandwidth_bps": 1.25e8, "latency_s": 1e-4}
             for n in workers + [storage]]
    routes = []
    for w in workers:
        hops = [f"link_{storage}", f"link_{w}"]
        routes += [{"src": storage, "dst": w, "links": hops},
                   {"src": w, "dst": storage, "links": hops[::-1]}]
    return platform_from_doc({"nodes": nodes, "links": links, "routes": routes})


@pytest.fixture(scope="module")
def hetero_10k():
    jobs, datasets = generate_workload("heterogeneous", 10_000, 0, 1)
    platform = builtin_platform("heterogeneous")
    return platform, jobs, datasets, run_simulation(platform, jobs, datasets)


@pytest.fixture(scope="module")
def homog_10k():
    jobs, datasets = generate_workload("homogeneous", 10_000, 0, 1)
    platform = builtin_platform("homogeneous")
    return platform, jobs, datasets, run_simulation(platform, jobs, datasets)


def test_homogeneous_10k_is_bit_identical(homog_10k):
    assert sha256(repr(homog_10k[3])) == RUN_GOLDEN["homogeneous-10k"]


def test_heterogeneous_10k_is_bit_identical(hetero_10k):
    assert sha256(repr(hetero_10k[3])) == RUN_GOLDEN["heterogeneous-10k"]


def test_heterogeneous_10k_audit_changes_nothing(hetero_10k):
    platform, jobs, datasets, traces = hetero_10k
    assert run_simulation(platform, jobs, datasets, audit=True) == traces


def test_homogeneous_10k_audit_changes_nothing(homog_10k):
    """The preset where a completion pass finishes about 30 transfers, so the
    rates a pass defers differ most from refreshing them after each finish."""
    platform, jobs, datasets, traces = homog_10k
    assert run_simulation(platform, jobs, datasets, audit=True) == traces


def probe_star_run():
    jobs, datasets = generate_workload("heterogeneous", 1000, 0, 1)
    jobs = [replace(j, submission_time_s=j.submission_time_s * 11 / PROBE_WORKERS)
            for j in jobs]
    return probe_star_platform(), jobs, datasets


def test_probe_star_is_bit_identical():
    traces = run_simulation(*probe_star_run())
    assert sha256(repr(traces)) == RUN_GOLDEN["probe-star"]


@pytest.mark.parametrize("case", ["probe-star", "homogeneous", "heterogeneous"])
def test_lazy_rates_match_eager(monkeypatch, case):
    """Rates computed when next read give the traces that refreshing them after
    every transfer start and finish gives, on the probe star and on 2,000 jobs
    of each preset."""
    if case == "probe-star":
        run = probe_star_run()
    else:
        run = (builtin_platform(case), *generate_workload(case, 2000, 0, 1))
    lazy = run_simulation(*run)
    force_eager_rates(monkeypatch)
    assert run_simulation(*run) == lazy

"""The scenario registry: one entry per built-in scenario.

An entry holds everything that distinguishes one scenario from another: the
code that keys its Philox workload streams, its preset platform (built as the
`PlatformSpec` the engine reads), the storage node that holds its input
files, its per-job demand sampler, and the feature columns a surrogate sees.
No other module branches on a scenario's name; they look the entry up with
``get_scenario``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import WorkloadError
from .platform import SCHEDULER, STORAGE, WORKER, LinkSpec, NodeSpec, PlatformSpec

# Preset constants.  The presets pin every quantity the scenario layouts leave
# open so simulated traces are bit-reproducible.
INTRA_SITE_BW_BPS = 1.25e8  # 1 Gb/s
INTRA_SITE_LATENCY_S = 1e-4
INTER_DC_BW_BPS = 1.25e9  # 10 Gb/s
INTER_DC_LATENCY_S = 1e-2
STORAGE_DISK_BW_BPS = 2.5e8
WORKER_SPEED_FLOPS = 1e9
# The 12-core node runs at half speed so per-job compute times are bimodal
# instead of a single constant value.
SLOW_WORKER_SPEED_FLOPS = 5e8
DC2_WORKER_SPEED_FLOPS = 2e9

# Fixed demands of the homogeneous scenario.
HOMOGENEOUS_FLOPS = 1e11
HOMOGENEOUS_INPUT_BYTES = 1e9
HOMOGENEOUS_OUTPUT_BYTES = 1e8

HOMOGENEOUS_STORAGE = "storage0"
HETEROGENEOUS_STORAGE = "dc1_storage"

_TINY = 1e-9

# One job's demands: (submission time s, flops, input bytes, output bytes, class id).
Demand = tuple[float, float, float, float, int]


@dataclass(frozen=True)
class Scenario:
    code: int  # low bit of the Philox key; fixed so workload streams never change
    platform: Callable[[], PlatformSpec]  # builds the preset platform
    storage: str  # node id holding every job's input file
    # (rng, n_jobs, job classes) -> one Demand per job, in job order
    demands: Callable[[np.random.Generator, int, tuple], Iterator[Demand]]
    features: tuple[str, ...]  # model feature columns, in order


def _worker(node_id: str, cores: int, speed: float) -> NodeSpec:
    return NodeSpec(node_id, WORKER, cores, speed)


def _storage(node_id: str) -> NodeSpec:
    return NodeSpec(node_id, STORAGE, disk_read_bw_bps=STORAGE_DISK_BW_BPS,
                    disk_write_bw_bps=STORAGE_DISK_BW_BPS)


def _link(link_id: str, bandwidth: float = INTRA_SITE_BW_BPS,
          latency: float = INTRA_SITE_LATENCY_S) -> LinkSpec:
    return LinkSpec(link_id, bandwidth, latency)


def _star(nodes: list[NodeSpec], links: list[LinkSpec], storage: str,
          paths: dict[str, list[str]]) -> PlatformSpec:
    """A platform routing `storage` to each worker along the links in
    `paths[worker]` and back along the same links reversed."""
    routes = {}
    for worker, hops in paths.items():
        routes[(storage, worker)] = tuple(hops)
        routes[(worker, storage)] = tuple(hops[::-1])
    return PlatformSpec(tuple(nodes), tuple(links), routes)


def _homogeneous_platform() -> PlatformSpec:
    """One site: three workers in a star around one storage node."""
    workers = [_worker("worker0", 24, WORKER_SPEED_FLOPS),
               _worker("worker1", 24, WORKER_SPEED_FLOPS),
               _worker("worker2", 12, SLOW_WORKER_SPEED_FLOPS)]
    storage = _storage(HOMOGENEOUS_STORAGE)
    nodes = workers + [NodeSpec("scheduler0", SCHEDULER), storage]
    return _star(nodes, [_link(f"link_{n.id}") for n in workers + [storage]],
                 HOMOGENEOUS_STORAGE,
                 {w.id: [f"link_{HOMOGENEOUS_STORAGE}", f"link_{w.id}"] for w in workers})


def _heterogeneous_platform() -> PlatformSpec:
    """Ten workers beside the storage node in one datacenter, and one large
    worker in a second datacenter behind the inter-DC link."""
    dc1 = [_worker(f"dc1_worker{i:02d}", 42, WORKER_SPEED_FLOPS) for i in range(10)]
    dc2 = _worker("dc2_worker0", 200, DC2_WORKER_SPEED_FLOPS)
    storage = _storage(HETEROGENEOUS_STORAGE)
    nodes = dc1 + [dc2, storage, NodeSpec("dc1_scheduler", SCHEDULER)]
    links = [_link(f"link_{n.id}") for n in dc1 + [dc2, storage]]
    links.append(_link("link_interdc", INTER_DC_BW_BPS, INTER_DC_LATENCY_S))
    uplink = f"link_{HETEROGENEOUS_STORAGE}"
    paths = {w.id: [uplink, f"link_{w.id}"] for w in dc1}
    paths[dc2.id] = [uplink, "link_interdc", f"link_{dc2.id}"]
    return _star(nodes, links, HETEROGENEOUS_STORAGE, paths)


def _homogeneous_demands(rng: np.random.Generator, n_jobs: int,
                         classes: tuple) -> Iterator[Demand]:
    """Identical jobs, all submitted at t=0; draws nothing from `rng`."""
    return itertools.repeat((0.0, HOMOGENEOUS_FLOPS, HOMOGENEOUS_INPUT_BYTES,
                             HOMOGENEOUS_OUTPUT_BYTES, 0), n_jobs)


def _heterogeneous_demands(rng: np.random.Generator, n_jobs: int,
                           classes: tuple) -> Iterator[Demand]:
    """A uniformly drawn class per job, an exponential gap after the previous
    submission, and lognormal flops, input and output sizes.

    The draws are numpy's own, written out on scalars: `exponential(scale)`
    is `scale * standard_exponential()` and `lognormal(mean, sigma)` is
    `exp(mean + sigma * standard_normal())`.  Each log-median is taken once
    with `np.log`, as `lognormal`'s callers passed it, so every bit matches.
    """
    params = [(c.mean_interarrival_s,
               float(np.log(c.flops_median)), c.flops_sigma,
               float(np.log(c.input_size_median_bytes)), c.input_size_sigma,
               float(np.log(c.output_size_median_bytes)), c.output_size_sigma,
               c.class_id) for c in classes]
    integers, gap, normal, exp = (rng.integers, rng.standard_exponential,
                                  rng.standard_normal, math.exp)
    n_classes = len(classes)
    t = 0.0
    for _ in range(n_jobs):
        scale, mu_f, s_f, mu_i, s_i, mu_o, s_o, class_id = params[int(integers(n_classes))]
        t += max(scale * gap(), _TINY)
        flops = max(exp(mu_f + s_f * normal()), _TINY)
        in_size = max(exp(mu_i + s_i * normal()), _TINY)
        out_size = max(exp(mu_o + s_o * normal()), _TINY)
        yield t, flops, in_size, out_size, class_id


# simulation_id is carried for bookkeeping but never fed to a model;
# job_index is a model feature.
_BASE_FEATURES = ("job_index", "flops", "input_files_size_bytes", "output_files_size_bytes")

SCENARIOS: dict[str, Scenario] = {
    "homogeneous": Scenario(0, _homogeneous_platform, HOMOGENEOUS_STORAGE,
                            _homogeneous_demands, _BASE_FEATURES),
    # Submission times vary only here, so only here are they a feature.
    "heterogeneous": Scenario(1, _heterogeneous_platform, HETEROGENEOUS_STORAGE,
                              _heterogeneous_demands, _BASE_FEATURES + ("submission_time_s",)),
}


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except (KeyError, TypeError):
        raise WorkloadError(
            f"unknown scenario {name!r}; expected one of {tuple(SCENARIOS)}") from None

from dataclasses import replace

import pytest

from simsurrogate.errors import PlatformValidationError, WorkloadError
from simsurrogate.platform import PlatformSpec, builtin_platform, validate_platform


def test_homogeneous_preset_layout():
    spec = builtin_platform("homogeneous")
    assert len(spec.nodes) == 5
    workers = spec.workers()
    assert sorted(w.cores for w in workers) == [12, 24, 24]
    assert sum(w.cores for w in workers) == 60
    assert len(spec.storage_nodes()) == 1
    assert len([n for n in spec.nodes if n.role == "scheduler"]) == 1


def test_heterogeneous_preset_core_counts():
    spec = builtin_platform("heterogeneous")
    dc1 = [w for w in spec.workers() if w.id.startswith("dc1")]
    dc2 = [w for w in spec.workers() if w.id.startswith("dc2")]
    assert sum(w.cores for w in dc1) == 420
    assert sum(w.cores for w in dc2) == 200
    # 420 total over ten identical workers
    assert len(dc1) == 10
    assert all(w.cores == 42 for w in dc1)


def test_presets_validate_and_route_storage_to_workers():
    for scenario in ("homogeneous", "heterogeneous"):
        spec = builtin_platform(scenario)
        validate_platform(spec)
        for s in spec.storage_nodes():
            for w in spec.workers():
                assert (s.id, w.id) in spec.routes
                assert (w.id, s.id) in spec.routes


def _with_node(spec: PlatformSpec, node_id: str, **changes) -> PlatformSpec:
    return replace(spec, nodes=tuple(replace(n, **changes) if n.id == node_id else n
                                     for n in spec.nodes))


def _with_link(spec: PlatformSpec, link_id: str, **changes) -> PlatformSpec:
    return replace(spec, links=tuple(replace(l, **changes) if l.id == link_id else l
                                     for l in spec.links))


def _without_route(spec: PlatformSpec, src: str, dst: str) -> PlatformSpec:
    return replace(spec, routes={k: v for k, v in spec.routes.items() if k != (src, dst)})


# One case per invariant of validate_platform, each a change to the
# homogeneous preset (worker0..2, scheduler0, storage0; a link_<id> per
# worker and storage node) that breaks that invariant alone.
BROKEN = {
    "duplicate-node": (lambda s: replace(s, nodes=s.nodes + s.nodes[:1]),
                       "node ids must be unique"),
    "duplicate-link": (lambda s: replace(s, links=s.links + s.links[:1]),
                       "link ids must be unique"),
    "unknown-role": (lambda s: _with_node(s, "worker0", role="gateway"),
                     "node worker0: unknown role 'gateway'"),
    "scheduler-cores": (lambda s: _with_node(s, "scheduler0", cores=4),
                        r"node scheduler0: cores > 0 iff role is worker"),
    "worker-speed": (lambda s: _with_node(s, "worker2", core_speed_flops=0.0),
                     "node worker2: worker core_speed must be positive"),
    "storage-disk": (lambda s: _with_node(s, "storage0", disk_write_bw_bps=-1.0),
                     "node storage0: storage disk bandwidths must be positive"),
    "zero-bandwidth": (lambda s: _with_link(s, "link_worker0", bandwidth_bps=0.0),
                       "link link_worker0: bandwidth must be positive"),
    "negative-latency": (lambda s: _with_link(s, "link_storage0", latency_s=-1e-4),
                         "link link_storage0: latency must be nonnegative"),
    "unknown-node": (lambda s: replace(s, routes={**s.routes, ("storage0", "ghost"): ()}),
                     r"route \(storage0, ghost\): references unknown node"),
    "dangling-link": (lambda s: replace(s, routes={**s.routes,
                                                   ("storage0", "worker0"): ("nonexistent",)}),
                      r"route \(storage0, worker0\): dangling link id 'nonexistent'"),
    "missing-input-route": (lambda s: _without_route(s, "storage0", "worker1"),
                            "missing route from storage storage0 to worker worker1"),
    "missing-output-route": (lambda s: _without_route(s, "worker1", "storage0"),
                             "missing route from worker worker1 to storage storage0"),
}


@pytest.mark.parametrize("case", BROKEN)
def test_broken_preset_is_rejected(case):
    breaks, message = BROKEN[case]
    with pytest.raises(PlatformValidationError, match=message):
        validate_platform(breaks(builtin_platform("homogeneous")))


def test_unknown_scenario():
    with pytest.raises(WorkloadError, match="unknown scenario"):
        builtin_platform("galactic")

import json

import pytest

from simsurrogate.errors import PlatformFormatError, PlatformValidationError, WorkloadError
from simsurrogate.platform import (
    builtin_platform,
    parse_platform,
    serialize_platform,
    validate_platform,
)


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


@pytest.mark.parametrize("scenario", ["homogeneous", "heterogeneous"])
def test_serialize_parse_round_trip(scenario):
    spec = builtin_platform(scenario)
    again = parse_platform(serialize_platform(spec))
    assert again == spec
    # parse -> serialize -> parse is also stable
    assert parse_platform(serialize_platform(again)) == again


def test_parse_reports_syntax_position():
    with pytest.raises(PlatformFormatError, match="line"):
        parse_platform('{"nodes": [,]}')


def test_zero_bandwidth_is_semantic_error():
    doc = json.loads(serialize_platform(builtin_platform("homogeneous")))
    doc["links"][0]["bandwidth_bps"] = 0
    with pytest.raises(PlatformValidationError, match="bandwidth must be positive"):
        parse_platform(json.dumps(doc))


def test_dangling_link_in_route_is_semantic_error():
    doc = json.loads(serialize_platform(builtin_platform("homogeneous")))
    doc["routes"][0]["links"] = ["nonexistent"]
    with pytest.raises(PlatformValidationError, match="dangling link"):
        parse_platform(json.dumps(doc))


def test_missing_storage_worker_route_rejected():
    doc = json.loads(serialize_platform(builtin_platform("homogeneous")))
    doc["routes"] = doc["routes"][1:]
    with pytest.raises(PlatformValidationError, match="missing route"):
        parse_platform(json.dumps(doc))


def test_scheduler_with_cores_rejected():
    doc = json.loads(serialize_platform(builtin_platform("homogeneous")))
    for n in doc["nodes"]:
        if n["role"] == "scheduler":
            n["cores"] = 4
    with pytest.raises(PlatformValidationError, match="cores > 0 iff"):
        parse_platform(json.dumps(doc))


def test_unknown_scenario():
    with pytest.raises(WorkloadError, match="unknown scenario"):
        builtin_platform("galactic")

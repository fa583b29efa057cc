"""Platform descriptions: nodes, links, and routes between them.

A `PlatformSpec` holds its nodes, its links, and the ordered link ids of
each (source, destination) route.  Field names carry their unit as a suffix
(``core_speed_flops``, ``bandwidth_bps``, ``latency_s``).  Each scenario in
the registry (``scenarios.py``) builds its preset platform as a `PlatformSpec`;
`validate_platform` checks the invariants the engine relies on, and
`serialize_platform` gives the JSON text the preset digests hash.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .errors import PlatformValidationError

WORKER = "worker"
SCHEDULER = "scheduler"
STORAGE = "storage"
_ROLES = (WORKER, SCHEDULER, STORAGE)


@dataclass(frozen=True)
class NodeSpec:
    id: str
    role: str
    cores: int = 0
    core_speed_flops: float = 0.0
    disk_read_bw_bps: float = 0.0
    disk_write_bw_bps: float = 0.0


@dataclass(frozen=True)
class LinkSpec:
    id: str
    bandwidth_bps: float
    latency_s: float


@dataclass(frozen=True)
class PlatformSpec:
    """Immutable after construction; safe to share read-only."""

    nodes: tuple[NodeSpec, ...]
    links: tuple[LinkSpec, ...]
    # (src node id, dst node id) -> ordered link ids
    routes: dict[tuple[str, str], tuple[str, ...]] = field(default_factory=dict)

    def workers(self) -> list[NodeSpec]:
        return [n for n in self.nodes if n.role == WORKER]

    def storage_nodes(self) -> list[NodeSpec]:
        return [n for n in self.nodes if n.role == STORAGE]


def validate_platform(spec: PlatformSpec) -> None:
    """Raise PlatformValidationError naming the first violated invariant."""
    node_ids = [n.id for n in spec.nodes]
    if len(set(node_ids)) != len(node_ids):
        raise PlatformValidationError("node ids must be unique")
    link_ids = [l.id for l in spec.links]
    if len(set(link_ids)) != len(link_ids):
        raise PlatformValidationError("link ids must be unique")
    for n in spec.nodes:
        if n.role not in _ROLES:
            raise PlatformValidationError(f"node {n.id}: unknown role {n.role!r}")
        if (n.cores > 0) != (n.role == WORKER):
            raise PlatformValidationError(
                f"node {n.id}: cores > 0 iff role is worker (got cores={n.cores}, role={n.role})"
            )
        if n.role == WORKER and n.core_speed_flops <= 0:
            raise PlatformValidationError(f"node {n.id}: worker core_speed must be positive")
        if n.role == STORAGE and (n.disk_read_bw_bps <= 0 or n.disk_write_bw_bps <= 0):
            raise PlatformValidationError(f"node {n.id}: storage disk bandwidths must be positive")
    for l in spec.links:
        if l.bandwidth_bps <= 0:
            raise PlatformValidationError(f"link {l.id}: bandwidth must be positive")
        if l.latency_s < 0:
            raise PlatformValidationError(f"link {l.id}: latency must be nonnegative")
    known_links = set(link_ids)
    known_nodes = set(node_ids)
    for (src, dst), hops in spec.routes.items():
        if src not in known_nodes or dst not in known_nodes:
            raise PlatformValidationError(f"route ({src}, {dst}): references unknown node")
        for hop in hops:
            if hop not in known_links:
                raise PlatformValidationError(f"route ({src}, {dst}): dangling link id {hop!r}")
    for s in spec.storage_nodes():
        for w in spec.workers():
            if (s.id, w.id) not in spec.routes:
                raise PlatformValidationError(f"missing route from storage {s.id} to worker {w.id}")
            if (w.id, s.id) not in spec.routes:
                raise PlatformValidationError(f"missing route from worker {w.id} to storage {s.id}")


def serialize_platform(spec: PlatformSpec) -> str:
    """JSON text of every node and link field, in declaration order, and of
    every route in `spec.routes` order."""
    doc = {
        "nodes": [asdict(n) for n in spec.nodes],
        "links": [asdict(l) for l in spec.links],
        "routes": [
            {"src": src, "dst": dst, "links": list(hops)}
            for (src, dst), hops in spec.routes.items()
        ],
    }
    return json.dumps(doc, indent=2)


def builtin_platform(scenario: str) -> PlatformSpec:
    """Return a scenario's preset platform, validated."""
    from .scenarios import get_scenario  # scenarios builds its presets from this module

    spec = get_scenario(scenario).platform()
    validate_platform(spec)
    return spec

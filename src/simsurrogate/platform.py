"""Platform descriptions: nodes, links, and routes between them.

A platform is stored as a flat JSON document with top-level keys ``nodes``,
``links`` and ``routes``.  Field names carry their unit as a suffix
(``core_speed_flops``, ``bandwidth_bps``, ``latency_s``).  Each scenario in
the registry (``scenarios.py``) ships its preset platform as such a document.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import PlatformFormatError, PlatformValidationError
from .scenarios import get_scenario

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


def platform_from_doc(doc: dict) -> PlatformSpec:
    """Convert a decoded platform document's fields and validate the result."""
    if not isinstance(doc, dict):
        raise PlatformFormatError("platform document must be a JSON object")
    try:
        nodes = tuple(
            NodeSpec(
                id=str(n["id"]),
                role=str(n["role"]),
                cores=int(n.get("cores", 0)),
                core_speed_flops=float(n.get("core_speed_flops", 0.0)),
                disk_read_bw_bps=float(n.get("disk_read_bw_bps", 0.0)),
                disk_write_bw_bps=float(n.get("disk_write_bw_bps", 0.0)),
            )
            for n in doc.get("nodes", [])
        )
        links = tuple(
            LinkSpec(
                id=str(l["id"]),
                bandwidth_bps=float(l["bandwidth_bps"]),
                latency_s=float(l["latency_s"]),
            )
            for l in doc.get("links", [])
        )
        routes = {
            (str(r["src"]), str(r["dst"])): tuple(str(h) for h in r["links"])
            for r in doc.get("routes", [])
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise PlatformFormatError(f"malformed platform field: {exc!r}") from exc
    spec = PlatformSpec(nodes=nodes, links=links, routes=routes)
    validate_platform(spec)
    return spec


def serialize_platform(spec: PlatformSpec) -> str:
    doc = {
        "nodes": [
            {
                "id": n.id,
                "role": n.role,
                "cores": n.cores,
                "core_speed_flops": n.core_speed_flops,
                "disk_read_bw_bps": n.disk_read_bw_bps,
                "disk_write_bw_bps": n.disk_write_bw_bps,
            }
            for n in spec.nodes
        ],
        "links": [
            {"id": l.id, "bandwidth_bps": l.bandwidth_bps, "latency_s": l.latency_s}
            for l in spec.links
        ],
        "routes": [
            {"src": src, "dst": dst, "links": list(hops)}
            for (src, dst), hops in spec.routes.items()
        ],
    }
    return json.dumps(doc, indent=2)


def builtin_platform(scenario: str) -> PlatformSpec:
    """Return a scenario's preset platform, validated like a user's file."""
    return platform_from_doc(get_scenario(scenario).platform())

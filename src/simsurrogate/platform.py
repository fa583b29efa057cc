"""Platform descriptions: nodes, links, and routes between them.

A platform is stored as a flat JSON document with top-level keys ``nodes``,
``links`` and ``routes``.  Field names carry their unit as a suffix
(``core_speed_flops``, ``bandwidth_bps``, ``latency_s``).  Two presets are
shipped: a small single-site star (``homogeneous``) and a two-data-center
layout (``heterogeneous``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import PlatformFormatError, PlatformValidationError

WORKER = "worker"
SCHEDULER = "scheduler"
STORAGE = "storage"
_ROLES = (WORKER, SCHEDULER, STORAGE)

SCENARIOS = ("homogeneous", "heterogeneous")


@dataclass(frozen=True)
class NodeSpec:
    id: str
    role: str
    cores: int = 0
    core_speed_flops: float = 0.0
    disk_read_bw_bps: float = 0.0
    disk_write_bw_bps: float = 0.0
    storage_capacity_bytes: int = 0


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


def parse_platform(text: str) -> PlatformSpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlatformFormatError(
            f"platform document is not valid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
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
                storage_capacity_bytes=int(n.get("storage_capacity_bytes", 0)),
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
                "storage_capacity_bytes": n.storage_capacity_bytes,
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


# Preset constants.  The presets pin every quantity the scenario layouts leave
# open so simulated traces are bit-reproducible.
INTRA_SITE_BW_BPS = 1.25e8  # 1 Gb/s
INTRA_SITE_LATENCY_S = 1e-4
INTER_DC_BW_BPS = 1.25e9  # 10 Gb/s
INTER_DC_LATENCY_S = 1e-2
STORAGE_DISK_BW_BPS = 2.5e8
STORAGE_CAPACITY_BYTES = 10**15
WORKER_SPEED_FLOPS = 1e9
# The 12-core node runs at half speed so per-job compute times are bimodal
# instead of a single constant value.
SLOW_WORKER_SPEED_FLOPS = 5e8
DC2_WORKER_SPEED_FLOPS = 2e9

HOMOGENEOUS_STORAGE = "storage0"
HETEROGENEOUS_STORAGE = "dc1_storage"


def _star_routes(storage_id: str, worker_ids: list[str], storage_link: str,
                 worker_links: dict[str, str]) -> dict[tuple[str, str], tuple[str, ...]]:
    routes: dict[tuple[str, str], tuple[str, ...]] = {}
    for w in worker_ids:
        routes[(storage_id, w)] = (storage_link, worker_links[w])
        routes[(w, storage_id)] = (worker_links[w], storage_link)
    return routes


def builtin_platform(scenario: str) -> PlatformSpec:
    """Return one of the two preset platforms, already validated."""
    if scenario == "homogeneous":
        workers = [
            NodeSpec("worker0", WORKER, cores=24, core_speed_flops=WORKER_SPEED_FLOPS),
            NodeSpec("worker1", WORKER, cores=24, core_speed_flops=WORKER_SPEED_FLOPS),
            NodeSpec("worker2", WORKER, cores=12, core_speed_flops=SLOW_WORKER_SPEED_FLOPS),
        ]
        nodes = tuple(workers) + (
            NodeSpec("scheduler0", SCHEDULER),
            NodeSpec(
                HOMOGENEOUS_STORAGE,
                STORAGE,
                disk_read_bw_bps=STORAGE_DISK_BW_BPS,
                disk_write_bw_bps=STORAGE_DISK_BW_BPS,
                storage_capacity_bytes=STORAGE_CAPACITY_BYTES,
            ),
        )
        links = tuple(
            LinkSpec(f"link_{n.id}", INTRA_SITE_BW_BPS, INTRA_SITE_LATENCY_S)
            for n in nodes
            if n.role != SCHEDULER
        )
        routes = _star_routes(
            HOMOGENEOUS_STORAGE,
            [w.id for w in workers],
            f"link_{HOMOGENEOUS_STORAGE}",
            {w.id: f"link_{w.id}" for w in workers},
        )
        spec = PlatformSpec(nodes=nodes, links=links, routes=routes)
    elif scenario == "heterogeneous":
        dc1_workers = [
            NodeSpec(f"dc1_worker{i:02d}", WORKER, cores=42, core_speed_flops=WORKER_SPEED_FLOPS)
            for i in range(10)
        ]
        dc2_worker = NodeSpec("dc2_worker0", WORKER, cores=200,
                              core_speed_flops=DC2_WORKER_SPEED_FLOPS)
        storage = NodeSpec(
            HETEROGENEOUS_STORAGE,
            STORAGE,
            disk_read_bw_bps=STORAGE_DISK_BW_BPS,
            disk_write_bw_bps=STORAGE_DISK_BW_BPS,
            storage_capacity_bytes=STORAGE_CAPACITY_BYTES,
        )
        nodes = tuple(dc1_workers) + (dc2_worker, storage, NodeSpec("dc1_scheduler", SCHEDULER))
        links = [LinkSpec(f"link_{w.id}", INTRA_SITE_BW_BPS, INTRA_SITE_LATENCY_S)
                 for w in dc1_workers]
        links.append(LinkSpec("link_dc2_worker0", INTRA_SITE_BW_BPS, INTRA_SITE_LATENCY_S))
        links.append(LinkSpec(f"link_{HETEROGENEOUS_STORAGE}", INTRA_SITE_BW_BPS,
                              INTRA_SITE_LATENCY_S))
        links.append(LinkSpec("link_interdc", INTER_DC_BW_BPS, INTER_DC_LATENCY_S))
        storage_link = f"link_{HETEROGENEOUS_STORAGE}"
        routes: dict[tuple[str, str], tuple[str, ...]] = {}
        for w in dc1_workers:
            routes[(storage.id, w.id)] = (storage_link, f"link_{w.id}")
            routes[(w.id, storage.id)] = (f"link_{w.id}", storage_link)
        routes[(storage.id, dc2_worker.id)] = (storage_link, "link_interdc", "link_dc2_worker0")
        routes[(dc2_worker.id, storage.id)] = ("link_dc2_worker0", "link_interdc", storage_link)
        spec = PlatformSpec(nodes=nodes, links=tuple(links), routes=routes)
    else:
        raise ValueError(f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")
    validate_platform(spec)
    return spec

"""Desk-scale distributed-computing simulator with sequence-model surrogates."""

__version__ = "0.1.0"

from .platform import builtin_platform, parse_platform, serialize_platform
from .workload import generate_workload
from .engine import run_simulation

__all__ = [
    "builtin_platform",
    "parse_platform",
    "serialize_platform",
    "generate_workload",
    "run_simulation",
]

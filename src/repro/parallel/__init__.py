"""Parallel substrate: virtual-time MPI (simmpi), fault injection,
and the runtime determinism sanitizer (a race query on the run's
event graph)."""

from .faults import CrashSpec, FaultPlan, RankFailure, RecvTimeout
from .sanitizer import DeterminismError, Race
from .scheduler import SchedulerDeadlock
from .simmpi import VirtualCluster, VirtualComm, payload_bytes

__all__ = [
    "VirtualCluster",
    "VirtualComm",
    "payload_bytes",
    "SchedulerDeadlock",
    "FaultPlan",
    "CrashSpec",
    "RankFailure",
    "RecvTimeout",
    "DeterminismError",
    "Race",
]

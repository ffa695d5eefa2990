"""Parallel substrate: virtual-time MPI (simmpi), fault injection,
gather-scatter, and the runtime determinism sanitizer."""

from .distributed import DistributedHelmholtz
from .faults import CrashSpec, FaultPlan, RankFailure, RecvTimeout
from .gs import GatherScatter
from .sanitizer import DeterminismError, Race, RaceDetector
from .scheduler import SchedulerDeadlock
from .simmpi import VirtualCluster, VirtualComm, payload_bytes

__all__ = [
    "VirtualCluster",
    "VirtualComm",
    "GatherScatter",
    "DistributedHelmholtz",
    "payload_bytes",
    "SchedulerDeadlock",
    "FaultPlan",
    "CrashSpec",
    "RankFailure",
    "RecvTimeout",
    "DeterminismError",
    "Race",
    "RaceDetector",
]

"""Hardware substrate: CPU and network performance models, machine catalog."""

from .catalog import (
    ALLTOALL_FIGURE_NETWORKS,
    BLAS_FIGURE_MACHINES,
    CPUS,
    MACHINES,
    NETWORKS,
    PINGPONG_FIGURE_NETWORKS,
    MachineSpec,
)
from .cpu import CPUModel, ROUTINES, working_set
from .network import NetworkModel

__all__ = [
    "CPUModel",
    "NetworkModel",
    "MachineSpec",
    "CPUS",
    "NETWORKS",
    "MACHINES",
    "ROUTINES",
    "working_set",
    "BLAS_FIGURE_MACHINES",
    "PINGPONG_FIGURE_NETWORKS",
    "ALLTOALL_FIGURE_NETWORKS",
]

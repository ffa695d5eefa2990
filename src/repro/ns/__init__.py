"""Navier-Stokes solvers: serial 2-D, Fourier-parallel (NekTar-F) and
ALE moving-mesh (NekTar-ALE) analogues."""

from .ale import ALENavierStokes2D
from .forces import BodyForces, ForceRecorder, body_forces
from .nektar2d import NavierStokes2D
from .nektar_f import NekTarF
from .splitting import SplittingScheme, stiffly_stable
from .stages import ALE_GROUPS, STAGE_DESCRIPTIONS, STAGES, group_ale

__all__ = [
    "NavierStokes2D",
    "NekTarF",
    "ALENavierStokes2D",
    "BodyForces",
    "ForceRecorder",
    "body_forces",
    "SplittingScheme",
    "stiffly_stable",
    "STAGES",
    "STAGE_DESCRIPTIONS",
    "ALE_GROUPS",
    "group_ale",
]

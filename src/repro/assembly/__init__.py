"""Assembly layer: dof maps, elemental operators, global systems."""

from .dofmap import DofMap
from .global_system import project_dirichlet
from .operators import elemental_laplacian, elemental_mass
from .space import FunctionSpace

__all__ = [
    "DofMap",
    "FunctionSpace",
    "project_dirichlet",
    "elemental_mass",
    "elemental_laplacian",
]

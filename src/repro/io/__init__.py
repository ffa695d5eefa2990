"""Field output (legacy VTK) and solver checkpointing."""

from .writers import Checkpoint, vertex_velocity_fields, write_vtk

__all__ = ["write_vtk", "Checkpoint", "vertex_velocity_fields"]

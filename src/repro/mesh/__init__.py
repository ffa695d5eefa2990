"""Mesh substrate: unstructured 2-D meshes, generators, mappings."""

from .curved import BlendedQuadMap, circular_arc, make_element_map
from .generators import (
    attach_circular_wall,
    bluff_body_mesh,
    body_fitted_mesh,
    circle_profile,
    naca_profile,
    rectangle_quads,
    wing_mesh,
)
from .mapping import ElementMap, GeomFactors
from .mesh2d import QUAD_EDGES, TRI_EDGES, Mesh2D

__all__ = [
    "Mesh2D",
    "TRI_EDGES",
    "QUAD_EDGES",
    "ElementMap",
    "GeomFactors",
    "rectangle_quads",
    "circle_profile",
    "naca_profile",
    "body_fitted_mesh",
    "bluff_body_mesh",
    "attach_circular_wall",
    "wing_mesh",
    "BlendedQuadMap",
    "circular_arc",
    "make_element_map",
]

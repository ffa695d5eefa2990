"""Curved (iso-parametric) element geometry via transfinite blending.

The paper's discretisation uses "both iso-parametric and
super-parametric representations" — bodies like the cylinder and the
NACA wing are resolved with *curved* element edges, not polygons.  This
module provides Gordon-Hall blended maps for quadrilaterals: the
bilinear vertex map plus, for each curved edge, a blending of the
difference between the true curve and the straight chord:

    x(xi) = x_bilinear(xi) + sum_e blend_e(xi) [c_e(s_e) - chord_e(s_e)]

The correction vanishes at the edge endpoints (curves interpolate the
vertices), so neighbouring elements stay conforming, and an uncurved
element reduces exactly to the bilinear map.

Curves are registered on the mesh as ``mesh.curves[(elem, local_edge)]
= fn`` with ``fn(s)`` mapping the intrinsic edge parameter s in [-1, 1]
to physical (x, y) arrays.  Only quads support curving (the body-fitted
O-grids are all-quad); a curved triangle raises.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .mapping import ElementMap
from .mesh2d import Mesh2D

__all__ = ["CurveFn", "BlendedQuadMap", "make_element_map", "circular_arc"]

CurveFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

# Local edge -> (edge parameter, blend factor) as functions of (xi1, xi2).
_EDGE_PARAM = {
    0: lambda x1, x2: x1,
    1: lambda x1, x2: x2,
    2: lambda x1, x2: x1,
    3: lambda x1, x2: x2,
}
_BLEND = {
    0: lambda x1, x2: 0.5 * (1.0 - x2),
    1: lambda x1, x2: 0.5 * (1.0 + x1),
    2: lambda x1, x2: 0.5 * (1.0 + x2),
    3: lambda x1, x2: 0.5 * (1.0 - x1),
}
_DBLEND = {  # (d/dxi1, d/dxi2) of the blend
    0: (0.0, -0.5),
    1: (0.5, 0.0),
    2: (0.0, 0.5),
    3: (-0.5, 0.0),
}
_DS = {0: (1.0, 0.0), 1: (0.0, 1.0), 2: (1.0, 0.0), 3: (0.0, 1.0)}


def circular_arc(
    p0: np.ndarray, p1: np.ndarray, center=(0.0, 0.0)
) -> CurveFn:
    """The minor circle arc through p0 -> p1 about ``center`` (constant
    radius, angles interpolated linearly in s)."""
    c = np.asarray(center, dtype=np.float64)
    v0, v1 = np.asarray(p0) - c, np.asarray(p1) - c
    r0, r1 = np.hypot(*v0), np.hypot(*v1)
    a0 = np.arctan2(v0[1], v0[0])
    a1 = np.arctan2(v1[1], v1[0])
    da = np.mod(a1 - a0 + np.pi, 2 * np.pi) - np.pi  # minor arc

    def curve(s: np.ndarray):
        s = np.asarray(s, dtype=np.float64)
        t = 0.5 * (1.0 + s)
        ang = a0 + t * da
        rad = r0 + t * (r1 - r0)
        return c[0] + rad * np.cos(ang), c[1] + rad * np.sin(ang)

    return curve


class BlendedQuadMap(ElementMap):
    """Quadrilateral map with curved edges (Gordon-Hall blending)."""

    def __init__(self, coords: np.ndarray, curves: dict[int, CurveFn]):
        super().__init__(coords)
        if self.kind != "quad":
            raise ValueError("curved edges are supported on quads only")
        for le in curves:
            if not 0 <= le <= 3:
                raise ValueError(f"bad local edge {le}")
        self.curves = dict(curves)
        from .mesh2d import QUAD_EDGES

        self._chords = {}
        for le, fn in self.curves.items():
            a, b = QUAD_EDGES[le]
            pa, pb = self.coords[a], self.coords[b]
            # Validate endpoint interpolation.
            xs, ys = fn(np.array([-1.0, 1.0]))
            if not (
                np.allclose([xs[0], ys[0]], pa, atol=1e-9)
                and np.allclose([xs[1], ys[1]], pb, atol=1e-9)
            ):
                raise ValueError(
                    f"edge {le} curve does not interpolate its vertices"
                )
            self._chords[le] = (pa, pb)

    def _corrections(self, xi1, xi2):
        """Per curved edge: (delta_x, delta_y, d(delta)/ds) at points."""
        out = []
        h = 1e-7
        for le, fn in self.curves.items():
            s = _EDGE_PARAM[le](xi1, xi2)
            cx, cy = fn(s)
            pa, pb = self._chords[le]
            lin_x = 0.5 * (1 - s) * pa[0] + 0.5 * (1 + s) * pb[0]
            lin_y = 0.5 * (1 - s) * pa[1] + 0.5 * (1 + s) * pb[1]
            dx, dy = cx - lin_x, cy - lin_y
            cxp, cyp = fn(np.clip(s + h, -1, 1))
            cxm, cym = fn(np.clip(s - h, -1, 1))
            span = np.clip(s + h, -1, 1) - np.clip(s - h, -1, 1)
            ddx = (cxp - cxm) / span - 0.5 * (pb[0] - pa[0])
            ddy = (cyp - cym) / span - 0.5 * (pb[1] - pa[1])
            out.append((le, dx, dy, ddx, ddy))
        return out

    def x(self, xi1, xi2, shape=None):
        xi1 = np.asarray(xi1, dtype=np.float64)
        xi2 = np.asarray(xi2, dtype=np.float64)
        x, y = super().x(xi1, xi2, shape)
        for le, dx, dy, _, _ in self._corrections(xi1, xi2):
            b = _BLEND[le](xi1, xi2)
            x = x + b * dx
            y = y + b * dy
        return x, y

    def jacobian(self, xi1, xi2, shape=None):
        xi1 = np.asarray(xi1, dtype=np.float64)
        xi2 = np.asarray(xi2, dtype=np.float64)
        j = super().jacobian(xi1, xi2, shape)
        for le, dx, dy, ddx, ddy in self._corrections(xi1, xi2):
            b = _BLEND[le](xi1, xi2)
            db1, db2 = _DBLEND[le]
            ds1, ds2 = _DS[le]
            j[:, 0, 0] += db1 * dx + b * ddx * ds1
            j[:, 0, 1] += db2 * dx + b * ddx * ds2
            j[:, 1, 0] += db1 * dy + b * ddy * ds1
            j[:, 1, 1] += db2 * dy + b * ddy * ds2
        return j


def make_element_map(mesh: Mesh2D, elem: int) -> ElementMap:
    """The element's geometric map: blended if any of its edges carry a
    registered curve, plain straight-sided otherwise."""
    coords = mesh.element_coords(elem)
    curves = getattr(mesh, "curves", None) or {}
    local = {
        le: fn for (ei, le), fn in curves.items() if ei == elem
    }
    if not local:
        return ElementMap(coords)
    return BlendedQuadMap(coords, local)

"""Iso-parametric geometric mappings from reference to physical elements.

Straight-sided elements: affine for triangles, bilinear for quads (the
iso-parametric representation at the vertex-mode level).  For each
element, :class:`GeomFactors` tabulates, at the expansion's quadrature
points, everything operator assembly needs: |J| dxi weights and the
inverse-Jacobian entries used to push reference gradients to physical
space.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..spectral.expansions import Expansion2D, TriExpansion
from ..spectral.quadrature import quad_rule, tri_rule

__all__ = ["ElementMap", "GeomFactors", "quadrature_reference", "vertex_shape"]

Array = np.ndarray


def vertex_shape(kind: str, xi1: Array, xi2: Array) -> tuple[Array, Array, Array]:
    """Vertex shape functions of a "tri" or "quad" and their reference
    gradients at the given points, each (nverts, npts)."""
    xi1 = np.asarray(xi1, dtype=np.float64)
    xi2 = np.asarray(xi2, dtype=np.float64)
    if kind == "tri":
        n = np.stack([-0.5 * (xi1 + xi2), 0.5 * (1.0 + xi1), 0.5 * (1.0 + xi2)])
        d1 = np.stack(
            [np.full_like(xi1, -0.5), np.full_like(xi1, 0.5), np.zeros_like(xi1)]
        )
        d2 = np.stack(
            [np.full_like(xi1, -0.5), np.zeros_like(xi1), np.full_like(xi1, 0.5)]
        )
    else:
        h0x, h1x = 0.5 * (1 - xi1), 0.5 * (1 + xi1)
        h0y, h1y = 0.5 * (1 - xi2), 0.5 * (1 + xi2)
        n = np.stack([h0x * h0y, h1x * h0y, h1x * h1y, h0x * h1y])
        d1 = np.stack([-0.5 * h0y, 0.5 * h0y, 0.5 * h1y, -0.5 * h1y])
        d2 = np.stack([-0.5 * h0x, -0.5 * h1x, 0.5 * h1x, 0.5 * h0x])
    return n, d1, d2


@functools.cache
def quadrature_reference(kind: str, nq1d: int) -> tuple[Array, Array, tuple]:
    """(xi1, xi2, vertex_shape there) for the ``nq1d``^2 quadrature
    points of the ``kind`` expansion, in reference (for the triangle:
    un-collapsed) coordinates.  Tabulated once per process, read-only."""
    A, B = (tri_rule if kind == "tri" else quad_rule)(nq1d).points
    if kind == "tri":
        xi1, xi2 = 0.5 * (1.0 + A) * (1.0 - B) - 1.0, B
    else:
        xi1, xi2 = A, B
    shape = vertex_shape(kind, xi1, xi2)
    for table in (xi1, xi2, *shape):
        table.setflags(write=False)
    return xi1, xi2, shape


class ElementMap:
    """Reference -> physical map for one straight-sided element.

    The map is expressed through the element's *vertex shape functions*
    (barycentric for the triangle, bilinear for the quad), which are
    exactly the vertex modes of the matching expansion — an
    iso-parametric representation.
    """

    def __init__(self, coords: np.ndarray):
        coords = np.asarray(coords, dtype=np.float64)
        if coords.shape not in ((3, 2), (4, 2)):
            raise ValueError("coords must be (3, 2) or (4, 2)")
        self.coords = coords
        self.kind = "tri" if coords.shape[0] == 3 else "quad"

    def x(self, xi1: Array, xi2: Array, shape=None) -> tuple[Array, Array]:
        """Physical coordinates of reference points.  ``shape``, here and
        in :meth:`jacobian`, is ``vertex_shape(kind, xi1, xi2)`` when the
        caller already has it (the tables depend on the points alone, and
        callers evaluate many elements at one reference point set)."""
        n, _, _ = shape or vertex_shape(self.kind, xi1, xi2)
        return n.T @ self.coords[:, 0], n.T @ self.coords[:, 1]

    def jacobian(self, xi1: Array, xi2: Array, shape=None) -> Array:
        """J[k] = [[dx/dxi1, dx/dxi2], [dy/dxi1, dy/dxi2]] at each point."""
        _, d1, d2 = shape or vertex_shape(self.kind, xi1, xi2)
        npts = np.asarray(xi1).size
        j = np.empty((npts, 2, 2))
        j[:, 0, 0] = d1.T @ self.coords[:, 0]
        j[:, 0, 1] = d2.T @ self.coords[:, 0]
        j[:, 1, 0] = d1.T @ self.coords[:, 1]
        j[:, 1, 1] = d2.T @ self.coords[:, 1]
        return j


@dataclass
class GeomFactors:
    """Geometric factors of one element at the expansion quadrature points.

    Attributes
    ----------
    jw:
        |det J| times the reference quadrature weight at each point — the
        physical integration weight.
    dxi_dx:
        (2, 2, nq) array; ``dxi_dx[i, j]`` is d(xi_i)/d(x_j), so the
        physical gradient of a mode is
        ``d/dx_j = sum_i dphi_i * dxi_dx[i, j]``.
    """

    jw: Array
    dxi_dx: Array

    @classmethod
    def compute(
        cls,
        expansion: Expansion2D,
        coords: np.ndarray,
        emap: "ElementMap | None" = None,
    ) -> "GeomFactors":
        if emap is None:
            emap = ElementMap(coords)
        if (emap.kind == "tri") != isinstance(expansion, TriExpansion):
            raise ValueError("expansion/element kind mismatch")
        j = emap.jacobian(*quadrature_reference(emap.kind, expansion.nq1d))
        det = j[:, 0, 0] * j[:, 1, 1] - j[:, 0, 1] * j[:, 1, 0]
        if np.any(det <= 0.0):
            raise ValueError("element is inverted or degenerate (det J <= 0)")
        inv = np.empty_like(j)
        inv[:, 0, 0] = j[:, 1, 1] / det
        inv[:, 0, 1] = -j[:, 0, 1] / det
        inv[:, 1, 0] = -j[:, 1, 0] / det
        inv[:, 1, 1] = j[:, 0, 0] / det
        # inv is d(xi)/d(x): inv[k][i, j] = dxi_i/dx_j.
        dxi_dx = np.transpose(inv, (1, 2, 0))
        return cls(jw=expansion.weights * det, dxi_dx=dxi_dx)

    def physical_gradients(
        self, dphi1: Array, dphi2: Array
    ) -> tuple[Array, Array]:
        """Push (nmodes, nq) reference derivative tables to physical x, y."""
        dx = dphi1 * self.dxi_dx[0, 0] + dphi2 * self.dxi_dx[1, 0]
        dy = dphi1 * self.dxi_dx[0, 1] + dphi2 * self.dxi_dx[1, 1]
        return dx, dy

"""Iso-parametric geometric mappings from reference to physical elements.

Straight-sided elements: affine for triangles, bilinear for quads (the
iso-parametric representation at the vertex-mode level).  For a stack
of same-kind elements (one element is a stack of one),
:class:`GeomFactors` tabulates, at the expansion's quadrature points,
everything operator assembly needs: |J| dxi weights, the
inverse-Jacobian entries used to push reference gradients to physical
space and the physical points themselves — in stacked passes
(:func:`map_points`, :func:`map_jacobians`) that give each element the
bits of its own one-element map.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..spectral.expansions import Expansion2D, TriExpansion
from ..spectral.quadrature import quad_rule, tri_rule

__all__ = ["ElementMap", "GeomFactors", "map_jacobians", "map_points", "quadrature_reference", "vertex_shape"]

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


def _rows(table: Array, values: Array) -> Array:
    """``table.T @ v`` for each row ``v`` of ``values`` (..., nv), the
    table shared (nv, npts) or one per row (..., nv, npts).

    One broadcast ``np.matmul`` with a column per item: numpy runs, item
    by item, the very gemv a one-element map runs, so a stack and its
    elements one by one agree to the bit (``values @ table`` goes
    through dgemm and does not; ALE's PCG counts see the difference).
    """
    return np.matmul(np.swapaxes(table, -1, -2), values[..., None])[..., 0]


class ElementMap:
    """Reference -> physical map of straight-sided elements of one kind.

    ``coords`` is one element's (nv, 2) vertices or a stack of them,
    (..., nv, 2); the results carry the same leading axes.  The map is
    expressed through the element's *vertex shape functions*
    (barycentric for the triangle, bilinear for the quad), which are
    exactly the vertex modes of the matching expansion — an
    iso-parametric representation.
    """

    def __init__(self, coords: np.ndarray):
        coords = np.asarray(coords, dtype=np.float64)
        if coords.shape[-2:] not in ((3, 2), (4, 2)):
            raise ValueError("coords must be (..., 3, 2) or (..., 4, 2)")
        self.coords = coords
        self.kind = "tri" if coords.shape[-2] == 3 else "quad"

    def x(self, xi1: Array, xi2: Array, shape=None) -> tuple[Array, Array]:
        """Physical coordinates of reference points.  ``shape``, here and
        in :meth:`jacobian`, is ``vertex_shape(kind, xi1, xi2)`` when the
        caller already has it (the tables depend on the points alone, and
        callers evaluate many elements at one reference point set); its
        tables may also carry the leading axes, one point set per row."""
        n, _, _ = shape or vertex_shape(self.kind, xi1, xi2)
        return _rows(n, self.coords[..., 0]), _rows(n, self.coords[..., 1])

    def jacobian(self, xi1: Array, xi2: Array, shape=None) -> Array:
        """J[..., k, :, :] = [[dx/dxi1, dx/dxi2], [dy/dxi1, dy/dxi2]] at
        each point."""
        _, d1, d2 = shape or vertex_shape(self.kind, xi1, xi2)
        cx, cy = self.coords[..., 0], self.coords[..., 1]
        return np.stack(
            [
                np.stack([_rows(d1, cx), _rows(d2, cx)], axis=-1),
                np.stack([_rows(d1, cy), _rows(d2, cy)], axis=-1),
            ],
            axis=-2,
        )


def _per_row(ref: tuple, row: int) -> tuple:
    """Row ``row``'s point set of a shared or per-row ``ref``."""
    if np.ndim(ref[0]) == 1:
        return ref
    return ref[0][row], ref[1][row], tuple(t[row] for t in ref[2])


def map_points(coords: Array, ref: tuple, curved) -> tuple[Array, Array]:
    """Physical ``(x, y)``, each (ne, npts), of the reference points
    ``ref = (xi1, xi2, vertex shape tables)`` on a (ne, nv, 2) stack of
    same-kind elements (or (npts,) on one element's (nv, 2)), in one
    stacked pass of the straight maps.
    ``ref`` is one point set for every row, or one per row (``xi1``
    (ne, npts), tables (ne, nv, npts)).

    ``curved`` maps rows to their element's own map (a
    :class:`~repro.mesh.curved.BlendedQuadMap`): those rows are that
    map's values, its Gordon-Hall corrections on top of the same
    straight map, so they carry the bits a one-element call gives.
    """
    x, y = ElementMap(coords).x(*ref)
    for row, cmap in (curved or {}).items():
        x[row], y[row] = cmap.x(*_per_row(ref, row))
    return x, y


def map_jacobians(coords: Array, ref: tuple, curved) -> Array:
    """The (ne, npts, 2, 2) Jacobians at the points of
    :func:`map_points`, on the same terms."""
    jac = ElementMap(coords).jacobian(*ref)
    for row, cmap in (curved or {}).items():
        jac[row] = cmap.jacobian(*_per_row(ref, row))
    return jac


@dataclass
class GeomFactors:
    """Geometric factors at the expansion quadrature points of one
    element, or of a kind stack of them (a leading element axis on every
    field).

    Attributes
    ----------
    jw:
        (..., nq) |det J| times the reference quadrature weight at each
        point — the physical integration weight.
    dxi_dx:
        (..., 2, 2, nq) array; ``dxi_dx[..., i, j, :]`` is
        d(xi_i)/d(x_j), so the physical gradient of a mode is
        ``d/dx_j = sum_i dphi_i * dxi_dx[i, j]``.
    x, y:
        (..., nq) physical coordinates of the quadrature points.
    """

    jw: Array
    dxi_dx: Array
    x: Array
    y: Array

    @classmethod
    def compute(cls, expansion: Expansion2D, coords: np.ndarray, curved=None) -> "GeomFactors":
        """The factors of one element's (nv, 2) vertices, or of a kind
        stack's (ne, nv, 2), whose ``curved`` rows (row -> that element's
        map, see :func:`map_points`) follow their curved edges.  One path
        either way: a single element is a stack of one."""
        coords = np.asarray(coords, dtype=np.float64)
        if (coords.shape[-2] == 3) != isinstance(expansion, TriExpansion):
            raise ValueError("expansion/element kind mismatch")
        kind = "tri" if coords.shape[-2] == 3 else "quad"
        ref = quadrature_reference(kind, expansion.nq1d)
        x, y = map_points(coords, ref, curved)
        j = map_jacobians(coords, ref, curved)
        det = j[..., 0, 0] * j[..., 1, 1] - j[..., 0, 1] * j[..., 1, 0]
        if np.any(det <= 0.0):
            raise ValueError("element is inverted or degenerate (det J <= 0)")
        # d(xi)/d(x), laid out (..., i, j, point).
        dxi_dx = np.empty(det.shape[:-1] + (2, 2) + det.shape[-1:])
        dxi_dx[..., 0, 0, :] = j[..., 1, 1] / det
        dxi_dx[..., 0, 1, :] = -j[..., 0, 1] / det
        dxi_dx[..., 1, 0, :] = -j[..., 1, 0] / det
        dxi_dx[..., 1, 1, :] = j[..., 0, 0] / det
        return cls(jw=expansion.weights * det, dxi_dx=dxi_dx, x=x, y=y)

    def row(self, r: int) -> "GeomFactors":
        """The factors of row ``r`` of a kind stack (views)."""
        return GeomFactors(self.jw[r], self.dxi_dx[r], self.x[r], self.y[r])

    def physical_gradients(
        self, dphi1: Array, dphi2: Array
    ) -> tuple[Array, Array]:
        """Push (nmodes, nq) reference derivative tables of one element
        to physical x, y."""
        dx = dphi1 * self.dxi_dx[0, 0] + dphi2 * self.dxi_dx[1, 0]
        dy = dphi1 * self.dxi_dx[0, 1] + dphi2 * self.dxi_dx[1, 1]
        return dx, dy

"""Frozen oracle: a space's metric built one element and one side at a time.

Before the stacked passes of ``GeomFactors.compute`` and
``repro.mesh.mapping.map_points`` (DESIGN.md section 9), every space,
Dirichlet plan and pressure-BC edge batch walked its elements and
boundary sides one by one, through a per-element map.  Those bodies live
on here verbatim (methods turned into functions, the live classes'
names prefixed ``Old``), as what the stacked code is compared against:

* ``OldElementMap`` / ``OldBlendedQuadMap`` / ``old_element_map``: one
  element's straight map (``n.T @ coords[:, 0]``, one gemv per
  coordinate and table) and its Gordon-Hall blended twin;
* ``old_geom_factors``: ``GeomFactors.compute`` of one element;
* ``old_space_metric``: ``FunctionSpace.__init__``'s loop — per-element
  factors plus the (nelem, nq) quadrature-point coordinates;
* ``old_edge_physical_points`` and ``old_dirichlet_arrays``: one tag's
  ``DirichletPlan`` sample points and target dofs, side by side;
* ``old_edge_quadrature``: ``build_edge_quadrature``, side by side,
  one ``EdgeQuadrature`` (the per-side record it returned) a side;
* ``old_edge_batch``: ``EdgeBatch.__init__``'s operands over it.

The reference tables (quadrature points, edge Gauss points) and the
counted ``elemental_mass`` are the live ones: the oracle freezes how the
metric is walked, not the tables it reads.  The edge basis comes from
the per-mode evaluation frozen in ``tests/spectral/_tabulation_oracle``,
and the per-element mesh and dof-map views from
``tests/mesh/_topology_oracle`` and ``tests/assembly/_dofmap_oracle``.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from repro.assembly.boundary import _PARAM, _tag_slices
from repro.assembly.operators import elemental_mass
from repro.linalg import blas
from repro.mesh.curved import _BLEND, _DBLEND, _DS, _EDGE_PARAM
from repro.mesh.mapping import quadrature_reference, vertex_shape
from repro.mesh.mesh2d import QUAD_EDGES
from repro.spectral.expansions import QuadExpansion, TriExpansion
from repro.spectral.jacobi import gauss_jacobi

from ..assembly import _dofmap_oracle as dmo
from ..spectral._tabulation_oracle import eval_basis_full
from ._topology_oracle import edge_orientation, element_coords


@dataclass
class EdgeQuadrature:
    """Quadrature data of one boundary side."""

    elem: int
    local_edge: int
    x: np.ndarray  # physical points (n,)
    y: np.ndarray
    nx: np.ndarray  # outward unit normal
    ny: np.ndarray
    jw: np.ndarray  # arc-length weights
    phi: np.ndarray  # (nmodes, n) element basis at the edge points
    dphi_x: np.ndarray  # physical derivative tables
    dphi_y: np.ndarray

    @property
    def npts(self) -> int:
        return self.x.size

    def integrate(self, fvals: np.ndarray) -> float:
        return blas.ddot(self.jw, np.asarray(fvals, dtype=np.float64))


class OldElementMap:
    def __init__(self, coords):
        coords = np.asarray(coords, dtype=np.float64)
        if coords.shape not in ((3, 2), (4, 2)):
            raise ValueError("coords must be (3, 2) or (4, 2)")
        self.coords = coords
        self.kind = "tri" if coords.shape[0] == 3 else "quad"

    def x(self, xi1, xi2, shape=None):
        n, _, _ = shape or vertex_shape(self.kind, xi1, xi2)
        return n.T @ self.coords[:, 0], n.T @ self.coords[:, 1]

    def jacobian(self, xi1, xi2, shape=None):
        _, d1, d2 = shape or vertex_shape(self.kind, xi1, xi2)
        npts = np.asarray(xi1).size
        j = np.empty((npts, 2, 2))
        j[:, 0, 0] = d1.T @ self.coords[:, 0]
        j[:, 0, 1] = d2.T @ self.coords[:, 0]
        j[:, 1, 0] = d1.T @ self.coords[:, 1]
        j[:, 1, 1] = d2.T @ self.coords[:, 1]
        return j


class OldBlendedQuadMap(OldElementMap):
    def __init__(self, coords, curves):
        super().__init__(coords)
        self.curves = dict(curves)
        self._chords = {}
        for le in self.curves:
            a, b = QUAD_EDGES[le]
            self._chords[le] = (self.coords[a], self.coords[b])

    def _corrections(self, xi1, xi2):
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


def old_element_map(mesh, elem):
    coords = element_coords(mesh, elem)
    local = {le: fn for (ei, le), fn in mesh.curves.items() if ei == elem}
    if not local:
        return OldElementMap(coords)
    return OldBlendedQuadMap(coords, local)


def old_geom_factors(expansion, coords, emap=None):
    """(jw, dxi_dx) of one element."""
    if emap is None:
        emap = OldElementMap(coords)
    j = emap.jacobian(*quadrature_reference(emap.kind, expansion.nq1d))
    det = j[:, 0, 0] * j[:, 1, 1] - j[:, 0, 1] * j[:, 1, 0]
    inv = np.empty_like(j)
    inv[:, 0, 0] = j[:, 1, 1] / det
    inv[:, 0, 1] = -j[:, 0, 1] / det
    inv[:, 1, 0] = -j[:, 1, 0] / det
    inv[:, 1, 1] = j[:, 0, 0] / det
    return expansion.weights * det, np.transpose(inv, (1, 2, 0))


def old_space_metric(space):
    """``(jw, dxi_dx, xq, yq)``: per-element lists of the factors and
    the (nelem, nq) quadrature-point coordinates, in mesh element order."""
    mesh = space.mesh
    jw, dxi, xq, yq = [], [], [], []
    for ei, elem in enumerate(mesh.elements):
        exp = dmo.expansion(space.dofmap, ei)
        emap = old_element_map(mesh, ei)
        w, d = old_geom_factors(exp, element_coords(mesh, ei), emap)
        jw.append(w)
        dxi.append(d)
        x, y = emap.x(*quadrature_reference(elem.kind, exp.nq1d))
        xq.append(x)
        yq.append(y)
    return jw, dxi, np.array(xq), np.array(yq)


def old_edge_physical_points(mesh, elem, local_edge, s_canonical):
    param, _ = _PARAM[mesh.elements[elem].kind][local_edge]
    s = np.asarray(s_canonical, dtype=np.float64)
    if edge_orientation(mesh, elem, local_edge) < 0:
        s = -s
    xi1, xi2 = param(s)
    return old_element_map(mesh, elem).x(xi1, xi2)


def old_dirichlet_arrays(space, tag):
    """``(x, y, targets)`` of one tag's plan, as the per-side loop built them."""
    mesh, dm = space.mesh, space.dofmap
    xg, _ = gauss_jacobi(space.order + 2)
    x, y, targets = [], [], []
    for ei, le in mesh.boundary_sides(tag):
        ends = sorted(mesh.elements[ei].edge_vertices(le))
        ex, ey = old_edge_physical_points(mesh, ei, le, xg)
        x.append(np.concatenate((mesh.vertices[ends, 0], ex)))
        y.append(np.concatenate((mesh.vertices[ends, 1], ey)))
        eid = dmo.elem_edge_id(dm, ei, le)
        n = space.order - 1
        base = dm.edge_offset + eid * n
        edge = np.arange(base, base + n, dtype=np.int64)
        targets.append(np.concatenate(([dmo.vertex_dof(dm, v) for v in ends], edge)))
    return (
        np.array(x).reshape(-1, xg.size + 2),
        np.array(y).reshape(-1, xg.size + 2),
        np.array(targets, dtype=np.int64).reshape(-1, space.order + 1),
    )


def _old_param_derivative(kind, le):
    if kind == "quad":
        return {0: (1.0, 0.0), 1: (0.0, 1.0), 2: (1.0, 0.0), 3: (0.0, 1.0)}[le]
    return {0: (1.0, 0.0), 1: (-1.0, 1.0), 2: (0.0, 1.0)}[le]


def old_edge_quadrature(space, sides):
    """``build_edge_quadrature``, one side at a time."""
    out = []
    n1d = space.order + 2
    s, w = gauss_jacobi(n1d)
    for ei, le in sides:
        kind = space.mesh.elements[ei].kind
        exp = (TriExpansion if kind == "tri" else QuadExpansion)(space.order)
        xi1, xi2 = _PARAM[kind][le][0](s)
        pts = (xi1, xi2, vertex_shape(kind, xi1, xi2))
        phi, d1, d2 = eval_basis_full(exp, xi1, xi2)
        ccw_sign = _PARAM[kind][le][1]
        emap = old_element_map(space.mesh, ei)
        x, y = emap.x(*pts)
        j = emap.jacobian(*pts)
        dxi1, dxi2 = _old_param_derivative(kind, le)
        tx = j[:, 0, 0] * dxi1 + j[:, 0, 1] * dxi2
        ty = j[:, 1, 0] * dxi1 + j[:, 1, 1] * dxi2
        norm = np.hypot(tx, ty)
        nx = ccw_sign * ty / norm
        ny = -ccw_sign * tx / norm
        det = j[:, 0, 0] * j[:, 1, 1] - j[:, 0, 1] * j[:, 1, 0]
        dxi1_dx = j[:, 1, 1] / det
        dxi1_dy = -j[:, 0, 1] / det
        dxi2_dx = -j[:, 1, 0] / det
        dxi2_dy = j[:, 0, 0] / det
        dphi_x = d1 * dxi1_dx + d2 * dxi2_dx
        dphi_y = d1 * dxi1_dy + d2 * dxi2_dy
        out.append(
            EdgeQuadrature(
                elem=ei, local_edge=le, x=x, y=y, nx=nx, ny=ny, jw=w * norm,
                phi=phi, dphi_x=dphi_x, dphi_y=dphi_y,
            )
        )
    return out


def old_edge_batch(space, tags):
    """``EdgeBatch.__init__``'s operands, as a namespace with ``x, y, nx,
    ny, groups`` (and ``_slices``), built side by side; charges the
    per-element masses the way the live set-up must."""
    dm = space.dofmap
    metric = old_space_metric(space)
    per_tag = [old_edge_quadrature(space, space.mesh.boundary_sides(t)) for t in tags]
    quads = [eq for q in per_tag for eq in q]
    mass = {}
    for eq in quads:
        if eq.elem not in mass:
            gf = SimpleNamespace(jw=metric[0][eq.elem])
            mass[eq.elem] = elemental_mass(dmo.expansion(dm, eq.elem), gf)

    def stack(name, sel=range(len(quads))):
        return np.array([getattr(quads[i], name) for i in sel])

    out = SimpleNamespace(_slices=_tag_slices([len(q) for q in per_tag]))
    out.x, out.y, out.nx, out.ny = (
        stack(name).reshape(-1, space.order + 2) for name in ("x", "y", "nx", "ny")
    )
    kinds = [space.mesh.elements[eq.elem].kind for eq in quads]
    elem_dofs, elem_signs = dmo.elem_dofs(dm), dmo.elem_signs(dm)
    out.groups = []
    for kind in dict.fromkeys(kinds):
        sel = [i for i, k in enumerate(kinds) if k == kind]
        elems = stack("elem", sel)
        out.groups.append(
            SimpleNamespace(
                sel=np.array(sel),
                elems=elems,
                ejw=np.array([metric[0][e] for e in elems]),
                minv=np.linalg.inv([mass[e] for e in elems]),
                dofs=np.array([elem_dofs[e] for e in elems]),
                signs=np.array([elem_signs[e] for e in elems]),
                **{n: stack(n, sel) for n in ("phi", "dphi_x", "dphi_y", "nx", "ny", "jw")},
            )
        )
    return out

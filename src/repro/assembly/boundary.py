"""Boundary (edge) quadrature and the boundary plans built on it.

Needed by the splitting scheme's high-order pressure boundary condition
(Karniadakis, Israeli & Orszag 1991): the pressure-Poisson right-hand
side carries the surface integral

    oint phi [ -nu n.(curl omega)_extrap - gamma0 (u_b^{n+1} . n)/dt ]

over the velocity-Dirichlet boundary.  :func:`build_edge_quadrature`
gives, for a list of (element, local edge) sides, the physical edge
points, outward normals, edge weights and the element basis (values and
physical derivatives) at those points, one stacked group per element
kind.

What does not change from step to step is walked once per space and
kept in two *plans*: :class:`DirichletPlan` (the Dirichlet projection
as "evaluate the data at cached points, two stacked calls, one indexed
gather") and :class:`EdgeBatch` (the stacked operands of that surface
term).  Both do, per side, the arithmetic of the per-side loops they
replace (on the goldens' numpy build real results are bit-identical,
DESIGN.md section 9) and replay their charges —
label, amount and, for the fractional ``edge-project`` charge, call by
call — so states, ledgers and virtual clocks do not see them.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

from ..linalg import blas
from ..linalg.counters import charge
from ..mesh.curved import element_stack
from ..mesh.mapping import map_jacobians, map_points, vertex_shape
from ..mesh.mesh2d import _kind_positions
from ..spectral.basis import bubble
from ..spectral.expansions import QuadExpansion, TriExpansion
from ..spectral.jacobi import gauss_jacobi
from .operators import elemental_mass

__all__ = ["build_edge_quadrature", "DirichletPlan", "EdgeBatch"]

# Reference parametrisation of each local edge (intrinsic direction),
# and whether that direction agrees with CCW traversal of the element
# boundary (outward normal = +(t_y, -t_x) for CCW traversal).
_QUAD_PARAM = {
    0: (lambda s: (s, -np.ones_like(s)), +1),
    1: (lambda s: (np.ones_like(s), s), +1),
    2: (lambda s: (s, np.ones_like(s)), -1),
    3: (lambda s: (-np.ones_like(s), s), -1),
}
_TRI_PARAM = {
    0: (lambda s: (s, -np.ones_like(s)), +1),
    1: (lambda s: (-s, s), +1),
    2: (lambda s: (-np.ones_like(s), s), -1),
}
_PARAM = {"tri": _TRI_PARAM, "quad": _QUAD_PARAM}


#: d(xi1, xi2)/ds of each local edge's parametrisation, and the sign
#: that makes the outward normal +(t_y, -t_x), by kind and local edge.
_PARAM_DERIV = {
    "quad": np.array([(1.0, 0.0), (0.0, 1.0), (1.0, 0.0), (0.0, 1.0)]),
    "tri": np.array([(1.0, 0.0), (-1.0, 1.0), (0.0, 1.0)]),
}
_CCW = {kind: np.array([float(p[1]) for p in params.values()]) for kind, params in _PARAM.items()}


@functools.cache
def _edge_points(kind: str, n1d: int) -> tuple:
    """The ``n1d`` Gauss points of every local edge of a ``kind``, the
    edge run in its intrinsic direction (``[le, 0]``) and reversed
    (``[le, 1]``): ``(xi1, xi2, vertex shape tables)``, (nedges, 2, n1d)
    and (nedges, 2, nv, n1d).  A side group's stacked map picks its rows
    from them.  Tabulated once per process and read-only.
    """
    s, _ = gauss_jacobi(n1d)
    nedges = len(_PARAM[kind])
    pts = [_PARAM[kind][le][0](t) for le in range(nedges) for t in (s, -s)]
    shapes = [vertex_shape(kind, xi1, xi2) for xi1, xi2 in pts]
    xi1, xi2 = (np.array([p[i] for p in pts]).reshape(nedges, 2, n1d) for i in (0, 1))
    shape = tuple(
        np.array([sh[i] for sh in shapes]).reshape((nedges, 2) + shapes[0][i].shape)
        for i in range(3)
    )
    for table in (xi1, xi2, *shape):
        table.setflags(write=False)
    return xi1, xi2, shape


@functools.cache
def _reference_edges(kind: str, order: int, n1d: int) -> tuple:
    """What a side's quadrature owes to the reference element alone: the
    ``n1d`` Gauss weights of an edge, and the order-``order`` basis with
    its reference derivatives at the Gauss points of each local edge,
    (nedges, nmodes, n1d) each (modes do not depend on the element's own
    quadrature order, so it is no part of the key).  A quad's tables are
    outer products of its 1-D factors; a triangle's are evaluated one
    mode at a time at each edge's collapsed points.  Tabulated once per
    process and read-only: every space of that kind and order shares it.
    """
    s, w = gauss_jacobi(n1d)
    if kind == "quad":
        tables = QuadExpansion(order).edge_tables(s)
    else:
        exp = TriExpansion(order)
        xi1, xi2, _ = _edge_points(kind, n1d)
        basis = [
            exp.collapsed_tables(*exp.collapse(xi1[le, 0], xi2[le, 0]))
            for le in range(exp.nedges)
        ]
        tables = tuple(np.array([b[i] for b in basis]) for i in range(3))
    for table in tables:
        table.setflags(write=False)
    return (w, *tables)


@functools.cache
def _edge_lift(order: int) -> tuple:
    """What a Dirichlet projection of order ``order`` owes to the
    reference edge alone: the linear interpolant's two tables, the
    ``order - 1`` edge bubbles and the weights at the ``order + 2``
    Gauss points.  Tabulated once per process and read-only."""
    xg, wg = gauss_jacobi(order + 2)
    lin = np.array([0.5 * (1 - xg), 0.5 * (1 + xg)])
    bub = np.array([bubble(k, xg) for k in range(order - 1)])
    for table in (lin, bub):
        table.setflags(write=False)
    return lin, bub, wg


def _kind_groups(mesh, sides):
    """``(kind, positions, elements, local edges)`` of each element kind
    among ``sides``, kinds in order of first appearance, positions in
    side order."""
    ei, le = np.asarray(sides, dtype=np.int64).reshape(-1, 2).T
    groups = _kind_positions(mesh.elem_vertices[ei, 3] >= 0)
    return [(kind, pos, ei[pos], le[pos]) for kind, pos in groups.items()]


def build_edge_quadrature(space, sides: list[tuple[int, int]]) -> list[SimpleNamespace]:
    """Edge quadrature (``order + 2`` Gauss points a side) of the given
    (element, local_edge) sides, one stacked pass per element kind.

    Points and Jacobians by :func:`~repro.mesh.mapping.map_points` /
    ``map_jacobians`` with each side's row of :func:`_edge_points`, then
    tangents, normals and inverse Jacobians elementwise.  Returns one
    group per element kind among ``sides``, kinds in order of first
    appearance, with ``sel`` (its sides' positions in ``sides``),
    ``elems`` and ``les`` (their elements and local edges), ``stack`` and
    ``rows`` (the elements' dof-map kind stack and rows in it:
    :meth:`~repro.assembly.dofmap.DofMap.locate`), the outward unit normal
    ``nx, ny``, points ``x, y`` and arc-length weights ``jw`` (ns, npts),
    and the element basis ``phi`` with its physical derivatives
    ``dphi_x, dphi_y`` at the points (ns, nmodes, npts).
    """
    mesh, n1d = space.mesh, space.order + 2
    groups = []
    for kind, sel, elems, les in _kind_groups(mesh, sides):
        xi1, xi2, shape = _edge_points(kind, n1d)
        ref = (xi1[les, 0], xi2[les, 0], tuple(t[les, 0] for t in shape))
        coords, curved = element_stack(mesh, elems)
        x, y = map_points(coords, ref, curved)
        j = map_jacobians(coords, ref, curved)
        w, phi, d1, d2 = _reference_edges(kind, space.order, n1d)
        # Tangent along the parameter s by the chain rule on the map.
        dxi1, dxi2 = (_PARAM_DERIV[kind][les, c, None] for c in (0, 1))
        tx = j[..., 0, 0] * dxi1 + j[..., 0, 1] * dxi2
        ty = j[..., 1, 0] * dxi1 + j[..., 1, 1] * dxi2
        norm = np.hypot(tx, ty)
        ccw_sign = _CCW[kind][les, None]
        # Physical derivatives at the edge points.
        det = j[..., 0, 0] * j[..., 1, 1] - j[..., 0, 1] * j[..., 1, 0]
        dxi1_dx = (j[..., 1, 1] / det)[:, None]
        dxi1_dy = (-j[..., 0, 1] / det)[:, None]
        dxi2_dx = (-j[..., 1, 0] / det)[:, None]
        dxi2_dy = (j[..., 0, 0] / det)[:, None]
        stack, rows = space.dofmap.locate(elems)
        groups.append(
            SimpleNamespace(
                sel=sel, elems=elems, les=les, stack=stack, rows=rows,
                x=x, y=y, nx=ccw_sign * ty / norm, ny=-ccw_sign * tx / norm, jw=w * norm,
                phi=phi[les],
                dphi_x=d1[les] * dxi1_dx + d2[les] * dxi2_dx,
                dphi_y=d1[les] * dxi1_dy + d2[les] * dxi2_dy,
            )
        )
    return groups


def _sample(fns, slices, x, y, args, dtype) -> np.ndarray:
    """fn(x, y, *args) at each point, ``fns[i]`` on the rows ``slices[i]``.
    One call per point: boundary functions may branch on scalars."""
    out = np.empty(x.shape, dtype=dtype)
    for fn, sl in zip(fns, slices):
        vals = [fn(a, b, *args) for a, b in zip(x[sl].ravel(), y[sl].ravel())]
        out[sl] = np.reshape(vals, x[sl].shape)
    return out


def _tag_slices(counts: list[int]) -> list[slice]:
    """Row ranges of consecutive per-tag blocks of the given sizes."""
    stops = np.cumsum(counts).tolist()
    return [slice(stop - n, stop) for n, stop in zip(counts, stops)]


class DirichletPlan:
    """The data-independent half of a Dirichlet projection on tagged sides.

    Vertex dofs are nodal; an edge's interior coefficients are the 1-D
    L2 projection of (g - linear interpolant) onto the edge bubbles, so
    a polynomial trace of degree <= order is exact.  Per side the plan
    holds the sample points [low vertex, high vertex, Gauss points along
    the true (possibly curved) edge, low -> high] and the dofs [low
    vertex, high vertex, bubbles] their values go to; ``dofs`` is the
    sorted union, and a dof written by several sides takes the last
    one's value (sides in tag order), as in the dict the per-side loop
    filled.  Obtained from :meth:`FunctionSpace.dirichlet_plan`.
    """

    def __init__(self, space, tags):
        self.tags = tuple(tags)
        self._lin, self._bub, self._wg = _edge_lift(space.order)
        if len(self.tags) > 1:
            parts = [space.dirichlet_plan((tag,)) for tag in self.tags]
            self._x, self._y, self._targets = (
                np.concatenate([getattr(p, name) for p in parts])
                for name in ("_x", "_y", "_targets")
            )
        else:
            parts = [self]
            mesh, dm = space.mesh, space.dofmap
            n1d = self._wg.size
            sides = mesh.boundary_sides(self.tags[0])
            ends = mesh.side_vertices(sides)
            # Gauss points along the true (possibly curved) edge, low ->
            # high: a side running against that direction takes its
            # edge's reversed points.
            reverse = (ends[:, 0] > ends[:, 1]).astype(np.int64)
            ends = np.sort(ends, axis=1)
            self._x = np.empty((len(sides), n1d + 2))
            self._y = np.empty((len(sides), n1d + 2))
            self._x[:, :2], self._y[:, :2] = mesh.vertices[ends, 0], mesh.vertices[ends, 1]
            eids = np.empty(len(sides), dtype=np.int64)
            for kind, pos, elems, les in _kind_groups(mesh, sides):
                xi1, xi2, shape = _edge_points(kind, n1d)
                rows = (les, reverse[pos])
                ref = (xi1[rows], xi2[rows], tuple(t[rows] for t in shape))
                coords, curved = element_stack(mesh, elems)
                ex, ey = map_points(coords, ref, curved)
                self._x[pos, 2:], self._y[pos, 2:] = ex, ey
                i, elem_rows = dm.locate(elems)
                eids[pos] = dm.stacks[i].edge_ids[elem_rows, les]
            self._targets = np.concatenate((dm.vrep[ends], dm.edge_dofs(eids)), axis=1)
        self._slices = _tag_slices([len(p._x) for p in parts])
        flat = self._targets.ravel()
        self.dofs, last = np.unique(flat[::-1], return_index=True)
        self._src = flat.size - 1 - last  # each dof's last writer

    def sample(self, fns, *args, dtype=np.float64) -> np.ndarray:
        """(nsides, nq + 2) values fn(x, y, *args) at the sample points,
        ``fns`` holding one function per tag."""
        return _sample(fns, self._slices, self._x, self._y, args, dtype)

    def project(self, fn) -> np.ndarray:
        """Coefficients, aligned with ``dofs``, of u = fn(x, y) on every
        tagged side; charges one projection over all of them."""
        return self._lift(self.sample([fn] * len(self.tags)), [len(self._x)])

    def project_by_tag(self, fns, *args, dtype=np.float64) -> np.ndarray:
        """As :meth:`project` for u = fn(x, y, *args) with one function
        per tag, a later tag winning a shared corner dof; charges one
        projection per tag (two, real and imaginary, for complex data)."""
        parts = 2 if np.issubdtype(dtype, np.complexfloating) else 1
        sides = [sl.stop - sl.start for sl in self._slices for _ in range(parts)]
        return self._lift(self.sample(fns, *args, dtype=dtype), sides)

    def charge_projection(self, projections=None) -> None:
        """Charge projections of the given side counts (default: one over
        all) undone — some callers projected zero just to learn ``dofs``."""
        nb, nq = self._bub.shape
        for nsides in projections or [len(self._x)]:
            charge(2.0 * nb * nb * nq, 8.0 * (2 * nb * nq + nb * nb), "edge-mass")
            # One call per side: 2 nb^3 / 3 is no integer, so n * c is not
            # c + ... + c in floats, and the e2e goldens compare with ==.
            for _ in range(nsides):
                charge(2.0 * nb * nq + 2.0 * nb**3 / 3.0, 8.0 * nb * (nq + nb), "edge-project")

    def _lift(self, g: np.ndarray, projections: list[int]) -> np.ndarray:
        self.charge_projection(projections)
        d = g[:, 2:] - (self._lin[0] * g[:, :1] + self._lin[1] * g[:, 1:2])
        # All sides in two stacked calls that run, per side, the very
        # dgemv and dgesv the per-side loop ran (a matmul with a column
        # vector per item; a solve broadcasting mass_1d), so on the
        # goldens' numpy build the values are bit-identical: ALE's PCG
        # iteration counts do not survive a last-bit change of its
        # boundary data.
        rhs = np.matmul(self._bub, (self._wg * d)[..., None])
        coeff = np.linalg.solve((self._bub * self._wg) @ self._bub.T, rhs)[..., 0]
        return np.concatenate((g[:, :2], coeff), axis=1).ravel()[self._src]


class EdgeBatch:
    """Stacked operands of the rotational pressure BC over the sides of
    ``tags`` (in tag order).

    ``x, y, nx, ny`` are (nsides, npts) over all sides.  ``groups`` are
    the :func:`build_edge_quadrature` groups of those sides, each also
    holding its elements' basis ``exp_phi`` (ns, nmodes, nq; ``exp_phi_c``
    is the same stack as complex), weights ``ejw`` (ns, nq), inverse mass
    ``minv`` (ns, nmodes, nmodes) and ``dofs, signs``, read from the
    space's batch of their kind stack.  The surface term is two short
    functions over them, real field and complex Fourier modes, because
    their charge labels differ (``dgemv``/``edge-load`` against
    ``zgemv``).
    """

    # repro: waive[accounting] M_e^-1 is set-up, never charged by the solvers' loops either
    def __init__(self, space, tags):
        per_tag = [space.mesh.boundary_sides(t) for t in tags]
        self._slices = _tag_slices([len(sides) for sides in per_tag])
        sides = [side for sides in per_tag for side in sides]
        npts = space.order + 2
        self.x, self.y, self.nx, self.ny = (np.empty((len(sides), npts)) for _ in range(4))
        groups, batches = build_edge_quadrature(space, sides), space.batches()
        where = {}
        for g in groups:
            for name in ("x", "y", "nx", "ny"):
                getattr(self, name)[g.sel] = getattr(g, name)
            where.update((e, (g.stack, r)) for e, r in zip(g.elems.tolist(), g.rows.tolist()))
        # One mass matrix per distinct element, in first-appearance
        # order (the order the per-solver set-up loops charged them in).
        mass = {}
        for e in dict.fromkeys(ei for ei, _ in sides):
            i, r = where[e]
            mass[e] = elemental_mass(batches[i].exp, batches[i].geom.row(r))
        self.groups = []
        for g in groups:
            b = batches[g.stack]
            # exp_phi is a zero-stride stack, not a shared matrix: the
            # stacked kernels then run one dgemv per side as the loops
            # did (a shared matrix would go through dgemm: other bits).
            # exp_phi_c is the same stack as the complex operand the
            # mode form's zgemv needs: cast once here, not by every
            # matmul (three per step) over all ns copies.
            stacked = (g.sel.size,) + b.exp.phi.shape
            self.groups.append(
                SimpleNamespace(
                    **vars(g),
                    exp_phi=np.broadcast_to(b.exp.phi, stacked),
                    exp_phi_c=np.broadcast_to(b.exp.phi.astype(np.complex128), stacked),
                    ejw=b.jw[g.rows],
                    minv=np.linalg.inv([mass[e] for e in g.elems.tolist()]),
                    dofs=b.dofs[g.rows],
                    signs=b.signs[g.rows],
                )
            )

    def normal_component(self, fns, *args, dtype=np.float64) -> np.ndarray:
        """(nsides, npts) values of fu nx + fv ny at the edge points for
        one (fu, fv) pair of functions of (x, y, *args) per tag."""
        u, v = (
            _sample([pair[c] for pair in fns], self._slices, self.x, self.y, args, dtype)
            for c in (0, 1)
        )
        return u * self.nx + v * self.ny

    def add_pressure_bc(self, rhs, w, ubn, nu: float, scale: float) -> None:
        """rhs += oint phi [-nu n.curl(w) - scale ubn] for the z-vorticity
        ``w`` (nelem, nq) and u_b . n ``ubn`` (nsides, npts)."""
        for g in self.groups:
            (ns, nm), npts = g.dofs.shape, g.jw.shape[1]
            # Element-local modal projection of the vorticity.
            tmp, w_loc = np.empty((ns, nm)), np.empty((ns, nm))
            blas.dgemv_batched(1.0, g.exp_phi, g.ejw * w[g.elems], 0.0, tmp)
            blas.dgemv_batched(1.0, g.minv, tmp, 0.0, w_loc)
            dwdx, dwdy = np.empty((ns, npts)), np.empty((ns, npts))
            blas.dgemv_batched(1.0, g.dphi_x, w_loc, 0.0, dwdx, trans=True)
            blas.dgemv_batched(1.0, g.dphi_y, w_loc, 0.0, dwdy, trans=True)
            term = -nu * (g.nx * dwdy - g.ny * dwdx) - scale * ubn[g.sel]
            charge(ns * 2.0 * nm * npts, ns * 8.0 * (nm * npts + npts + nm), "edge-load")
            local = (g.phi @ (g.jw * term)[..., None])[..., 0]
            np.add.at(rhs, g.dofs, g.signs * local)

    def add_pressure_bc_modes(self, rhs, k, wx, wy, wz, ubn, nu: float, scale: float) -> None:
        """The same term for a block of z-Fourier modes: rhs (nmodes,
        ndof), wavenumbers ``k``, complex vorticity components ``wx, wy,
        wz`` (nmodes, nelem, nq) and ``ubn`` (nmodes, nsides, npts)."""

        def charged_zgemv(a, x):
            # Real matrix, complex vector: 4 flops per element (2 mul +
            # 2 add), matrix traffic + complex vector in and out.
            m, n = a.shape[-2:]
            nvec = x[..., 0].size
            charge(nvec * 4.0 * m * n, nvec * (8.0 * m * n + 16.0 * (m + n)), "zgemv")
            return (a @ x[..., None])[..., 0]

        ik = 1j * k[:, None, None]
        for g in self.groups:
            phi_t, dx_t, dy_t = (np.swapaxes(a, 1, 2) for a in (g.phi, g.dphi_x, g.dphi_y))
            wz_loc, wx_loc, wy_loc = (
                charged_zgemv(g.minv, charged_zgemv(g.exp_phi_c, g.ejw * w[:, g.elems]))
                for w in (wz, wx, wy)
            )
            dwz_dx, dwz_dy = charged_zgemv(dx_t, wz_loc), charged_zgemv(dy_t, wz_loc)
            wx_edge, wy_edge = charged_zgemv(phi_t, wx_loc), charged_zgemv(phi_t, wy_loc)
            # n . curl(omega), z-Fourier form:
            #   nx (d omega_z/dy - ik omega_y) + ny (ik omega_x - d omega_z/dx)
            n_curl = g.nx * (dwz_dy - ik * wy_edge) + g.ny * (ik * wx_edge - dwz_dx)
            local = charged_zgemv(g.phi, g.jw * (-nu * n_curl - scale * ubn[:, g.sel]))
            for i in range(rhs.shape[0]):
                np.add.at(rhs[i], g.dofs, g.signs * local[i])

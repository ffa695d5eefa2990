"""Boundary (edge) quadrature and the boundary plans built on it.

Needed by the splitting scheme's high-order pressure boundary condition
(Karniadakis, Israeli & Orszag 1991): the pressure-Poisson right-hand
side carries the surface integral

    oint phi [ -nu n.(curl omega)_extrap - gamma0 (u_b^{n+1} . n)/dt ]

over the velocity-Dirichlet boundary.  :class:`EdgeQuadrature` holds,
for one (element, local edge) side, the physical edge points, outward
normal, edge weights, and the element basis (values and physical
derivatives) tabulated at those points.

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
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from ..linalg import blas
from ..linalg.counters import charge
from ..mesh.curved import make_element_map
from ..mesh.mapping import vertex_shape
from ..spectral.basis import bubble
from ..spectral.expansions import QuadExpansion, TriExpansion
from ..spectral.jacobi import gauss_jacobi
from .operators import elemental_mass

__all__ = ["EdgeQuadrature", "build_edge_quadrature", "DirichletPlan", "EdgeBatch"]

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

    def load(self, fvals: np.ndarray) -> np.ndarray:
        """(f, phi_i) over this edge, local (unsigned) coefficients."""
        m, n = self.phi.shape
        charge(2.0 * m * n, 8.0 * (m * n + n + m), "edge-load")
        return self.phi @ (self.jw * fvals)


@functools.cache
def _reference_edges(kind: str, order: int, n1d: int) -> tuple:
    """What a side's quadrature owes to the reference element alone, per
    local edge: the ``n1d`` Gauss points of the edge as (xi1, xi2,
    vertex shape tables there), their weights, and the order-``order``
    basis with its reference derivatives there (modes do not depend on
    the element's own quadrature order, so it is no part of the key).
    Tabulated once per process and read-only: every space of that kind
    and order shares it.
    """
    s, w = gauss_jacobi(n1d)
    exp = (TriExpansion if kind == "tri" else QuadExpansion)(order)
    edges = []
    for le in range(exp.nedges):
        xi1, xi2 = _PARAM[kind][le][0](s)
        shape = vertex_shape(kind, xi1, xi2)
        basis = exp.eval_basis_full(xi1, xi2)
        for table in (xi1, xi2, *shape, *basis):
            table.setflags(write=False)
        edges.append(((xi1, xi2, shape), w, *basis))
    return tuple(edges)


def build_edge_quadrature(
    space, sides: list[tuple[int, int]], nq: int | None = None
) -> list[EdgeQuadrature]:
    """Edge quadrature for the given (element, local_edge) sides."""
    out = []
    n1d = nq if nq is not None else space.order + 2
    for ei, le in sides:
        kind = space.mesh.elements[ei].kind
        pts, w, phi, d1, d2 = _reference_edges(kind, space.order, n1d)[le]
        ccw_sign = _PARAM[kind][le][1]
        emap = make_element_map(space.mesh, ei)
        x, y = emap.x(*pts)
        # Tangent along the parameter s by the chain rule on the map.
        j = emap.jacobian(*pts)
        dxi1, dxi2 = _param_derivative(kind, le)
        tx = j[:, 0, 0] * dxi1 + j[:, 0, 1] * dxi2
        ty = j[:, 1, 0] * dxi1 + j[:, 1, 1] * dxi2
        norm = np.hypot(tx, ty)
        nx = ccw_sign * ty / norm
        ny = -ccw_sign * tx / norm
        # Physical derivatives at the edge points.
        det = j[:, 0, 0] * j[:, 1, 1] - j[:, 0, 1] * j[:, 1, 0]
        dxi1_dx = j[:, 1, 1] / det
        dxi1_dy = -j[:, 0, 1] / det
        dxi2_dx = -j[:, 1, 0] / det
        dxi2_dy = j[:, 0, 0] / det
        dphi_x = d1 * dxi1_dx + d2 * dxi2_dx
        dphi_y = d1 * dxi1_dy + d2 * dxi2_dy
        out.append(
            EdgeQuadrature(
                elem=ei,
                local_edge=le,
                x=x,
                y=y,
                nx=nx,
                ny=ny,
                jw=w * norm,
                phi=phi,
                dphi_x=dphi_x,
                dphi_y=dphi_y,
            )
        )
    return out


def _param_derivative(kind: str, le: int) -> tuple[float, float]:
    """d(xi1, xi2)/ds of the edge parametrisation."""
    if kind == "quad":
        return {0: (1.0, 0.0), 1: (0.0, 1.0), 2: (1.0, 0.0), 3: (0.0, 1.0)}[le]
    return {0: (1.0, 0.0), 1: (-1.0, 1.0), 2: (0.0, 1.0)}[le]


def edge_physical_points(
    mesh, elem: int, local_edge: int, s_canonical: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Physical coordinates along an element edge at canonical
    (low->high vertex id) parameter values, honouring curved geometry."""
    param, _ = _PARAM[mesh.elements[elem].kind][local_edge]
    s = np.asarray(s_canonical, dtype=np.float64)
    if mesh.edge_orientation(elem, local_edge) < 0:
        s = -s
    xi1, xi2 = param(s)
    return make_element_map(mesh, elem).x(xi1, xi2)


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
        if len(self.tags) > 1:
            parts = [space.dirichlet_plan((tag,)) for tag in self.tags]
            self._lin, self._bub, self._wg = parts[0]._lin, parts[0]._bub, parts[0]._wg
            self._x, self._y, self._targets = (
                np.concatenate([getattr(p, name) for p in parts])
                for name in ("_x", "_y", "_targets")
            )
        else:
            parts = [self]
            mesh, dm = space.mesh, space.dofmap
            xg, wg = gauss_jacobi(space.order + 2)
            self._bub = np.array([bubble(k, xg) for k in range(space.order - 1)])
            self._wg = wg
            self._lin = np.array([0.5 * (1 - xg), 0.5 * (1 + xg)])
            x, y, targets = [], [], []
            for ei, le in mesh.boundary_sides(self.tags[0]):
                ends = sorted(mesh.elements[ei].edge_vertices(le))
                ex, ey = edge_physical_points(mesh, ei, le, xg)
                x.append(np.concatenate((mesh.vertices[ends, 0], ex)))
                y.append(np.concatenate((mesh.vertices[ends, 1], ey)))
                edge = dm.edge_dofs(dm.elem_edge_id(ei, le))
                targets.append(np.concatenate(([dm.vertex_dof(v) for v in ends], edge)))
            self._x = np.array(x).reshape(-1, xg.size + 2)
            self._y = np.array(y).reshape(-1, xg.size + 2)
            self._targets = np.array(targets, dtype=np.int64).reshape(-1, space.order + 1)
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

    ``x, y, nx, ny`` are (nsides, npts) over all sides.  ``groups`` has,
    per element kind, its ``ns`` sides stacked: ``sel`` (positions in
    the side order), ``elems``; the elements' basis ``exp_phi`` (ns,
    nmodes, nq; ``exp_phi_c`` is the same stack as complex), weights
    ``ejw`` (ns, nq), inverse mass ``minv`` (ns, nmodes, nmodes);
    the :class:`EdgeQuadrature` fields ``phi, dphi_x, dphi_y`` (ns,
    nmodes, npts) and ``nx, ny, jw`` (ns, npts); ``dofs, signs``.  The
    surface term is two short functions over them, real field and
    complex Fourier modes, because their charge labels differ
    (``dgemv``/``edge-load`` against ``zgemv``).
    """

    # repro: waive[accounting] M_e^-1 is set-up, never charged by the solvers' loops either
    def __init__(self, space, tags):
        dm = space.dofmap
        per_tag = [build_edge_quadrature(space, space.mesh.boundary_sides(t)) for t in tags]
        self._slices = _tag_slices([len(q) for q in per_tag])
        quads = [eq for q in per_tag for eq in q]
        # One mass matrix per distinct element, in first-appearance
        # order (the order the per-solver set-up loops charged them in).
        mass: dict[int, np.ndarray] = {}
        for eq in quads:
            if eq.elem not in mass:
                mass[eq.elem] = elemental_mass(dm.expansion(eq.elem), space.geom[eq.elem])

        def stack(name, sel=range(len(quads))):
            return np.array([getattr(quads[i], name) for i in sel])

        self.x, self.y, self.nx, self.ny = (
            stack(name).reshape(-1, space.order + 2) for name in ("x", "y", "nx", "ny")
        )
        kinds = [space.mesh.elements[eq.elem].kind for eq in quads]
        self.groups = []
        for kind in dict.fromkeys(kinds):
            sel = [i for i, k in enumerate(kinds) if k == kind]
            elems, phi = stack("elem", sel), dm.expansion(quads[sel[0]].elem).phi
            # exp_phi is a zero-stride stack, not a shared matrix: the
            # stacked kernels then run one dgemv per side as the loops
            # did (a shared matrix would go through dgemm: other bits).
            # exp_phi_c is the same stack as the complex operand the
            # mode form's zgemv needs: cast once here, not by every
            # matmul (three per step) over all ns copies.
            stacked = (len(sel),) + phi.shape
            dofs, signs = dm.rows(elems)
            self.groups.append(
                SimpleNamespace(
                    sel=np.array(sel),
                    elems=elems,
                    exp_phi=np.broadcast_to(phi, stacked),
                    exp_phi_c=np.broadcast_to(phi.astype(np.complex128), stacked),
                    ejw=np.array([space.geom[e].jw for e in elems]),
                    minv=np.linalg.inv([mass[e] for e in elems]),
                    dofs=dofs,
                    signs=signs,
                    **{n: stack(n, sel) for n in ("phi", "dphi_x", "dphi_y", "nx", "ny", "jw")},
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

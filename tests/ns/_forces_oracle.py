"""Frozen reference: the wall forces integrated one boundary side at a time.

``traction`` / ``body_forces`` are the bodies of ``repro.ns.forces``
before the traction ran over the edge quadrature's kind groups: one
``EdgeQuadrature`` a side (``tests/mesh/_metric_oracle``'s
``old_edge_quadrature``, the side-by-side walk), five counted ``dgemv``
and four counted ``ddot`` per side, accumulated in side order.  The
signed gather is ``tests/assembly/_dofmap_oracle``'s per-element view.
Test-only; do not import from ``src/``.
"""

from __future__ import annotations

import numpy as np

from repro.ns.forces import BodyForces

from ..assembly._dofmap_oracle import gather
from ..linalg._vector_kernels import dgemv
from ..mesh._metric_oracle import old_edge_quadrature


def traction(space, eq, u_hat, v_hat, p_hat, nu):
    """Pointwise traction on one edge: (tx_p, ty_p, tx_v, ty_v)."""
    dm = space.dofmap
    ei = eq.elem
    u_loc = gather(dm, ei, u_hat)
    v_loc = gather(dm, ei, v_hat)
    p_loc = gather(dm, ei, p_hat)
    p, dudx, dudy, dvdx, dvdy = (np.empty(eq.npts) for _ in range(5))
    dgemv(1.0, eq.phi, p_loc, 0.0, p, trans=True)
    dgemv(1.0, eq.dphi_x, u_loc, 0.0, dudx, trans=True)
    dgemv(1.0, eq.dphi_y, u_loc, 0.0, dudy, trans=True)
    dgemv(1.0, eq.dphi_x, v_loc, 0.0, dvdx, trans=True)
    dgemv(1.0, eq.dphi_y, v_loc, 0.0, dvdy, trans=True)
    # Body-outward normal = -(fluid-outward normal of the edge rule).
    nx, ny = -eq.nx, -eq.ny
    tx_p = -p * nx
    ty_p = -p * ny
    tx_v = nu * (2.0 * dudx * nx + (dudy + dvdx) * ny)
    ty_v = nu * ((dudy + dvdx) * nx + 2.0 * dvdy * ny)
    return tx_p, ty_p, tx_v, ty_v


def body_forces(space, u_hat, v_hat, p_hat, nu, tag="wall") -> BodyForces:
    """Integrate the traction over the tagged boundary, side by side."""
    edge_quads = old_edge_quadrature(space, space.mesh.boundary_sides(tag))
    pd = pl = vd = vl = 0.0
    for eq in edge_quads:
        tx_p, ty_p, tx_v, ty_v = traction(space, eq, u_hat, v_hat, p_hat, nu)
        pd += eq.integrate(tx_p)
        pl += eq.integrate(ty_p)
        vd += eq.integrate(tx_v)
        vl += eq.integrate(ty_v)
    return BodyForces(
        drag=pd + vd,
        lift=pl + vl,
        pressure_drag=pd,
        pressure_lift=pl,
        viscous_drag=vd,
        viscous_lift=vl,
    )

"""Bluff-body wake DNS: the paper's serial application (Section 4.1).

Simulates the 2-D flow past a circular cylinder on the Figure 11 (left)
domain, with the body's wall edges on the exact circle (the paper's
iso-parametric cylinder), using the 7-stage splitting timestep at
Re = 50, and prints the drag and lift on the body and the per-stage
breakdown: the reduced-size version of the run behind Table 1 and
Figure 12.

What the run shows is the impulsive start: from a uniform field the
drag relaxes as the attached wake grows behind the body.  It does not
show vortex shedding.  The inflow, the mesh and the initial field are
symmetric about y = 0, so nothing breaks the symmetry: the lift stays
at round-off.  Shedding at Re = 50 would need a perturbation and
O(100) time units to set in, while the default 60 steps reach t = 1.2.
So the lift never completes a period and no Strouhal number is printed.

Run:  python examples/cylinder_wake.py  [--steps N]
"""

import argparse

import numpy as np

from repro.assembly.space import FunctionSpace
from repro.mesh.generators import bluff_body_mesh
from repro.ns.nektar2d import NavierStokes2D


def main(steps: int = 60):
    mesh = bluff_body_mesh(m=3, nr=1, curved=True)
    space = FunctionSpace(mesh, 4)
    print(
        f"bluff-body mesh: {mesh.nelements} elements, order {space.order}, "
        f"{space.ndof} dofs ({space.ndof * 3} over u, v, p)"
    )

    one = lambda x, y, t: 1.0  # noqa: E731
    zero = lambda x, y, t: 0.0  # noqa: E731
    ns = NavierStokes2D(
        space,
        nu=0.02,  # Re = U D / nu = 50 on the diameter-1 cylinder
        dt=2e-2,
        velocity_bcs={"inflow": (one, zero), "wall": (zero, zero)},
        pressure_dirichlet=("outflow",),
    )
    ns.set_initial(one, zero)

    # Probe in the near wake (x = 2 diameters downstream) and a force
    # recorder on the cylinder (the drag/lift signals wake DNS is for).
    from repro.ns.forces import ForceRecorder

    xq, yq = space.coords()
    probe = np.unravel_index(
        np.argmin((xq - 2.0) ** 2 + yq**2), xq.shape
    )
    rec = ForceRecorder(ns, "wall")

    print(
        f"\n{'step':>5} {'t':>7} {'KE':>10} {'div':>10} "
        f"{'v(probe)':>10} {'drag':>8} {'lift':>8}"
    )
    for k in range(steps):
        ns.step()
        f = rec.record()
        if (k + 1) % max(1, steps // 12) == 0:
            _, v = ns.velocity()
            print(
                f"{ns.step_count:>5} {ns.t:>7.2f} {ns.kinetic_energy():>10.3f} "
                f"{ns.divergence_norm():>10.2e} {v[probe]:>10.4f} "
                f"{f.drag:>8.3f} {f.lift:>8.3f}"
            )

    st = rec.strouhal(diameter=1.0, velocity=1.0)
    if st is None:
        print("\nno full shedding period seen yet, so no Strouhal number")
    else:
        print(f"\nStrouhal number St = f D / U = {st:.3f}")

    # Write the final field for ParaView inspection.
    from repro.io import vertex_velocity_fields, write_vtk

    out = write_vtk(
        "cylinder_wake.vtk", mesh, vertex_velocity_fields(space, ns.u_hat, ns.v_hat)
    )
    print(f"\nwrote {out}")

    print("\nPer-stage CPU share of the timestep (Figure 12 instrument):")
    for stage, pct in ns.stage_percentages("cpu").items():
        print(f"  {stage:<18} {pct:5.1f}%")


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--steps", type=int, default=60)
    main(parser.parse_args().steps)

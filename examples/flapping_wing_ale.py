"""Flapping-wing ALE simulation: the paper's Section 4.2.2 application.

A NACA 4420 wing (Figure 11 right) heaves inside a body-fitted mesh.
The mesh velocity is *solved* from a Laplace problem driven by the
body's motion ("an extra Helmholtz solve, associated with the
calculation of the velocity of the moving mesh"), the convective term
uses u - w_mesh, and all systems use diagonally preconditioned CG —
exactly the NekTar-ALE structure behind Table 3.

Run:  python examples/flapping_wing_ale.py  [--steps N]
"""

import argparse

import numpy as np

from repro.mesh.generators import wing_mesh
from repro.ns.ale import ALENavierStokes2D
from repro.ns.stages import group_ale


def main(steps: int = 20):
    mesh = wing_mesh(m=6, nr=1)
    print(f"wing mesh: {mesh.nelements} elements, {mesh.nvertices} vertices")

    # Heaving motion: the wing oscillates vertically.
    amp, omega = 0.15, 2.0
    heave = lambda x, y, t: 0.0, lambda x, y, t: amp * omega * np.cos(omega * t)

    one = lambda x, y, t: 1.0  # noqa: E731
    zero = lambda x, y, t: 0.0  # noqa: E731
    body_u = lambda x, y, t: 0.0  # noqa: E731
    body_v = lambda x, y, t: amp * omega * np.cos(omega * t)  # noqa: E731

    ns = ALENavierStokes2D(
        mesh,
        order=3,
        nu=0.05,
        dt=1e-2,
        velocity_bcs={"inflow": (one, zero), "wall": (body_u, body_v)},
        pressure_dirichlet=("outflow",),
        motion="solve",
        body_velocity=(body_u, body_v),
        outer_tags=("inflow", "outflow", "side"),
    )
    ns.set_initial(one, zero)

    wall_vids = np.unique(mesh.side_vertices(mesh.boundary_sides("wall")))

    print(f"\n{'step':>5} {'t':>7} {'KE':>10} {'wing y-shift':>13} {'CG iters':>20}")
    for k in range(steps):
        ns.step()
        if (k + 1) % max(1, steps // 10) == 0:
            shift = float(
                np.mean(mesh.vertices[wall_vids, 1])
                - np.mean(ns.vertices0[wall_vids, 1])
            )
            expect = amp * np.sin(omega * ns.t)
            iters = dict(ns.cg_iterations)
            print(
                f"{ns.step_count:>5} {ns.t:>7.2f} {ns.kinetic_energy():>10.3f} "
                f"{shift:>6.3f}/{expect:>6.3f} {str(iters):>20}"
            )

    groups = group_ale(ns.stage_percentages("cpu"))
    print("\nALE stage groups (Figures 15-16 instrument):")
    print(f"  a (steps 1-4, 6): {groups['a']:5.1f}%")
    print(f"  b (pressure solve): {groups['b']:5.1f}%")
    print(f"  c (viscous + mesh-velocity solves): {groups['c']:5.1f}%")


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--steps", type=int, default=20)
    main(parser.parse_args().steps)

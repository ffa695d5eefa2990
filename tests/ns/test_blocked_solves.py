"""NekTar-F goldens: blocked multi-RHS solves and fused transposes.

Recorded from the deleted per-RHS stage-5/7 loops (and checked against
the deleted 15-Alltoall per-field stage 2): the step must keep the same
trajectory, charge the same per-step OpCounter totals (total and per
label), leave the virtual-machine per-stage cost model — the source of
the Table 2 times and the Figure 13-14 stage breakdowns — unchanged,
and pay exactly two Alltoalls per rank and step.  Field checksums agree
with the per-RHS loop to round-off only (1e-11 of an O(1) field), so
they are compared at 1e-9; everything else is exact or 1e-12.
"""

import numpy as np
import pytest

from repro.assembly.space import FunctionSpace
from repro.linalg.counters import OpCounter
from repro.machines.catalog import CPUS, NETWORKS
from repro.machines.network import NetworkModel
from repro.mesh.generators import bluff_body_mesh, rectangle_quads
from repro.ns.nektar_f import NekTarF
from repro.ns.stages import STAGES
from repro.obs import scoped
from repro.parallel.simmpi import VirtualCluster

from ..golden import check
from ..linalg._snapshot import snapshot
from .test_nektar_f import Beltrami

NET = NetworkModel("t", latency_us=5, bandwidth=1e9)


def _state(nf):
    return {
        name: float(np.abs(getattr(nf, name)).sum())
        for name in ("u_hat", "v_hat", "w_hat", "p_hat")
    }


def _beltrami_solver(comm, **kw):
    """Order-5 Beltrami flow on the 108-element bluff mesh, 8 planes."""
    bel = Beltrami(nu=0.1)
    space = FunctionSpace(bluff_body_mesh(m=3, nr=1), 5)
    bcs = {
        t: (bel.u_amp, bel.v_amp, bel.w_amp)
        for t in ("inflow", "outflow", "side", "wall")
    }
    nf = NekTarF(comm, space, nz=8, nu=0.1, dt=5e-3, velocity_bcs=bcs, **kw)
    nf.set_initial(bel.u_amp, bel.v_amp, bel.w_amp)
    return nf


def blocked_step():
    """Per-step charges and final fields, including the order-1 startup
    step and the gamma0 switch at second order."""

    def rank_fn(comm):
        nf = _beltrami_solver(comm, time_order=2)
        steps = []
        for _ in range(3):
            with OpCounter() as c:
                nf.step()
            snap = snapshot(c)
            steps.append([snap.flops, snap.bytes, snap.label_charges()])
        config = {
            "elements": nf.space.nelem,
            "ndof": nf.space.ndof,
            "local_modes": nf.nlocal,
        }
        return {"config": config, "steps": steps, "state": _state(nf)}

    return VirtualCluster(1, NET).run(rank_fn)[0]


def stage_cost_model():
    """Virtual per-stage CPU/wall times (Figure 13-14's breakdown, and
    through the pricing layer Table 2's per-step times)."""

    def rank_fn(comm):
        nf = _beltrami_solver(comm, charge_compute=True)
        nf.run(2)
        return {
            "records": {s: [r.cpu, r.wall] for s, r in nf.virtual.records.items()},
            "percentages": nf.virtual.percentages("cpu"),
        }

    return VirtualCluster(1, NET, cpu=CPUS["pentium-ii-450"]).run(rank_fn)[0]


def trajectory(nprocs):
    """Five steps of a 3-D perturbed channel on ``nprocs`` ranks: state,
    per-rank clocks and ledgers, wire traffic, Alltoall count."""
    mesh = rectangle_quads(3, 2, 0.0, 2.0 * np.pi, 0.0, np.pi)
    nsteps = 5

    def amp_u(m, x, y, t):
        return 1.0 if m == 0 else 0.0

    def zero(m, x, y, t):
        return 0.0

    def amp_w0(m, x, y, t):
        # A non-zero higher mode so the non-linear products carry real
        # three-dimensional data from the first step.
        return complex(0.1 * np.sin(x)) if m == 1 else 0.0

    def rank_fn(comm):
        with OpCounter() as c:
            nf = NekTarF(
                comm,
                FunctionSpace(mesh, 4),
                nz=8,
                nu=0.05,
                dt=2e-3,
                velocity_bcs={t: (amp_u, zero, zero) for t in ("left", "top", "bottom")},
                pressure_dirichlet=("right",),
            )
            nf.set_initial(amp_u, zero, amp_w0)
            nf.run(nsteps)
        snap = snapshot(c)
        ledger = {
            "virtual_wall": comm.wall,
            "virtual_cpu": comm.cpu_time,
            "sent_bytes": comm._st.sent_bytes,
            "recv_bytes": comm._st.recv_bytes,
            "messages": comm._st.messages,
            "flops": snap.flops,
            "bytes": snap.bytes,
            "by_label": snap.label_charges(),
        }
        return ledger, _state(nf)

    with scoped() as registry:
        res = VirtualCluster(nprocs, NETWORKS["RoadRunner, myr-internode"]).run(rank_fn)
    alltoalls = registry.snapshot()["fourier.transpose.alltoalls"]["value"]
    ranks = [r[0] for r in res]
    return {
        "ranks": ranks,
        "state": [r[1] for r in res],
        "totals": {
            "alltoalls_per_rank_step": alltoalls / (nprocs * nsteps),
            "virtual_wall_s": max(r["virtual_wall"] for r in ranks),
            "wire_bytes_total": sum(r["sent_bytes"] for r in ranks),
            "messages_total": sum(r["messages"] for r in ranks),
            "flops_total": sum(r["flops"] for r in ranks),
            "bytes_total": sum(r["bytes"] for r in ranks),
        },
    }


GOLDEN_SECTIONS = {
    "nektar_f.blocked_step": blocked_step,
    "nektar_f.stage_cost_model": stage_cost_model,
    "nektar_f.trajectory_2rank": lambda: trajectory(2),
    "nektar_f.trajectory_4rank": lambda: trajectory(4),
}


def _check_with_state(section, fp):
    for key, value in fp.items():
        loose = {"rel": 1e-9, "abs_tol": 1e-9} if key == "state" else {}
        check(f"{section}/{key}", value, **loose)


def test_blocked_step_matches_reference_with_identical_charges():
    fp = blocked_step()
    _check_with_state("nektar_f.blocked_step", fp)
    # The problem shape the section was recorded at.
    assert fp["config"] == {"elements": 108, "ndof": 2840, "local_modes": 4}


def test_blocked_solves_leave_stage_cost_model_unchanged():
    fp = stage_cost_model()
    assert set(fp["records"]) == set(STAGES)
    check("nektar_f.stage_cost_model", fp)


@pytest.mark.parametrize("nprocs", [2, 4])
def test_trajectory_golden(nprocs):
    fp = trajectory(nprocs)
    _check_with_state(f"nektar_f.trajectory_{nprocs}rank", fp)
    totals = fp["totals"]
    assert totals["alltoalls_per_rank_step"] == 2.0
    assert totals["wire_bytes_total"] == sum(r["recv_bytes"] for r in fp["ranks"])
    if nprocs == 2:
        # The fused pipeline's whole-run totals, exact.
        assert totals == {
            "alltoalls_per_rank_step": 2.0,
            "virtual_wall_s": 0.008154545454545454,
            "wire_bytes_total": 518400.0,
            "messages_total": 20,
            "flops_total": 20227692.0,
            "bytes_total": 32383328.0,
        }

"""NekTar-F checkpoint/restart: bitwise continuation and crash recovery."""

import numpy as np
import pytest

from repro.assembly.space import FunctionSpace
from repro.io.writers import Checkpoint
from repro.machines.network import NetworkModel
from repro.mesh.generators import rectangle_quads
from repro.ns.nektar_f import NekTarF
from repro.parallel.faults import CrashSpec, FaultPlan, RankFailure
from repro.parallel.simmpi import VirtualCluster

from .test_nektar_f import Beltrami

NET = NetworkModel("t", latency_us=5, bandwidth=1e9)
TAGS = ("left", "right", "top", "bottom")
MESH = rectangle_quads(1, 1, 0.0, 2 * np.pi, 0.0, 2 * np.pi)


def _make_solver(comm, bel, nz=4, dt=5e-3, order=2):
    space = FunctionSpace(MESH, 4)
    bcs = {t: (bel.u_amp, bel.v_amp, bel.w_amp) for t in TAGS}
    nf = NekTarF(
        comm, space, nz=nz, nu=bel.nu, dt=dt, velocity_bcs=bcs,
        time_order=order,
    )
    nf.set_initial(bel.u_amp, bel.v_amp, bel.w_amp)
    return nf


def _state(nf):
    return (
        nf.u_hat.copy(), nf.v_hat.copy(), nf.w_hat.copy(), nf.p_hat.copy(),
        nf.t, nf.step_count,
    )


def test_restart_is_bitwise_identical(tmp_path):
    """Restoring the step-3 checkpoint and continuing must reproduce an
    uninterrupted run exactly (coefficients AND scheme histories round-trip)."""
    bel = Beltrami(nu=0.1)

    def straight(comm):
        nf = _make_solver(comm, bel)
        nf.run(3, checkpoint_every=3, checkpoint_dir=str(tmp_path))
        nf.run(3)
        return _state(nf)

    def restarted(comm):
        nf = _make_solver(comm, bel)
        step = nf.restore_checkpoint(str(tmp_path))
        assert step == 3 and nf.step_count == 3
        assert len(nf.history) == nf.scheme.order
        nf.run(3)
        return _state(nf)

    ref = VirtualCluster(2, NET).run(straight)
    out = VirtualCluster(2, NET).run(restarted)
    for a, b in zip(ref, out):
        for xa, xb in zip(a, b):
            if isinstance(xa, np.ndarray):
                assert np.array_equal(xa, xb)  # bitwise, not allclose
            else:
                assert xa == xb


def test_latest_step_needs_complete_rank_set(tmp_path):
    bel = Beltrami(nu=0.1)

    def rank_fn(comm):
        nf = _make_solver(comm, bel)
        nf.run(4, checkpoint_every=2, checkpoint_dir=str(tmp_path))

    VirtualCluster(2, NET).run(rank_fn)
    assert Checkpoint.latest_step(tmp_path, 2) == 4
    # A crash mid-write leaves an incomplete newest set: restart skips it.
    Checkpoint.path(tmp_path, 4, 1).unlink()
    assert Checkpoint.latest_step(tmp_path, 2) == 2
    Checkpoint.path(tmp_path, 2, 0).unlink()
    assert Checkpoint.latest_step(tmp_path, 2) is None
    assert Checkpoint.latest_step(tmp_path / "nope", 2) is None


def test_restore_rejects_changed_layout(tmp_path):
    bel = Beltrami(nu=0.1)

    def write(comm):
        nf = _make_solver(comm, bel)
        nf.run(2, checkpoint_every=2, checkpoint_dir=str(tmp_path))

    VirtualCluster(2, NET).run(write)

    def reread(comm):
        nf = _make_solver(comm, bel)
        nf.restore_checkpoint(str(tmp_path))

    # 1-rank solver owns all modes; rank 0's 2-rank file holds half.
    with pytest.raises(ValueError, match="rank layout"):
        VirtualCluster(1, NET).run(reread)


def test_restore_rejects_a_longer_history_than_the_solver_order(tmp_path):
    """An order-3 history must not lose its newest entry to an order-2
    solver's shorter history: the restore raises, naming both orders."""
    bel = Beltrami(nu=0.1)

    def write(comm):
        nf = _make_solver(comm, bel, order=3)
        nf.run(3, checkpoint_every=3, checkpoint_dir=str(tmp_path))

    VirtualCluster(1, NET).run(write)

    def reread(comm):
        nf = _make_solver(comm, bel, order=2)
        nf.restore_checkpoint(str(tmp_path))

    with pytest.raises(ValueError, match="order-3 scheme.*order-2 scheme"):
        VirtualCluster(1, NET).run(reread)


def test_unreadable_rank_file_raises_a_value_error_naming_it(tmp_path):
    bel = Beltrami(nu=0.1)

    def write(comm):
        nf = _make_solver(comm, bel)
        nf.run(2, checkpoint_every=2, checkpoint_dir=str(tmp_path))

    VirtualCluster(2, NET).run(write)
    (rank1,) = tmp_path.glob("*step*2_rank0001.npz")
    rank1.write_bytes(rank1.read_bytes()[: rank1.stat().st_size // 2])

    def reread(comm):
        nf = _make_solver(comm, bel)
        nf.restore_checkpoint(str(tmp_path))

    with pytest.raises(ValueError, match=rank1.name):
        VirtualCluster(2, NET).run(reread)


def test_run_checkpoint_arg_validation():
    bel = Beltrami(nu=0.1)

    def rank_fn(comm):
        nf = _make_solver(comm, bel)
        with pytest.raises(ValueError, match="together"):
            nf.run(1, checkpoint_every=2)
        with pytest.raises(ValueError, match=">= 1"):
            nf.run(1, checkpoint_every=0, checkpoint_dir="/tmp/x")

    VirtualCluster(1, NET).run(rank_fn)


def test_crash_restart_recovers_fault_free_fields(tmp_path):
    """The acceptance scenario: rank 1 dies at step 4; the run is
    restarted from the last complete checkpoint and must land on the
    fault-free fields (bitwise here — faults perturb clocks, not data)."""
    bel = Beltrami(nu=0.1)
    nsteps = 6

    def reference(comm):
        nf = _make_solver(comm, bel)
        nf.run(nsteps)
        return _state(nf)

    ref = VirtualCluster(2, NET).run(reference)

    def faulty(comm):
        nf = _make_solver(comm, bel)
        try:
            nf.run(nsteps, checkpoint_every=2, checkpoint_dir=str(tmp_path))
            return "finished"
        except RankFailure as e:
            return f"lost rank {e.rank}"

    plan = FaultPlan(crashes=(CrashSpec(rank=1, at_step=4),))
    res = VirtualCluster(2, NET, faults=plan).run(faulty)
    assert res[0] == "lost rank 1"
    assert res[1] is None  # the crashed rank produced no result
    last = Checkpoint.latest_step(tmp_path, 2)
    assert last == 4  # checkpoints at steps 2 and 4 both completed

    def restarted(comm):
        nf = _make_solver(comm, bel)
        nf.restore_checkpoint(str(tmp_path))
        nf.run(nsteps - nf.step_count)
        return _state(nf)

    out = VirtualCluster(2, NET).run(restarted)
    for a, b in zip(ref, out):
        for xa, xb in zip(a, b):
            if isinstance(xa, np.ndarray):
                assert np.array_equal(xa, xb)
            else:
                assert xa == xb

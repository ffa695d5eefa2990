"""Coverage for small paths not exercised elsewhere."""

import numpy as np
import pytest

from repro.machines.catalog import MACHINES, machine, network
from repro.machines.network import NetworkModel
from repro.parallel.simmpi import VirtualCluster

NET = NetworkModel("t", latency_us=5, bandwidth=1e9)


def test_machine_and_network_lookup_errors():
    with pytest.raises(KeyError):
        machine("Cray-1")
    with pytest.raises(KeyError):
        network("token-ring")
    with pytest.raises(KeyError):
        MACHINES["Muses"].network("myrinet")
    assert MACHINES["RoadRunner"].network("myrinet").bandwidth > 0


def test_machine_spec_ram_per_proc():
    spec = MACHINES["SP2-Silver"]
    assert spec.ram_per_proc == pytest.approx(spec.ram_per_node / 4)


def test_cluster_aggregate_clocks():
    def fn(comm):
        comm.compute(0.1 * (comm.rank + 1))
        return None

    cl = VirtualCluster(3, NET)
    cl.run(fn)
    assert cl.max_wall == pytest.approx(0.3)
    assert cl.max_cpu == pytest.approx(0.3)


def test_sendrecv_exchange():
    def fn(comm):
        partner = 1 - comm.rank
        got = comm.sendrecv(partner, np.full(4, float(comm.rank)), partner)
        return float(got[0])

    res = VirtualCluster(2, NET).run(fn)
    assert res == [1.0, 0.0]


def test_repro_all_entry(capsys):
    from repro.__main__ import main

    assert main(["all"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out and "Table 2" in out and "Table 3" in out


def test_stats_of_rank_traffic():
    def fn(comm):
        if comm.rank == 0:
            comm.send(1, np.zeros(100))
        else:
            comm.recv(0)

    cl = VirtualCluster(2, NET)
    cl.run(fn)
    assert cl.ranks[0].sent_bytes == 800
    assert cl.ranks[1].recv_bytes == 800
    assert cl.ranks[0].messages == 1


def test_solvers_expose_bandwidth_and_lambda():
    from repro.assembly.space import FunctionSpace
    from repro.mesh.generators import rectangle_quads
    from repro.solvers.helmholtz import HelmholtzDirect

    space = FunctionSpace(rectangle_quads(2, 2), 4)
    solver = HelmholtzDirect(space, 2.5, ("left",))
    assert solver.lam == 2.5
    assert solver.op.bandwidth >= 0
    # bc_values for a function.
    vals = solver.bc_values(lambda x, y: x + 2 * y)
    assert vals is not None and vals.size == solver.dirichlet_dofs.size


def test_group_ale_missing_stage_keys():
    from repro.ns.stages import group_ale

    groups = group_ale({"5:pressure-solve": 40.0, "7:viscous-solve": 60.0})
    assert groups["a"] == 0.0
    assert groups["b"] == 40.0
    assert groups["c"] == 60.0


def test_elemental_operator_error_branches():
    from repro.assembly.operators import (
        elemental_helmholtz,
        elemental_helmholtz_batched,
        elemental_load,
    )
    from repro.assembly.space import FunctionSpace
    from repro.mesh.generators import rectangle_quads

    space = FunctionSpace(rectangle_quads(1, 1), 3)
    exp = space.dofmap.expansion(0)
    gf = space.geom[0]
    with pytest.raises(ValueError, match="quadrature points"):
        elemental_load(exp, gf, np.zeros(gf.nq + 1))
    with pytest.raises(ValueError, match="Helmholtz constant"):
        elemental_helmholtz(exp, gf, -1.0)
    b = space.batches()[0]
    with pytest.raises(ValueError, match="Helmholtz constant"):
        elemental_helmholtz_batched(b.exp, b.jw, b.dxi, -1.0)
    with pytest.raises(ValueError, match="unknown elemental operator"):
        space.elemental_matrices("advection")


def test_space_batched_shape_validation():
    from repro.assembly.space import FunctionSpace
    from repro.mesh.generators import rectangle_quads

    space = FunctionSpace(rectangle_quads(2, 1), 3)
    good = np.zeros((space.nelem, space.nq))
    with pytest.raises(ValueError, match="quadrature points"):
        space.load_vector(np.zeros((space.nelem, space.nq + 1)))
    with pytest.raises(ValueError, match="quadrature points"):
        space.grad_load_vector(good, np.zeros((space.nelem + 1, space.nq)))
    # The per-element switch is gone: it fails as any unknown keyword.
    with pytest.raises(TypeError, match="batched"):
        FunctionSpace(rectangle_quads(2, 1), 3, batched=False)


def test_condensation_error_branches():
    from repro.assembly.condensation import CondensedOperator
    from repro.assembly.space import FunctionSpace
    from repro.mesh.generators import rectangle_quads

    space = FunctionSpace(rectangle_quads(2, 2), 4)
    mats = space.elemental_matrices("helmholtz", 1.0)
    # Dirichlet dofs must live on the boundary system.
    with pytest.raises(ValueError, match="boundary"):
        CondensedOperator(space, mats, [space.ndof - 1])
    op = CondensedOperator(space, mats)
    with pytest.raises(ValueError, match="global dofs"):
        op.solve(np.zeros(space.ndof - 1))
    # A singular interior block must fail loudly.
    bad = [m.copy() for m in mats]
    nb = len(space.dofmap.expansion(0).boundary_modes)
    bad[0][nb:, nb:] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        CondensedOperator(space, bad)


def test_condensation_rejects_interior_first_ordering(monkeypatch):
    from repro.assembly.condensation import CondensedOperator
    from repro.assembly.space import FunctionSpace
    from repro.mesh.generators import rectangle_quads

    space = FunctionSpace(rectangle_quads(1, 1), 3)
    mats = space.elemental_matrices("mass")
    exp = space.dofmap.expansion(0)
    bad_order = list(reversed(exp.boundary_modes))
    monkeypatch.setattr(
        type(exp), "boundary_modes", property(lambda self: bad_order)
    )
    with pytest.raises(ValueError, match="boundary modes first"):
        CondensedOperator(space, mats)

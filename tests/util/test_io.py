import numpy as np
import pytest

from repro.assembly.space import FunctionSpace
from repro.io.writers import Checkpoint, vertex_velocity_fields, write_vtk
from repro.mesh.generators import rectangle_quads
from repro.ns.nektar2d import NavierStokes2D

from .._exact import TaylorVortex
from .._meshes import rectangle_tris


def test_write_vtk_structure(tmp_path):
    mesh = rectangle_quads(2, 2)
    field = np.arange(mesh.nvertices, dtype=float)
    path = write_vtk(tmp_path / "out.vtk", mesh, {"f": field})
    text = path.read_text()
    assert text.startswith("# vtk DataFile Version 3.0")
    assert f"POINTS {mesh.nvertices} double" in text
    assert f"CELLS {mesh.nelements}" in text
    assert "SCALARS f double 1" in text
    # quad cell type 9
    assert "\n9\n" in text


def test_write_vtk_triangles(tmp_path):
    mesh = rectangle_tris(1, 1)
    path = write_vtk(tmp_path / "t.vtk", mesh)
    assert "\n5\n" in path.read_text()  # VTK_TRIANGLE


def test_write_vtk_field_shape_check(tmp_path):
    mesh = rectangle_quads(1, 1)
    with pytest.raises(ValueError):
        write_vtk(tmp_path / "bad.vtk", mesh, {"f": np.ones(3)})


def make_solver():
    tv = TaylorVortex(nu=0.05)
    mesh = rectangle_quads(2, 2, 0.0, np.pi, 0.0, np.pi)
    space = FunctionSpace(mesh, 4)
    bcs = {
        t: (
            lambda x, y, tt: float(tv.u(x, y, tt)),
            lambda x, y, tt: float(tv.v(x, y, tt)),
        )
        for t in ("left", "right", "top", "bottom")
    }
    ns = NavierStokes2D(space, 0.05, 5e-3, bcs)
    ns.set_initial(lambda x, y, t: tv.u(x, y, 0), lambda x, y, t: tv.v(x, y, 0))
    return ns


def test_checkpoint_roundtrip(tmp_path):
    ns = make_solver()
    ns.run(3)
    path = Checkpoint.save(tmp_path, ns)
    # renamed into place: no temporary file is left, and a serial
    # solver's one file is a complete rank-0-of-1 set
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    assert Checkpoint.latest_step(tmp_path, 1) == 3

    ns2 = make_solver()
    assert Checkpoint.load(tmp_path, ns2) == 3
    np.testing.assert_array_equal(ns2.u_hat, ns.u_hat)
    np.testing.assert_array_equal(ns2.p_hat, ns.p_hat)
    assert ns2.t == ns.t
    assert ns2.step_count == 3


def test_checkpoint_restart_continues_consistently(tmp_path):
    # a 5-step run == 3 steps, checkpoint, restore, 2 more steps, to the
    # bit: the splitting history round-trips, so the ramp does not restart.
    ns_full = make_solver()
    ns_full.run(5)

    ns = make_solver()
    ns.run(3)
    Checkpoint.save(tmp_path, ns)
    ns2 = make_solver()
    Checkpoint.load(tmp_path, ns2)
    ns2.run(2)
    assert ns2.step_count == 5 and ns2.t == ns_full.t
    for f in ("u_hat", "v_hat", "p_hat"):
        np.testing.assert_array_equal(getattr(ns2, f), getattr(ns_full, f))


def test_checkpoint_shape_mismatch(tmp_path):
    ns = make_solver()
    Checkpoint.save(tmp_path, ns)
    mesh = rectangle_quads(1, 1)
    space = FunctionSpace(mesh, 3)
    other = NavierStokes2D(space, 0.1, 1e-2, {}, pressure_dirichlet=("left",))
    with pytest.raises(ValueError):
        Checkpoint.load(tmp_path, other)


def test_vertex_velocity_fields():
    ns = make_solver()
    fields = vertex_velocity_fields(ns.space, ns.u_hat, ns.v_hat)
    assert set(fields) == {"u", "v"}
    assert fields["u"].shape == (ns.space.mesh.nvertices,)

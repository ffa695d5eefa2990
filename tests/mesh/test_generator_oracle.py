"""``body_fitted_mesh``'s array passes against the frozen per-cell loops
(``_generator_oracle``): the paper meshes' vertices, element table,
boundary tags and edge tables are the loops' to the bit."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mesh import generators

from . import _generator_oracle as oracle

MESHES = [
    ("bluff_body_mesh", (3, 1, 1)),
    ("bluff_body_mesh", (4, 2, 1)),
    ("bluff_body_mesh", (6, 3, 1)),
    ("bluff_body_mesh", (8, 4, 2)),
    ("wing_mesh", (4, 1)),
    ("wing_mesh", (6, 1)),
]


@pytest.mark.parametrize("name, args", MESHES)
def test_body_fitted_mesh_is_the_loop_mesh(monkeypatch, name, args):
    got = getattr(generators, name)(*args)
    monkeypatch.setattr(generators, "body_fitted_mesh", oracle.body_fitted_mesh)
    want = getattr(generators, name)(*args)
    assert got.vertices.dtype == want.vertices.dtype
    assert got.vertices.tobytes() == want.vertices.tobytes()
    for table in ("elem_vertices", "elem_edges", "edge_sides", "edge_nsides"):
        np.testing.assert_array_equal(getattr(got, table), getattr(want, table), err_msg=table)
    assert list(got.boundary_tags) == list(want.boundary_tags)
    for tag, sides in want.boundary_tags.items():
        assert got.boundary_tags[tag] == sides, tag
        assert all(type(v) is int for side in got.boundary_tags[tag] for v in side), tag

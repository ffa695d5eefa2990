import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.generators import bluff_body_mesh, rectangle_quads
from repro.mesh.partition import (
    edge_cut,
    imbalance,
    interface_edges,
    partition_graph,
    partition_mesh,
)


def test_single_part_trivial():
    mesh = rectangle_quads(4, 4)
    parts = partition_mesh(mesh, 1)
    assert np.all(parts == 0)


@given(st.sampled_from([2, 4, 8]), st.sampled_from(["spectral", "multilevel"]))
@settings(max_examples=12, deadline=None)
def test_partition_balanced(nparts, method):
    mesh = rectangle_quads(8, 8)
    parts = partition_mesh(mesh, nparts, method=method)
    assert parts.shape == (64,)
    assert set(np.unique(parts)) == set(range(nparts))
    assert imbalance(parts, nparts) <= 1.1


def test_partition_beats_strips_on_square():
    # On an 8x8 grid into 8 parts, x-strips cut 7 full columns = 56 edges;
    # a 2-D-aware partitioner must do better.
    mesh = rectangle_quads(8, 8)
    g = mesh.dual_graph()
    strips = partition_mesh(mesh, 8, method="strips")
    smart = partition_mesh(mesh, 8, method="multilevel")
    assert edge_cut(g, smart) < edge_cut(g, strips)


def test_spectral_bisection_of_grid_is_halving():
    mesh = rectangle_quads(8, 4)
    g = mesh.dual_graph()
    parts = partition_mesh(mesh, 2, method="spectral")
    assert imbalance(parts, 2) == pytest.approx(1.0)
    # Ideal vertical cut severs 4 edges; allow a little slack.
    assert edge_cut(g, parts) <= 8


def test_partition_bluff_body_mesh():
    mesh = bluff_body_mesh(m=4, nr=2)
    g = mesh.dual_graph()
    for nparts in (2, 4):
        parts = partition_mesh(mesh, nparts, method="multilevel")
        assert imbalance(parts, nparts) <= 1.15
        assert edge_cut(g, parts) < g.number_of_edges() / 2
    # The partitioner ablation (feeds the ALE gather-scatter volume):
    # at 8 parts every method cuts something, and multilevel never cuts
    # more than geometric strips.
    cuts = {
        method: edge_cut(g, partition_mesh(mesh, 8, method=method))
        for method in ("strips", "spectral", "multilevel")
    }
    assert min(cuts.values()) > 0
    assert cuts["multilevel"] <= cuts["strips"]


def test_interface_edges_match_cut():
    mesh = rectangle_quads(6, 6)
    parts = partition_mesh(mesh, 4)
    iface = interface_edges(mesh, parts)
    assert len(iface) == edge_cut(mesh.dual_graph(), parts)
    for eid in iface:
        (e0, _), (e1, _) = mesh.edges[eid].elements
        assert parts[e0] != parts[e1]


def test_partition_graph_validation():
    g = nx.path_graph(4)
    with pytest.raises(ValueError):
        partition_graph(g, 0)
    with pytest.raises(ValueError):
        partition_graph(g, 5)
    with pytest.raises(ValueError):
        partition_graph(g, 2, method="magic")


def test_partition_path_graph_contiguous():
    g = nx.path_graph(16)
    parts = partition_graph(g, 4)
    assert imbalance(parts, 4) == pytest.approx(1.0)
    # Optimal cut for a path into 4 parts is 3.
    assert edge_cut(g, parts) <= 5


def test_partition_disconnected_graph():
    g = nx.union(nx.path_graph(8), nx.relabel_nodes(nx.path_graph(8), lambda n: n + 8))
    parts = partition_graph(g, 2)
    assert imbalance(parts, 2) == pytest.approx(1.0)


def test_strips_baseline_ordering():
    mesh = rectangle_quads(8, 2)
    parts = partition_mesh(mesh, 4, method="strips")
    cents = mesh.centroids()
    # Strip index must be nondecreasing with centroid x.
    order = np.argsort(cents[:, 0], kind="stable")
    assert np.all(np.diff(parts[order]) >= 0)


def test_imbalance_metric():
    assert imbalance(np.array([0, 0, 1, 1]), 2) == pytest.approx(1.0)
    assert imbalance(np.array([0, 0, 0, 1]), 2) == pytest.approx(1.5)

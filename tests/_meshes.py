"""Test-only meshes: triangles on a rectangle and a curved annulus.

No run builds either; the triangle-element and curved-element tests do.
"""

import numpy as np

from repro.mesh.curved import circular_arc
from repro.mesh.generators import rectangle_quads
from repro.mesh.mesh2d import Mesh2D

from .mesh._topology_oracle import edges


def rectangle_tris(
    nx: int,
    ny: int,
    x0: float = -1.0,
    x1: float = 1.0,
    y0: float = -1.0,
    y1: float = 1.0,
) -> Mesh2D:
    """Structured triangle mesh: each quad cell split along its diagonal."""
    quad = rectangle_quads(nx, ny, x0, x1, y0, y1)
    elems = []
    for e in quad.elements:
        v0, v1, v2, v3 = e.vertices
        elems.append((v0, v1, v2))
        elems.append((v0, v2, v3))
    # Tag boundaries by re-deriving from coordinates.
    mesh = Mesh2D(quad.vertices, elems)
    tol = 1e-12

    def side_tag(ei: int, le: int) -> str:
        a, b = mesh.elements[ei].edge_vertices(le)
        xy = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
        if abs(xy[1] - y0) < tol:
            return "bottom"
        if abs(xy[1] - y1) < tol:
            return "top"
        if abs(xy[0] - x0) < tol:
            return "left"
        return "right"

    tags: dict[str, list[tuple[int, int]]] = {
        "bottom": [],
        "top": [],
        "left": [],
        "right": [],
    }
    for ei, le in mesh.boundary_sides():
        tags[side_tag(ei, le)].append((ei, le))
    return Mesh2D(quad.vertices, elems, tags)



def annulus_mesh(
    ntheta: int = 8,
    nr: int = 2,
    r0: float = 0.5,
    r1: float = 1.0,
    curved: bool = True,
) -> Mesh2D:
    """All-quad annulus between radii r0 and r1, tags "inner"/"outer";
    with ``curved`` the ring edges are exact circle arcs — the standard
    curved-geometry convergence testbed."""
    if not (0 < r0 < r1) or ntheta < 3 or nr < 1:
        raise ValueError("bad annulus parameters")
    verts = []
    for i in range(nr + 1):
        r = r0 + (r1 - r0) * i / nr
        for k in range(ntheta):
            th = 2 * np.pi * k / ntheta
            verts.append((r * np.cos(th), r * np.sin(th)))
    nid = lambda i, k: i * ntheta + (k % ntheta)  # noqa: E731
    elems = []
    tags: dict[str, list[tuple[int, int]]] = {"inner": [], "outer": []}
    for i in range(nr):
        for k in range(ntheta):
            e = len(elems)
            elems.append((nid(i, k), nid(i + 1, k), nid(i + 1, k + 1), nid(i, k + 1)))
            if i == 0:
                tags["inner"].append((e, 3))  # edge (v0, v3) on r = r0
            if i == nr - 1:
                tags["outer"].append((e, 1))  # edge (v1, v2) on r = r1
    mesh = Mesh2D(np.asarray(verts), elems, tags)
    if curved:
        for edge in edges(mesh):
            a, b = edge.vertices
            ra = np.hypot(*mesh.vertices[a])
            rb = np.hypot(*mesh.vertices[b])
            if abs(ra - rb) < 1e-12:  # circumferential edge -> arc
                for ei, le in edge.elements:
                    va, vb = mesh.elements[ei].edge_vertices(le)
                    mesh.curves[(ei, le)] = circular_arc(
                        mesh.vertices[va], mesh.vertices[vb]
                    )
    return mesh

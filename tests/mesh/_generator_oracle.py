"""Frozen reference: ``body_fitted_mesh`` as per-cell Python loops.

The body of ``repro.mesh.generators.body_fitted_mesh`` before its frame
cells, ring vertices, ring elements, boundary tags and vertex
compaction became array passes: one tuple and tag append per cell, the
ring's vertex list grown point by point and a ``remap`` dict over every
element vertex.  Test-only; do not import from ``src/``.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.generators import Profile, _graded
from repro.mesh.mesh2d import Mesh2D


def body_fitted_mesh(
    profile: Profile,
    half_width: float = 2.0,
    m: int = 4,
    nr: int = 2,
    x_up: float = -15.0,
    x_down: float = 25.0,
    y_half: float = 5.0,
    n_up: int = 4,
    n_down: int = 8,
    n_side: int = 2,
) -> Mesh2D:
    """The per-cell loop body."""
    hw = half_width
    if not (x_up < -hw < hw < x_down and y_half > hw):
        raise ValueError("central square must lie strictly inside the domain")
    if m < 1 or nr < 1:
        raise ValueError("m and nr must be >= 1")

    grade = 1.35
    xs = np.concatenate(
        [
            _graded(x_up, -hw, n_up, 1.0 / grade)[:-1],
            np.linspace(-hw, hw, m + 1)[:-1],
            _graded(hw, x_down, n_down, grade),
        ]
    )
    ys = np.concatenate(
        [
            _graded(-y_half, -hw, n_side, 1.0 / grade)[:-1],
            np.linspace(-hw, hw, m + 1)[:-1],
            _graded(hw, y_half, n_side, grade),
        ]
    )
    nx_tot, ny_tot = xs.size - 1, ys.size - 1
    ix0, iy0 = n_up, n_side  # grid index of the square's lower-left corner
    nid = lambda i, j: j * (nx_tot + 1) + i  # noqa: E731

    verts: list[tuple[float, float]] = [(x, y) for y in ys for x in xs]
    elems: list[tuple[int, ...]] = []
    tags: dict[str, list[tuple[int, int]]] = {
        "inflow": [],
        "outflow": [],
        "side": [],
        "wall": [],
    }

    inside = lambda i, j: ix0 <= i < ix0 + m and iy0 <= j < iy0 + m  # noqa: E731
    for j in range(ny_tot):
        for i in range(nx_tot):
            if inside(i, j):
                continue
            e = len(elems)
            elems.append((nid(i, j), nid(i + 1, j), nid(i + 1, j + 1), nid(i, j + 1)))
            if i == 0:
                tags["inflow"].append((e, 3))
            if i == nx_tot - 1:
                tags["outflow"].append((e, 1))
            if j == 0:
                tags["side"].append((e, 0))
            if j == ny_tot - 1:
                tags["side"].append((e, 2))

    # Square perimeter nodes, CCW from the lower-left corner.
    per: list[int] = []
    for i in range(m):  # bottom, left -> right
        per.append(nid(ix0 + i, iy0))
    for j in range(m):  # right, bottom -> top
        per.append(nid(ix0 + m, iy0 + j))
    for i in range(m):  # top, right -> left
        per.append(nid(ix0 + m - i, iy0 + m))
    for j in range(m):  # left, top -> bottom
        per.append(nid(ix0, iy0 + m - j))
    nper = 4 * m

    tpar = np.arange(nper) / nper
    bx, by = profile(tpar)
    sq = np.array([verts[k] for k in per])
    # Ring node ids: ring[i][k]; i = 0 on the body, i = nr on the square.
    ring: list[list[int]] = []
    for i in range(nr):
        frac = i / nr
        ids = []
        for k in range(nper):
            px = bx[k] + frac * (sq[k, 0] - bx[k])
            py = by[k] + frac * (sq[k, 1] - by[k])
            ids.append(len(verts))
            verts.append((px, py))
        ring.append(ids)
    ring.append(list(per))

    for i in range(nr):
        for k in range(nper):
            k1 = (k + 1) % nper
            e = len(elems)
            elems.append((ring[i][k], ring[i + 1][k], ring[i + 1][k1], ring[i][k1]))
            if i == 0:
                tags["wall"].append((e, 3))  # local edge (v0, v3) is on the body

    # Frame nodes strictly inside the central square belong to no element;
    # compact them away so the dof map has no orphan (zero-row) vertices.
    used = sorted({v for e in elems for v in e})
    remap = {old: new for new, old in enumerate(used)}
    verts_arr = np.asarray(verts)[used]
    elems = [tuple(remap[v] for v in e) for e in elems]
    return Mesh2D(verts_arr, elems, tags)

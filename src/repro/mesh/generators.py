"""Parametric mesh generators for the paper's computational domains.

Figure 11 shows the two domains used at the application level: a
rectangular bluff-body wake domain (x in [-15, 25], y in [-5, 5]) with a
body at the origin, and a flapping NACA 4420 wing.  Both are produced
here as conforming all-quad meshes: an O-grid ring around the body
blended into a structured outer frame.  Plain rectangle quad meshes
carry the channel and box examples.

All generators return counterclockwise elements and tagged boundaries
("inflow", "outflow", "side", "wall" for body-fitted meshes; "left",
"right", "bottom", "top" for rectangles).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .mesh2d import Mesh2D

__all__ = [
    "rectangle_quads",
    "circle_profile",
    "naca_profile",
    "body_fitted_mesh",
    "bluff_body_mesh",
    "wing_mesh",
]

Profile = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

# Parameter origin: t = 0 sits at the lower-left corner direction (225 deg)
# so ring sectors line up with the square frame perimeter walk.
_T0 = 5.0 * math.pi / 4.0


def rectangle_quads(
    nx: int,
    ny: int,
    x0: float = -1.0,
    x1: float = 1.0,
    y0: float = -1.0,
    y1: float = 1.0,
) -> Mesh2D:
    """Structured nx-by-ny quad mesh of [x0, x1] x [y0, y1]."""
    if nx < 1 or ny < 1:
        raise ValueError("need at least one cell per direction")
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    nid = lambda i, j: j * (nx + 1) + i  # noqa: E731
    verts = np.array([(x, y) for y in ys for x in xs])
    elems = []
    for j in range(ny):
        for i in range(nx):
            elems.append((nid(i, j), nid(i + 1, j), nid(i + 1, j + 1), nid(i, j + 1)))
    eidx = lambda i, j: j * nx + i  # noqa: E731
    tags = {
        "bottom": [(eidx(i, 0), 0) for i in range(nx)],
        "top": [(eidx(i, ny - 1), 2) for i in range(nx)],
        "left": [(eidx(0, j), 3) for j in range(ny)],
        "right": [(eidx(nx - 1, j), 1) for j in range(ny)],
    }
    return Mesh2D(verts, elems, tags)


def circle_profile() -> Profile:
    """The paper's cylinder: diameter 1, centred at the origin."""

    def profile(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        theta = 2.0 * np.pi * np.asarray(t, dtype=np.float64) + _T0
        return 0.5 * np.cos(theta), 0.5 * np.sin(theta)

    return profile


def naca_profile(code: str = "4420") -> Profile:
    """Closed unit-chord NACA 4-digit profile, parametrised by angle about
    its 0.4-chord point, which sits at the origin (star-shaped for thick
    sections like 4420).

    The returned callable maps t in [0, 1) (same angular origin as
    :func:`circle_profile`) to boundary points, so the wing drops into
    :func:`body_fitted_mesh` unchanged.
    """
    if len(code) != 4 or not code.isdigit():
        raise ValueError("NACA code must be 4 digits")
    m = int(code[0]) / 100.0
    p = int(code[1]) / 10.0
    th = int(code[2:]) / 100.0

    x = 0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi, 721)))  # cosine clustering
    yt = 5 * th * (
        0.2969 * np.sqrt(x)
        - 0.1260 * x
        - 0.3516 * x**2
        + 0.2843 * x**3
        - 0.1036 * x**4  # closed trailing edge variant
    )
    if m > 0:
        yc = np.where(
            x < p,
            m / p**2 * (2 * p * x - x**2),
            m / (1 - p) ** 2 * ((1 - 2 * p) + 2 * p * x - x**2),
        )
    else:
        yc = np.zeros_like(x)
    upper = np.stack([x, yc + yt], axis=1)
    lower = np.stack([x, yc - yt], axis=1)
    poly = np.vstack([upper, lower[::-1][1:-1]])  # closed CCW-ish loop
    # Recentre on the 0.4-chord point.
    poly = poly - np.array([0.4, 0.0])
    ang = np.arctan2(poly[:, 1], poly[:, 0])
    rad = np.hypot(poly[:, 0], poly[:, 1])
    order = np.argsort(ang)
    ang, rad = ang[order], rad[order]
    # Periodic pad for interpolation.
    ang = np.concatenate([ang - 2 * np.pi, ang, ang + 2 * np.pi])
    rad = np.concatenate([rad, rad, rad])

    def profile(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        theta = np.mod(2.0 * np.pi * np.asarray(t, dtype=np.float64) + _T0 + np.pi, 2 * np.pi) - np.pi
        r = np.interp(theta, ang, rad)
        return r * np.cos(theta), r * np.sin(theta)

    return profile


def _graded(a: float, b: float, n: int, ratio: float = 1.0) -> np.ndarray:
    """n-cell breakpoints from a to b; successive cell sizes multiply by
    ``ratio`` (> 1 grows towards b)."""
    if n < 1:
        raise ValueError("need at least one cell")
    if abs(ratio - 1.0) < 1e-12:
        return np.linspace(a, b, n + 1)
    w = ratio ** np.arange(n)
    cum = np.concatenate([[0.0], np.cumsum(w)])
    return a + (b - a) * cum / cum[-1]


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
    """Conforming all-quad mesh around a body: O-grid ring inside the
    central square of half-width ``half_width`` (m cells per side,
    nr radial rings), embedded in a structured frame covering
    [x_up, x_down] x [-y_half, y_half] whose cells grow by 1.35 per cell
    away from the square — the Figure 11 (left) layout.

    Boundary tags: "inflow" (x = x_up), "outflow" (x = x_down),
    "side" (y = +-y_half), "wall" (body surface).  Wall edges are
    straight; :func:`bluff_body_mesh` curves the cylinder's.
    """
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
    row = nx_tot + 1  # grid node (i, j) is j * row + i
    grid = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)

    # Frame cells row by row, skipping the central square.
    j, i = np.divmod(np.arange(nx_tot * ny_tot), nx_tot)
    keep = ~((ix0 <= i) & (i < ix0 + m) & (iy0 <= j) & (j < iy0 + m))
    i, j = i[keep], j[keep]
    n0 = j * row + i
    frame = np.stack([n0, n0 + 1, n0 + row + 1, n0 + row], axis=1)
    side = np.flatnonzero((j == 0) | (j == ny_tot - 1))
    tags = {
        "inflow": _sides(np.flatnonzero(i == 0), 3),
        "outflow": _sides(np.flatnonzero(i == nx_tot - 1), 1),
        "side": _sides(side, np.where(j[side] == 0, 0, 2)),
    }

    # Square perimeter nodes, CCW from the lower-left corner: bottom
    # left -> right, right bottom -> top, top right -> left, left top ->
    # bottom.
    k = np.arange(m)
    lo, hi = np.zeros(m, dtype=np.int64), np.full(m, m)
    per_i = ix0 + np.concatenate([k, hi, m - k, lo])
    per_j = iy0 + np.concatenate([lo, k, hi, m - k])
    per = per_j * row + per_i
    nper = 4 * m

    bx, by = profile(np.arange(nper) / nper)
    sq = grid[per]
    # Ring node ids: ring[i, k]; i = 0 on the body, i = nr on the square.
    frac = (np.arange(nr) / nr)[:, None]
    ring_xy = np.stack([bx + frac * (sq[:, 0] - bx), by + frac * (sq[:, 1] - by)], axis=-1)
    ring = np.vstack([grid.shape[0] + np.arange(nr * nper).reshape(nr, nper), per])
    k1 = np.roll(np.arange(nper), -1)
    rings = np.stack([ring[:-1], ring[1:], ring[1:, k1], ring[:-1, k1]], axis=-1)
    # Local edge (v0, v3) of the innermost ring is on the body.
    tags["wall"] = _sides(len(frame) + np.arange(nper), 3)

    # Frame nodes strictly inside the central square belong to no element;
    # compact them away so the dof map has no orphan (zero-row) vertices.
    used, elems = np.unique(np.vstack([frame, rings.reshape(-1, 4)]), return_inverse=True)
    verts = np.vstack([grid, ring_xy.reshape(-1, 2)])[used]
    return Mesh2D(verts, elems.reshape(-1, 4).tolist(), tags)


def _sides(elems: np.ndarray, local) -> list[tuple[int, int]]:
    """Boundary-tag sides: (element, local edge) pairs as Python ints."""
    return list(zip(elems.tolist(), np.broadcast_to(local, elems.shape).tolist()))


def bluff_body_mesh(
    m: int = 4,
    nr: int = 2,
    refine: int = 1,
    curved: bool = False,
) -> Mesh2D:
    """The paper's bluff-body (circular cylinder) wake domain,
    Figure 11 left: [-15, 25] x [-5, 5] with a diameter-1 body at the
    origin.  ``refine`` scales the cell counts everywhere;
    ``curved=True`` attaches exact circular arcs to the wall edges
    (iso-parametric body representation)."""
    mesh = body_fitted_mesh(
        circle_profile(),
        m=m * refine,
        nr=nr * refine,
        n_up=4 * refine,
        n_down=8 * refine,
        n_side=2 * refine,
    )
    if curved:
        attach_circular_wall(mesh)
    return mesh


def attach_circular_wall(mesh: Mesh2D) -> None:
    """Register exact arcs of the circle about the origin on every "wall"
    edge (the edges' vertices must already lie on that circle)."""
    from .curved import circular_arc

    sides = mesh.boundary_sides("wall")
    for side, (a, b) in zip(sides, mesh.side_vertices(sides)):
        mesh.curves[side] = circular_arc(mesh.vertices[a], mesh.vertices[b])


def wing_mesh(m: int = 6, nr: int = 2) -> Mesh2D:
    """Body-fitted mesh around a unit-chord NACA 4420 wing (the paper's
    flapping-wing geometry, Figure 11 right), on a 10 x 5-proportioned
    domain."""
    return body_fitted_mesh(
        naca_profile("4420"),
        half_width=1.25,
        m=m,
        nr=nr,
        x_up=-3.5,
        x_down=6.5,
        y_half=2.5,
        n_up=2,
        n_down=4,
        n_side=1,
    )

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

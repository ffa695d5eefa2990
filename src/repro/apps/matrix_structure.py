"""Figures 9-11 driver: discretisation structure reports.

* Figure 9 — the modal ordering of the modified expansion on the
  triangle and quadrilateral at order 4 (vertices, then edges, then
  interior with q fastest);
* Figure 10 — the elemental Laplacian sparsity with boundary-first
  ordering (symmetric; banded interior-interior block);
* Figure 11 — the computational meshes (bluff-body domain and wing).

Run: ``python -m repro.apps.matrix_structure``.
"""

from __future__ import annotations

import numpy as np

from ..mesh.generators import bluff_body_mesh, wing_mesh
from ..mesh.mapping import GeomFactors
from ..reporting.tables import ascii_table
from ..spectral.expansions import QuadExpansion, TriExpansion

__all__ = ["figure9", "figure10", "figure11", "main"]

REF_TRI = np.array([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
REF_QUAD = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])

#: Expansion order of Figures 9 and 10.
ORDER = 4


def figure9() -> str:
    """Mode ordering tables for both element shapes."""
    out = []
    for exp, name in ((TriExpansion(ORDER), "triangle"), (QuadExpansion(ORDER), "quadrilateral")):
        rows = [
            (i, m.kind, m.entity if m.entity >= 0 else "-", str(m.k), m.label)
            for i, m in enumerate(exp.modes)
        ]
        out.append(
            ascii_table(
                ["#", "kind", "entity", "k", "label"],
                rows,
                title=(
                    f"Figure 9: modified expansion ordering, {name}, "
                    f"order {ORDER} ({exp.nmodes} modes)"
                ),
            )
        )
    return "\n\n".join(out)


def _spy(matrix: np.ndarray, tol: float = 1e-10) -> str:
    scale = np.abs(matrix).max()
    lines = []
    for row in matrix:
        lines.append(
            "".join("x" if abs(v) > tol * scale else "." for v in row)
        )
    return "\n".join(lines)


def figure10() -> str:
    """Elemental Laplacian structure, boundary dofs first (Figure 10)."""
    out = []
    for exp, coords, name in (
        (TriExpansion(ORDER), REF_TRI, "triangular"),
        (QuadExpansion(ORDER), REF_QUAD, "quadrilateral"),
    ):
        gf = GeomFactors.compute(exp, coords)
        from ..assembly.operators import elemental_laplacian

        lap = elemental_laplacian(exp, gf)
        nb = len(exp.boundary_modes)
        out.append(
            f"Figure 10: elemental Laplacian, standard modal {name} "
            f"expansion, order {ORDER}\n"
            f"(boundary dofs first: {nb} boundary + "
            f"{exp.nmodes - nb} interior)\n" + _spy(lap)
        )
    return "\n\n".join(out)


def figure11() -> str:
    """Mesh summaries for the two Figure 11 domains."""
    out = []
    for mesh, name in (
        (bluff_body_mesh(), "bluff-body wake domain [-15,25] x [-5,5]"),
        (wing_mesh(), "NACA 4420 flapping-wing domain"),
    ):
        x = mesh.vertices[:, 0]
        y = mesh.vertices[:, 1]
        rows = [
            ("elements", mesh.nelements),
            ("vertices", mesh.nvertices),
            ("edges", mesh.nedges),
            ("x range", f"[{x.min():.2f}, {x.max():.2f}]"),
            ("y range", f"[{y.min():.2f}, {y.max():.2f}]"),
            ("wall sides", len(mesh.boundary_tags.get("wall", []))),
            ("total area", f"{mesh.element_areas().sum():.2f}"),
        ]
        out.append(ascii_table(["property", "value"], rows, title=f"Figure 11: {name}"))
    return "\n\n".join(out)


def main(argv=None) -> str:
    text = "\n\n".join([figure9(), figure10(), figure11()])
    print(text)
    return text


if __name__ == "__main__":
    main()

"""Field output and checkpointing.

* :func:`write_vtk` — legacy-ASCII VTK unstructured-grid files of
  vertex fields (loads in ParaView/VisIt), the standard way downstream
  users inspect a wake.
* :class:`Checkpoint` — per-rank .npz checkpoints of the full
  time-stepping state of any of the three solvers (modal coefficients,
  time, step count, the stiffly-stable history, and the mesh vertices
  of a moving-mesh run), so long DNS campaigns — "250 hours of CPU
  time per processor" in the paper's production run — and crashed
  parallel runs restart from the last complete set and continue
  bit-for-bit.
"""

from __future__ import annotations

import os
import re
import zipfile
from pathlib import Path

import numpy as np

from ..assembly.space import FunctionSpace
from ..mesh.mesh2d import Mesh2D

__all__ = ["write_vtk", "Checkpoint"]

_VTK_CELL = {3: 5, 4: 9}  # triangle, quad


def write_vtk(
    path: str | Path,
    mesh: Mesh2D,
    point_fields: dict[str, np.ndarray] | None = None,
) -> Path:
    """Write a legacy-ASCII VTK file of the mesh and vertex fields.

    ``point_fields`` maps field name -> per-vertex values (e.g. from
    :meth:`FunctionSpace.eval_at_vertices`).
    """
    path = Path(path)
    point_fields = dict(point_fields or {})
    nv = mesh.nvertices
    for name, vals in point_fields.items():
        vals = np.asarray(vals)
        if vals.shape != (nv,):
            raise ValueError(f"field {name!r} must have one value per vertex")
    lines = [
        "# vtk DataFile Version 3.0",
        "repro field output",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {nv} double",
    ]
    for x, y in mesh.vertices:
        lines.append(f"{x:.12g} {y:.12g} 0.0")
    cells = [[v for v in row if v >= 0] for row in mesh.elem_vertices.tolist()]
    lines.append(f"CELLS {mesh.nelements} {sum(len(c) + 1 for c in cells)}")
    lines.extend(" ".join(map(str, [len(c)] + c)) for c in cells)
    lines.append(f"CELL_TYPES {mesh.nelements}")
    lines.extend(str(_VTK_CELL[len(c)]) for c in cells)
    if point_fields:
        lines.append(f"POINT_DATA {nv}")
        for name, vals in point_fields.items():
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(f"{float(v):.12g}" for v in np.asarray(vals))
    path.write_text("\n".join(lines) + "\n")
    return path


class Checkpoint:
    """Per-rank .npz checkpoints of any solver's full stepping state.

    A file holds what the scheme needs to continue **bit-for-bit**: the
    solver's modal fields, ``t``, ``step_count`` and its
    :class:`~repro.ns.splitting.SplittingHistory` (whose length encodes
    the start-up ramp); also a moving mesh's vertices (the geometry is
    rebuilt on restore) and NekTar-F's mode block (the layout check).
    One file per rank per step, a serial solver being rank 0 of 1.  A
    file is written under a temporary name and renamed into place, and
    :meth:`latest_step` reports the newest step whose every rank file
    exists, so a crash between rank files leaves a set restart skips.
    """

    HATS = ("u_hat", "v_hat", "w_hat", "p_hat")
    _NAME = re.compile(r"checkpoint_step(\d+)_rank(\d+)\.npz$")

    @staticmethod
    def path(directory: str | Path, step: int, rank: int) -> Path:
        return Path(directory) / f"checkpoint_step{step:08d}_rank{rank:04d}.npz"

    @staticmethod
    def _rank(solver) -> tuple[int, int]:
        """(rank, size) of the solver's communicator; serial is (0, 1)."""
        comm = getattr(solver, "comm", None)
        return (0, 1) if comm is None else (comm.rank, comm.size)

    @staticmethod
    def save(directory: str | Path, solver) -> Path:
        """Write this rank's state at the solver's current step."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        data = {h: getattr(solver, h) for h in Checkpoint.HATS if hasattr(solver, h)}
        data.update(t=solver.t, step_count=solver.step_count)
        if hasattr(solver, "my_modes"):
            data["my_modes"] = np.asarray(solver.my_modes, dtype=np.int64)
        if hasattr(solver, "set_vertices"):
            data["vertices"] = solver.mesh.vertices
        history = solver.history
        data.update(time_order=history.target.order, history_len=len(history))
        # Newest entry first; each part's components stacked.
        for j, entry in enumerate(history.entries):
            for part, comps in zip("unw", entry):
                data[f"history_{j}_{part}"] = np.stack(comps)
        path = Checkpoint.path(directory, solver.step_count, Checkpoint._rank(solver)[0])
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as f:
            np.savez(f, **data)
        os.replace(tmp, path)
        return path

    @staticmethod
    def load(directory: str | Path, solver) -> int:
        """Restore this rank's state in place from the newest complete set
        in ``directory``; returns the step restored.

        The solver must be built like the one that saved it (same mesh
        topology, order and rank layout).
        """
        rank, size = Checkpoint._rank(solver)
        step = Checkpoint.latest_step(directory, size)
        if step is None:
            raise FileNotFoundError(f"no complete {size}-rank checkpoint set in {directory}")
        path = Checkpoint.path(directory, step, rank)
        data = Checkpoint._read(path)
        if "my_modes" in data and data["my_modes"].tolist() != list(solver.my_modes):
            raise ValueError(
                f"checkpoint {path.name} holds modes "
                f"{data['my_modes'].tolist()}, solver owns "
                f"{list(solver.my_modes)} (rank layout changed?)"
            )
        hats = [h for h in Checkpoint.HATS if hasattr(solver, h)]
        for h in hats:
            shape = data[h].shape if h in data else None
            if shape != getattr(solver, h).shape:
                raise ValueError(
                    f"checkpoint field {h} has shape {shape}, "
                    f"solver expects {getattr(solver, h).shape}"
                )
        history, nhist = solver.history, int(data["history_len"])
        order = history.target.order
        if nhist > order:
            raise ValueError(
                f"checkpoint {path.name} holds {nhist} history entries of an "
                f"order-{int(data['time_order'])} scheme; the solver's "
                f"order-{order} scheme keeps at most {order}"
            )
        for h in hats:
            setattr(solver, h, data[h])
        solver.t = float(data["t"])
        solver.step_count = int(data["step_count"])
        if "vertices" in data:
            solver.set_vertices(data["vertices"])
        history.clear()
        for j in reversed(range(nhist)):  # oldest first, as they were pushed
            history.push(*(tuple(data[f"history_{j}_{part}"]) for part in "unw"))
        return step

    @staticmethod
    def _read(path: Path) -> dict[str, np.ndarray]:
        """Every array of one rank file; ValueError naming an unreadable one."""
        try:
            with np.load(path) as data:
                return {k: data[k] for k in data.files}
        except (EOFError, ValueError, zipfile.BadZipFile) as e:
            raise ValueError(
                f"checkpoint file {path} is not a readable .npz ({e})"
            ) from e

    @staticmethod
    def latest_step(directory: str | Path, nranks: int) -> int | None:
        """Newest step for which all ``nranks`` rank files exist."""
        found: dict[int, set[int]] = {}
        for p in Path(directory).glob("checkpoint_step*_rank*.npz"):
            m = Checkpoint._NAME.match(p.name)
            if m:
                found.setdefault(int(m.group(1)), set()).add(int(m.group(2)))
        complete = [s for s, ranks in found.items() if ranks >= set(range(nranks))]
        return max(complete, default=None)


def vertex_velocity_fields(space: FunctionSpace, u_hat, v_hat) -> dict:
    """Convenience: the vertex fields most runs want to write."""
    return {
        "u": space.eval_at_vertices(u_hat),
        "v": space.eval_at_vertices(v_hat),
    }

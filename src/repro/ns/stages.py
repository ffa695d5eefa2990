"""The paper's seven timestep stages (Section 4.1, Figure 12) and the
one way a solver opens them.

The paper times every application with one protocol — ``clock()`` and
``MPI_Wtime`` around the same seven numbered stages.  The serial
solver (Figure 12), NekTar-F (Figures 13-14) and NekTar-ALE (Figures
15-16) therefore all open each stage with :class:`StageScope`, so
their host timers, per-stage op counts, stage tags, virtual-machine
charges and trace spans come from the same instrument.  A stage sums
its own charges in a counter of its own only when something reads
them — a virtual CPU that prices the stage, or a tracer's span — so an
unpriced, untraced stage's charges walk one counter fewer.
"""

from __future__ import annotations

from ..linalg.counters import OpCounter
from ..obs import tracer as obs

__all__ = ["STAGES", "STAGE_DESCRIPTIONS", "ALE_GROUPS", "group_ale", "StageScope"]

STAGES = (
    "1:transform",
    "2:nonlinear",
    "3:average",
    "4:pressure-rhs",
    "5:pressure-solve",
    "6:viscous-rhs",
    "7:viscous-solve",
)

STAGE_DESCRIPTIONS = {
    "1:transform": "Transformation from modal (transformed) to quadrature "
    "(physical) space",
    "2:nonlinear": "Evaluation of the non-linear terms in quadrature space",
    "3:average": "Weight-averaging of non-linear terms with previous "
    "time-steps",
    "4:pressure-rhs": "Setup of the right hand side of the Poisson equation "
    "for the pressure",
    "5:pressure-solve": "Solution of the Laplacian for the Poisson equation",
    "6:viscous-rhs": "Setup of the right hand side of the Helmholtz equation",
    "7:viscous-solve": "Solution of the Laplacian for the Helmholtz equation",
}

# Figures 15-16 group the ALE stages: a = steps 1-4 and 6, b = step 5,
# c = step 7 (which gains the extra mesh-velocity Helmholtz solve).
ALE_GROUPS = {
    "a": ("1:transform", "2:nonlinear", "3:average", "4:pressure-rhs", "6:viscous-rhs"),
    "b": ("5:pressure-solve",),
    "c": ("7:viscous-solve",),
}


def group_ale(percentages: dict[str, float]) -> dict[str, float]:
    """Collapse a 7-stage percentage dict into the a/b/c ALE groups."""
    return {
        g: sum(percentages.get(s, 0.0) for s in stages)
        for g, stages in ALE_GROUPS.items()
    }


class StageScope:
    """Open stage ``name`` of ``solver`` for the duration of a ``with``.

    * host cpu/wall accumulate in ``solver.timer``, counted flops/bytes
      in ``solver.stage_ops[name]`` (nested counters feed their
      parents, so an enclosing whole-run counter is unaffected);
    * the thread's stage tag (:func:`repro.obs.current_stage`) is
      ``name`` inside the scope, tracer or not;
    * a solver on a virtual cluster (it has a ``comm``) is charged this
      entry's flops on the cluster's CPU model if its ``charge_compute``
      is set, and the rank's virtual cpu/wall deltas — communication
      included — accumulate in ``solver.virtual``;
    * with a tracer installed, one ``stage`` span on the tracer's clock
      with args ``flops``/``bytes``, plus ``cpu``/``wall`` when virtual.

    A priced or traced entry sums its charges from zero in a counter of
    its own: some charges are thirds, so a difference of two
    ``stage_ops`` totals would price a stage by what had been charged
    before it.  Any other entry opens no such counter (every charge
    walks each open counter, and nothing would read it), so inside it
    the innermost counter is ``solver.stage_ops[name]`` itself; either
    way ``stage_ops`` and every enclosing counter receive the same
    charges in the same order.
    """

    def __init__(self, solver, name: str):
        self.solver = solver
        self.name = name

    def __enter__(self) -> "StageScope":
        solver = self.solver
        self._comm = comm = getattr(solver, "comm", None)
        self._tracer = tracer = obs.current()
        if tracer is not None:
            self._t0 = tracer.clock()
        if comm is not None:
            self._w0 = comm.wall
            self._c0 = comm.cpu_time
        obs.push_stage(self.name)
        self._scopes: list = [solver.timer.stage(self.name), solver.stage_ops[self.name]]
        priced = comm is not None and solver.charge_compute
        self._ops = OpCounter() if tracer is not None or priced else None
        if self._ops is not None:
            self._scopes.append(self._ops)
        for scope in self._scopes:
            scope.__enter__()
        return self

    def __exit__(self, *exc: object) -> None:
        for scope in reversed(self._scopes):
            scope.__exit__(*exc)
        ops, comm = self._ops, self._comm
        virtual = {}
        try:
            if comm is not None:
                # Priced before the tag is popped and the span is
                # stamped, so observers see the compute inside its
                # stage.
                if ops is not None and self.solver.charge_compute:
                    comm.compute_flops(ops.flops)
                virtual = {"cpu": comm.cpu_time - self._c0, "wall": comm.wall - self._w0}
                self.solver.virtual.add(self.name, **virtual)
        finally:
            # Under a fault plan the charge above is where a timed
            # crash fires: the rank dies here, with its tag popped and
            # no span for the stage it did not finish.
            obs.pop_stage()
        if self._tracer is not None and ops is not None:
            args = {**virtual, "flops": ops.flops, "bytes": ops.bytes}
            self._tracer.emit_span(
                self.name, "stage", self._t0, self._tracer.clock(), args
            )

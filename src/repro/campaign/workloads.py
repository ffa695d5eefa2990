"""Campaign workload shapes: small parameterized virtual-cluster programs.

Each workload is a factory ``make(params, machine, cache) -> rank_fn``.
The factory runs on the campaign worker thread *before* the virtual
cluster starts: that is where host-side setup lives, including the
shared :class:`~repro.campaign.cache.OperatorCache` lookups (doing the
cache handshake outside the cluster keeps blocking host locks out of
the cooperative rank scheduler).  The returned ``rank_fn`` runs inside
the cluster and must return a small, JSON-able, deterministic check
value — the engine records rank 0's return in the ledger ``values``.

Charge neutrality: a cache hit hands back an already-built host object,
but the *virtual* setup cost is charged analytically from the problem
size (:func:`helmholtz_setup_flops`), identically on hit and miss.
Ledger values therefore never depend on cache state, worker count, or
resume history.

Every workload calls ``comm.mark_step`` once per logical step, so a
``crash`` fault plan with ``at_step`` fires inside any of them.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from ..assembly.space import FunctionSpace
from ..mesh.generators import rectangle_quads
from ..solvers.helmholtz import HelmholtzDirect
from .cache import OperatorCache

__all__ = [
    "WORKLOADS",
    "helmholtz_setup_flops",
    "helmholtz_solve_flops",
    "round_sig",
]

HELMHOLTZ_STEPS = 3


def round_sig(x: float) -> float:
    """Round to 6 significant digits: the cross-platform check-value form.

    Solution norms from dense factorizations may differ in the last
    couple of bits across BLAS builds; 6 significant digits is far
    inside the stability of these tiny systems while still catching any
    real numerical change.
    """
    if x == 0.0 or not np.isfinite(x):
        return float(x)
    from math import floor, log10

    return float(round(x, 5 - floor(log10(abs(x)))))


def _ring(params: dict[str, Any], machine: str, cache: OperatorCache):
    rounds = int(params.get("rounds", 3))
    ndoubles = int(params.get("ndoubles", 128))

    def rank_fn(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        buf = np.full(ndoubles, float(comm.rank))
        acc = 0.0
        for _ in range(rounds):
            comm.mark_step()
            comm.send(right, buf, tag=7)
            # Guarded recv: campaign matrices are fault-bearing, so a
            # dropped message must surface as a priced retransmit or a
            # typed failure, never a hang.
            buf = comm.recv(left, tag=7, timeout=5.0, retries=2)
            acc += float(buf[0])
        return acc

    return rank_fn


def _alltoall(params: dict[str, Any], machine: str, cache: OperatorCache):
    ndoubles_list = [int(n) for n in params.get("ndoubles", [64])]
    compute_s = float(params.get("compute_s", 0.0))

    def rank_fn(comm):
        checks = []
        for n in ndoubles_list:
            comm.mark_step()
            if compute_s:
                comm.compute(compute_s)
            chunk = np.full(n, float(comm.rank))
            out = comm.alltoall([chunk] * comm.size)
            checks.append(float(sum(c[0] for c in out)))
        comm.barrier()
        return checks

    return rank_fn


def helmholtz_setup_flops(ndof: int) -> float:
    """Analytic virtual cost of assembling + factoring the operator.

    A coarse banded-Cholesky count (``~ n * b^2`` with the bandwidth
    folded into a constant): what matters is that it is a pure function
    of the problem size, charged identically on cache hit and miss.
    """
    return 40.0 * float(ndof) ** 2


def helmholtz_solve_flops(ndof: int) -> float:
    """Analytic virtual cost of one back-substitution sweep."""
    return 60.0 * float(ndof)


def _helmholtz(params: dict[str, Any], machine: str, cache: OperatorCache):
    nx = int(params.get("nx", 2))
    ny = int(params.get("ny", 2))
    order = int(params.get("order", 4))
    lam = float(params.get("lam", 1.0))
    key = ("helmholtz", nx, ny, order, lam, machine)

    def build():
        mesh = rectangle_quads(nx, ny, 0.0, 2 * np.pi, 0.0, 2 * np.pi)
        space = FunctionSpace(mesh, order)
        solver = HelmholtzDirect(space, lam=lam, dirichlet_tags=("left",))
        # Factor once here (first solve would otherwise do it lazily):
        # the cached object is ready-to-solve for every sharing job.
        u = solver.solve(lambda x, y: np.sin(x) * np.cos(y))
        return space, solver, round_sig(float(np.linalg.norm(u)))

    space, _solver, norm = cache.get_or_build(key, build)
    ndof = space.ndof

    def rank_fn(comm):
        # Virtual setup charge: analytic, cache-state independent.
        comm.compute_flops(helmholtz_setup_flops(ndof))
        total = 0.0
        for _ in range(HELMHOLTZ_STEPS):
            comm.mark_step()
            comm.compute_flops(helmholtz_solve_flops(ndof))
            total = comm.allreduce(norm)
        return {"norm_sum": round_sig(total), "ndof": ndof}

    return rank_fn


#: name -> factory(params, machine, cache) -> rank_fn
WORKLOADS: dict[str, Callable[[dict[str, Any], str, OperatorCache], Any]] = {
    "ring": _ring,
    "alltoall": _alltoall,
    "helmholtz": _helmholtz,
}

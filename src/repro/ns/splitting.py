"""Stiffly-stable splitting coefficients (Karniadakis, Israeli & Orszag 1991).

The Navier-Stokes equations are "integrated in time using a high-order
splitting scheme"; the paper uses the second-order member.  The scheme
advances

    (gamma0 u^{n+1} - sum_q alpha_q u^{n-q}) / dt
        = sum_q beta_q N(u^{n-q}) - grad p^{n+1} + nu lap u^{n+1}

with the backward-differentiation weights gamma0/alpha and the
extrapolation weights beta below.

:class:`SplittingHistory` is the one stepping state the three solvers
share: the newest-first ``(u, N, omega)`` entries of past steps, the
start-up ramp (a cold start runs order 1, then 2, ... up to the
solver's order as entries accumulate) and the alpha/beta sums over
them.  A solver keeps only its stage bodies; ``io.Checkpoint`` saves
and restores the history with the fields.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

__all__ = ["SplittingHistory", "SplittingScheme", "stiffly_stable"]

_TABLE = {
    1: (1.0, (1.0,), (1.0,)),
    2: (1.5, (2.0, -0.5), (2.0, -1.0)),
    3: (11.0 / 6.0, (3.0, -1.5, 1.0 / 3.0), (3.0, -3.0, 1.0)),
}


@dataclass(frozen=True)
class SplittingScheme:
    """Coefficients of the order-J stiffly-stable scheme."""

    order: int
    gamma0: float
    alpha: tuple[float, ...]
    beta: tuple[float, ...]

    def __post_init__(self):
        # Consistency: sum(alpha) = gamma0 (reproduces constants),
        # sum(beta) = 1 (consistent extrapolation).
        assert abs(sum(self.alpha) - self.gamma0) < 1e-12
        assert abs(sum(self.beta) - 1.0) < 1e-12


def stiffly_stable(order: int) -> SplittingScheme:
    """The order-1, -2 or -3 stiffly-stable scheme."""
    try:
        gamma0, alpha, beta = _TABLE[order]
    except KeyError:
        raise ValueError(
            f"stiffly-stable scheme available for orders {sorted(_TABLE)}, "
            f"got {order}"
        ) from None
    return SplittingScheme(order, gamma0, alpha, beta)


class SplittingHistory:
    """Newest-first ``(u, N, omega)`` entries of an order-J scheme.

    Each entry part is a component tuple of same-shape arrays, e.g.
    ``(u, v)``, ``(Nu, Nv)``, ``(omega,)`` in 2-D.  At most J are kept.
    """

    def __init__(self, order: int):
        self.ramp = tuple(stiffly_stable(j) for j in range(1, order + 1))
        self.target = self.ramp[-1]
        self.entries: deque = deque(maxlen=order)

    def __len__(self) -> int:
        return len(self.entries)

    def clear(self) -> None:
        self.entries.clear()

    def scheme(self) -> SplittingScheme:
        """The start-up ramp: the highest order the history supports."""
        return self.ramp[min(len(self.entries), self.target.order - 1)]

    def extrapolate(self, u: tuple, n: tuple, dt: float) -> tuple:
        """Per component, sum_q alpha_q u^{n-q} + dt sum_q beta_q N^{n-q},
        with this step's ``u`` and ``n`` as the q = 0 terms."""
        s = self.scheme()
        us = [u] + [e[0] for e in self.entries]
        ns = [n] + [e[1] for e in self.entries]
        return tuple(
            sum(a * h[c] for a, h in zip(s.alpha, us))
            + dt * sum(b * h[c] for b, h in zip(s.beta, ns))
            for c in range(len(u))
        )

    def vorticity(self, w: tuple) -> tuple:
        """Per component, sum_q beta_q omega^{n-q}."""
        s = self.scheme()
        ws = [w] + [e[2] for e in self.entries]
        return tuple(sum(b * h[c] for b, h in zip(s.beta, ws)) for c in range(len(w)))

    def push(self, u: tuple, n: tuple, w: tuple) -> None:
        self.entries.appendleft((u, n, w))

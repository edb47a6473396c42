"""Capped exponential backoff with decorrelated jitter.

Retrying a failed operation immediately is the worst possible schedule:
whatever broke the first attempt (a dying worker, a restarting
coordinator) is usually still broken a microsecond later, and a fleet
of clients retrying in lockstep turns one hiccup into a thundering
herd.  Every retry path in the runtime — the scheduler's chunk
resubmission in :mod:`repro.runtime.parallel` and the TCP agents'
redials in :mod:`repro.runtime.cluster_tcp` — sleeps through a
:class:`Backoff` instead.

The policy is "decorrelated jitter": each delay is drawn uniformly from
``[base_s, 3 * previous]`` and clamped to ``cap_s``.  Compared to plain
exponential doubling it spreads concurrent retriers across the whole
interval (no synchronized retry spikes) while still growing toward the
cap on repeated failure.  The draw comes from an injectable
``random.Random``, so tests seed it and assert the exact delay sequence.
"""

from __future__ import annotations

import random

from ..exceptions import SearchError

__all__ = ["Backoff"]


class Backoff:
    """Stateful delay generator: decorrelated jitter, capped.

    ``next_delay()`` returns the seconds to sleep before the next retry;
    ``reset()`` forgets the growth state after a success so the next
    failure starts from ``base_s`` again.  Deterministic for a seeded
    ``rng``.
    """

    def __init__(
        self,
        base_s: float = 0.05,
        cap_s: float = 2.0,
        rng: random.Random | None = None,
    ) -> None:
        if base_s <= 0:
            raise SearchError(f"backoff base_s must be > 0, got {base_s}")
        if cap_s < base_s:
            raise SearchError(
                f"backoff cap_s ({cap_s}) must be >= base_s ({base_s})"
            )
        self.base_s = base_s
        self.cap_s = cap_s
        self._rng = rng if rng is not None else random.Random()
        self._prev: float | None = None

    def next_delay(self) -> float:
        prev = self._prev if self._prev is not None else self.base_s
        delay = min(self.cap_s, self._rng.uniform(self.base_s, 3.0 * prev))
        self._prev = delay
        return delay

    def reset(self) -> None:
        self._prev = None


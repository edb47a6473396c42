"""Gradient-descent optimizers.

:class:`Adam` mirrors Keras' implementation and defaults (the paper trains
every model with Adam at learning rate 0.001).  Optimizers mutate the
parameter arrays in place so the layers' views stay valid.
"""

from __future__ import annotations

import math

import numpy as np

from ..exceptions import ConfigurationError
from .stacked import flat_views

__all__ = ["Optimizer", "SGD", "Adam", "StackedAdam"]


class Optimizer:
    """Base class for in-place parameter updates."""

    def __init__(self, learning_rate: float) -> None:
        if learning_rate <= 0:
            raise ConfigurationError(
                f"learning rate must be positive, got {learning_rate}"
            )
        self.learning_rate = float(learning_rate)

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        raise NotImplementedError

    @staticmethod
    def _check(params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if len(params) != len(grads):
            raise ConfigurationError(
                f"{len(params)} params but {len(grads)} grads"
            )


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(self, learning_rate: float = 0.01, momentum: float = 0.0):
        super().__init__(learning_rate)
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self._velocity: list[np.ndarray] | None = None

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self._check(params, grads)
        if self.momentum == 0.0:
            for p, g in zip(params, grads):
                p -= self.learning_rate * g
            return
        if self._velocity is None:
            self._velocity = [np.zeros_like(p) for p in params]
        for p, g, v in zip(params, grads, self._velocity):
            v *= self.momentum
            v -= self.learning_rate * g
            p += v


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with Keras defaults."""

    def __init__(
        self,
        learning_rate: float = 0.001,
        beta_1: float = 0.9,
        beta_2: float = 0.999,
        epsilon: float = 1e-7,
    ) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= beta_1 < 1.0 or not 0.0 <= beta_2 < 1.0:
            raise ConfigurationError("betas must be in [0, 1)")
        self.beta_1 = float(beta_1)
        self.beta_2 = float(beta_2)
        self.epsilon = float(epsilon)
        self._m: list[np.ndarray] | None = None
        self._v: list[np.ndarray] | None = None
        self._t = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self._check(params, grads)
        if self._m is None:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
        self._t += 1
        lr_t = self.learning_rate * (
            np.sqrt(1.0 - self.beta_2**self._t) / (1.0 - self.beta_1**self._t)
        )
        for p, g, m, v in zip(params, grads, self._m, self._v):
            m *= self.beta_1
            m += (1.0 - self.beta_1) * g
            v *= self.beta_2
            v += (1.0 - self.beta_2) * np.square(g)
            p -= lr_t * m / (np.sqrt(v) + self.epsilon)


class StackedAdam(Adam):
    """Adam over run-stacked ``(R, ...)`` parameters.

    Used by :func:`repro.nn.training.train_stack`: every
    parameter (and every moment buffer) carries a leading run axis, so
    one elementwise update steps all R runs' Adam states at once —
    bit-identical to R independent :class:`Adam` instances stepping in
    lockstep, because the update is elementwise and the shared ``t``
    counter equals each run's own step count.

    The moments live in two flat buffers laid out like the parameter
    list, with one reshaped view per parameter.  When the caller passes
    the stack's :class:`~repro.nn.stacked.ParameterArena` (whose flat
    buffers the parameter and gradient stacks are views of), a step is
    a single elementwise update over the whole arena; otherwise it
    updates each parameter through its moment views.

    A run that hits its early-stop threshold leaves the stack
    (:func:`repro.nn.training.train_stack`), and :meth:`compact`
    mirrors that: the moments re-flatten into the compacted layout,
    keeping the surviving rows' values bit for bit, and a parameter
    stack whose rows all froze drops its state entirely.  Frozen runs
    never resume, so the shared ``t`` stays equal to every remaining
    run's step count.
    """

    def __init__(
        self,
        learning_rate: float = 0.001,
        beta_1: float = 0.9,
        beta_2: float = 0.999,
        epsilon: float = 1e-7,
    ) -> None:
        super().__init__(learning_rate, beta_1, beta_2, epsilon)
        #: Per-parameter views of the flat ``_m``/``_v`` moment buffers.
        self._m_views: list = []
        self._v_views: list = []

    def _flatten_moments(self, shapes: list[tuple], pieces=None) -> None:
        """Allocate flat moments laid out as ``shapes``; ``pieces``
        (one ``(m, v)`` pair per shape) seeds them, zeros otherwise."""
        total = sum(math.prod(shape) for shape in shapes)
        self._m = np.zeros(total, dtype=np.float64)
        self._v = np.zeros(total, dtype=np.float64)
        self._m_views = flat_views(self._m, shapes)
        self._v_views = flat_views(self._v, shapes)
        for m, v, (m_old, v_old) in zip(
            self._m_views, self._v_views, pieces or ()
        ):
            m[...] = m_old
            v[...] = v_old

    def step(
        self,
        params: list[np.ndarray],
        grads: list[np.ndarray],
        arena=None,
    ) -> None:
        self._check(params, grads)
        if self._m is None:
            self._flatten_moments([tuple(p.shape) for p in params])
        self._t += 1
        lr_t = self.learning_rate * (
            np.sqrt(1.0 - self.beta_2**self._t) / (1.0 - self.beta_1**self._t)
        )
        if arena is not None:
            # Same elementwise sequence as Adam.step, once over the
            # whole arena.
            pieces = [(arena.values, arena.grads, self._m, self._v)]
        else:
            pieces = zip(params, grads, self._m_views, self._v_views)
        for p, g, m, v in pieces:
            m *= self.beta_1
            m += (1.0 - self.beta_1) * g
            v *= self.beta_2
            v += (1.0 - self.beta_2) * np.square(g)
            p -= lr_t * m / (np.sqrt(v) + self.epsilon)

    def compact(self, row_keeps: "list[np.ndarray]") -> None:
        """Re-flatten the moments into the compacted parameter layout.

        ``row_keeps`` aligns with the parameter list of the *last* step:
        one index array per parameter, whose rows are gathered (their
        values bit-identical); an empty array drops the parameter's
        state (its stack left the group).  No-op before the first step
        (no moments exist yet).
        """
        if self._m is None:
            return
        pieces = [
            (m[keep], v[keep])
            for m, v, keep in zip(self._m_views, self._v_views, row_keeps)
            if keep.size
        ]
        self._flatten_moments([tuple(m.shape) for m, _ in pieces], pieces)

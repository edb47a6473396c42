"""Loss functions.

The paper's models end in an explicit softmax layer followed by
categorical cross-entropy, so :class:`CrossEntropy` operates on
*probabilities* (with an epsilon clip guarding the log/division).  The
composition softmax-then-cross-entropy reproduces the familiar ``p - y``
logits gradient exactly wherever the clip is inactive; the fused
:class:`SoftmaxCrossEntropy` (on logits) is also provided for users who
prefer the numerically fused form.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ShapeError

__all__ = ["Loss", "CrossEntropy", "SoftmaxCrossEntropy", "MeanSquaredError"]

_EPS = 1e-12


class Loss:
    """Base class: scalar loss plus gradient w.r.t. the model output."""

    def value(self, output: np.ndarray, targets: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, output: np.ndarray, targets: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def stacked(
        self, output: np.ndarray, targets: np.ndarray, slices: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-slice values and the gradient of a slice-major stack.

        ``output`` holds ``slices`` equal row blocks, each one slice's
        batch (see :mod:`repro.nn.stacked`).  Returns a ``(slices,)``
        array whose entry ``s`` is ``value`` of block ``s`` and the
        gradient whose block ``s`` is ``gradient`` of block ``s`` — so
        each slice divides by its own batch, not the fused one.  This
        base loops over the blocks; subclasses may vectorize it,
        bit-identically.  Raises :class:`~repro.exceptions.ShapeError`
        unless the rows split into ``slices >= 1`` equal, non-empty
        blocks.
        """
        self._check(output, targets)
        per = self._per_slice(output, slices)
        values = np.empty(slices)
        grad = np.empty_like(output)
        for s in range(slices):
            sl = slice(s * per, (s + 1) * per)
            values[s] = self.value(output[sl], targets[sl])
            grad[sl] = self.gradient(output[sl], targets[sl])
        return values, grad

    @staticmethod
    def _check(output: np.ndarray, targets: np.ndarray) -> None:
        if output.shape != targets.shape:
            raise ShapeError(
                f"output {output.shape} and targets {targets.shape} differ"
            )

    @staticmethod
    def _per_slice(output: np.ndarray, slices: int) -> int:
        """Rows per slice of a slice-major stack."""
        rows = output.shape[0]
        if slices < 1 or rows < slices or rows % slices:
            raise ShapeError(
                f"{rows} rows do not split into {slices} equal slices"
            )
        return rows // slices


class CrossEntropy(Loss):
    """Categorical cross-entropy on probabilities with one-hot targets.

    ``L = -mean_b sum_c y_{bc} log(p_{bc})``.
    """

    def value(self, output: np.ndarray, targets: np.ndarray) -> float:
        self._check(output, targets)
        clipped = np.clip(output, _EPS, 1.0)
        return float(-np.mean(np.sum(targets * np.log(clipped), axis=1)))

    def gradient(self, output: np.ndarray, targets: np.ndarray) -> np.ndarray:
        self._check(output, targets)
        clipped = np.clip(output, _EPS, 1.0)
        batch = output.shape[0]
        return -(targets / clipped) / batch

    def stacked(
        self, output: np.ndarray, targets: np.ndarray, slices: int
    ) -> tuple[np.ndarray, np.ndarray]:
        # The same elementwise and row-wise steps as value/gradient over
        # the whole stack; each slice's mean reduces its own contiguous
        # row of a (slices, per) view, as value's 1-D mean does.
        self._check(output, targets)
        per = self._per_slice(output, slices)
        clipped = np.clip(output, _EPS, 1.0)
        rows = np.sum(targets * np.log(clipped), axis=1)
        values = -np.mean(rows.reshape(slices, per), axis=1)
        return values, -(targets / clipped) / per


class SoftmaxCrossEntropy(Loss):
    """Fused softmax + cross-entropy on *logits* (stable log-sum-exp)."""

    def value(self, output: np.ndarray, targets: np.ndarray) -> float:
        self._check(output, targets)
        shifted = output - output.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(
            np.sum(np.exp(shifted), axis=1, keepdims=True)
        )
        return float(-np.mean(np.sum(targets * log_probs, axis=1)))

    def gradient(self, output: np.ndarray, targets: np.ndarray) -> np.ndarray:
        self._check(output, targets)
        shifted = output - output.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)
        return (probs - targets) / output.shape[0]


class MeanSquaredError(Loss):
    """``L = mean_b mean_c (p - y)^2`` — provided for completeness."""

    def value(self, output: np.ndarray, targets: np.ndarray) -> float:
        self._check(output, targets)
        return float(np.mean((output - targets) ** 2))

    def gradient(self, output: np.ndarray, targets: np.ndarray) -> np.ndarray:
        self._check(output, targets)
        return 2.0 * (output - targets) / output.size

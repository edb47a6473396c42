"""Training loop implementing the paper's protocol.

Per the paper (sections III-F and IV): Adam with learning rate 0.001,
batch size 8, 100 epochs; after every epoch both train and validation
accuracy are recorded and the *maximum over epochs* is the run's score.

``early_stop_threshold`` is an optional speed-up used by the reduced
experiment profiles: once both running maxima reach the threshold the
remaining epochs cannot change the pass/fail decision for this run (the
maxima are monotone), so training may stop.  The full-fidelity profile
keeps it disabled, matching the paper exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..exceptions import ConfigurationError, ShapeError, TrainingCancelled
from .losses import CrossEntropy, Loss
from .metrics import accuracy
from .model import Sequential
from .optimizers import Adam, Optimizer, StackedAdam

__all__ = [
    "History",
    "train_model",
    "iterate_minibatches",
    "train_stack",
]


@dataclass
class History:
    """Per-epoch training record."""

    train_loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    epochs_run: int = 0
    wall_time_s: float = 0.0
    stopped_early: bool = False

    @property
    def max_train_accuracy(self) -> float:
        return max(self.train_accuracy, default=0.0)

    @property
    def max_val_accuracy(self) -> float:
        return max(self.val_accuracy, default=0.0)

    def meets_threshold(self, threshold: float) -> bool:
        """The paper's success condition for a single run."""
        return (
            self.max_train_accuracy >= threshold
            and self.max_val_accuracy >= threshold
        )


def iterate_minibatches(
    n_samples: int,
    batch_size: int,
    rng: np.random.Generator,
    shuffle: bool = True,
):
    """Yield index arrays covering ``range(n_samples)`` in mini-batches."""
    if batch_size < 1:
        raise ConfigurationError(f"batch size must be >= 1, got {batch_size}")
    order = np.arange(n_samples)
    if shuffle:
        rng.shuffle(order)
    for start in range(0, n_samples, batch_size):
        yield order[start : start + batch_size]


def train_model(
    model: Sequential,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    epochs: int = 100,
    batch_size: int = 8,
    loss: Loss | None = None,
    optimizer: Optimizer | None = None,
    rng: np.random.Generator | None = None,
    early_stop_threshold: float | None = None,
    shuffle: bool = True,
    cancel_check: Callable[[], bool] | None = None,
) -> History:
    """Train ``model`` and return its :class:`History`.

    ``y_train``/``y_val`` must be one-hot encoded (shape ``(B, C)``).

    ``cancel_check`` (optional) is polled at every epoch boundary; when
    it returns true, training aborts by raising
    :class:`~repro.exceptions.TrainingCancelled`.  The persistent worker
    pool uses it to stop speculative runs whose grid search has already
    committed a winner, bounding a stale worker's extra work to one
    epoch.
    """
    if y_train.ndim != 2 or y_val.ndim != 2:
        raise ShapeError("targets must be one-hot encoded (2-D)")
    if x_train.shape[0] != y_train.shape[0]:
        raise ShapeError("x_train and y_train batch sizes differ")
    if x_val.shape[0] != y_val.shape[0]:
        raise ShapeError("x_val and y_val batch sizes differ")
    if epochs < 1:
        raise ConfigurationError(f"epochs must be >= 1, got {epochs}")

    loss = loss or CrossEntropy()
    optimizer = optimizer or Adam(learning_rate=0.001)
    rng = rng or np.random.default_rng()

    history = History()
    started = time.perf_counter()
    n = x_train.shape[0]

    for _ in range(epochs):
        if cancel_check is not None and cancel_check():
            raise TrainingCancelled(
                f"training cancelled after {history.epochs_run} epochs"
            )
        epoch_losses: list[float] = []
        for idx in iterate_minibatches(n, batch_size, rng, shuffle=shuffle):
            xb, yb = x_train[idx], y_train[idx]
            model.zero_grads()
            out = model.forward(xb, training=True)
            epoch_losses.append(loss.value(out, yb))
            model.backward(loss.gradient(out, yb))
            optimizer.step(model.parameters(), model.gradients())

        history.train_loss.append(float(np.mean(epoch_losses)))
        history.train_accuracy.append(
            accuracy(y_train, model.predict(x_train))
        )
        history.val_accuracy.append(accuracy(y_val, model.predict(x_val)))
        history.epochs_run += 1

        if (
            early_stop_threshold is not None
            and history.meets_threshold(early_stop_threshold)
        ):
            history.stopped_early = True
            break

    history.wall_time_s = time.perf_counter() - started
    return history


def train_stack(
    stack,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    epochs: int = 100,
    batch_size: int = 8,
    loss: Loss | None = None,
    learning_rate: float = 0.001,
    rngs: Sequence[np.random.Generator] | None = None,
    early_stop_threshold: float | None = None,
    shuffle: bool = True,
    cancel_check: Callable[[], bool] | None = None,
) -> list[History]:
    """Train a slice stack in lockstep; one :class:`History` per slice.

    ``stack`` is a :class:`~repro.nn.stacked.GroupedStack` (one or
    more candidates' run sets fused into one sweep); ``rngs`` holds
    one generator per slice, each in the state its scalar
    :func:`train_model` counterpart would be in when entering training.
    Histories come back in the stack's original slice order.

    Every slice's training is bit-identical to its scalar loop: per-run
    engine kernels, per-slice gemms, per-slice loss values and its own
    RNG stream for minibatch shuffles.  A slice that reaches
    ``early_stop_threshold`` freezes exactly as its scalar loop would
    have broken out: its rows are *dropped from subsequent sweeps* — an
    index-map gather of the parameter stacks, optimizer moments and RNG
    bookkeeping that leaves the surviving slices' arithmetic untouched.

    The per-epoch accuracy passes feed the train and validation sets
    once, shared by every slice (``predict_shared``).
    """
    if y_train.ndim != 2 or y_val.ndim != 2:
        raise ShapeError("targets must be one-hot encoded (2-D)")
    if x_train.shape[0] != y_train.shape[0]:
        raise ShapeError("x_train and y_train batch sizes differ")
    if x_val.shape[0] != y_val.shape[0]:
        raise ShapeError("x_val and y_val batch sizes differ")
    if epochs < 1:
        raise ConfigurationError(f"epochs must be >= 1, got {epochs}")
    if batch_size < 1:
        raise ConfigurationError(f"batch size must be >= 1, got {batch_size}")
    loss = loss or CrossEntropy()
    total = stack.runs
    rngs = (
        list(rngs)
        if rngs is not None
        else [np.random.default_rng() for _ in range(total)]
    )
    if len(rngs) != total:
        raise ConfigurationError(
            f"need one rng per run: {total} runs, {len(rngs)} rngs"
        )

    # Every step runs through the stack's compiled plan for its batch
    # shape (at most two: full and remainder minibatches).  The plan's
    # input buffer is float64, as the layers would convert it.
    x_train = np.asarray(x_train, dtype=np.float64)
    optimizer = StackedAdam(learning_rate=learning_rate)
    histories = [History() for _ in range(total)]
    # The parameter/gradient views only change when the stack compacts;
    # cache them instead of rebuilding per minibatch step.
    params, grads = stack.parameters(), stack.gradients()
    #: Index map: current stack row -> original slice (history / rng).
    slots = np.arange(total)
    started = time.perf_counter()
    n = x_train.shape[0]
    n_val = x_val.shape[0]

    for _ in range(epochs):
        if cancel_check is not None and cancel_check():
            raise TrainingCancelled(
                "stacked training cancelled after "
                f"{max(h.epochs_run for h in histories)} epochs"
            )
        slices = stack.runs
        # One shuffled index order per slice — drawn from that slice's
        # own stream, exactly like its scalar loop.
        orders = np.empty((slices, n), dtype=np.intp)
        for r in range(slices):
            orders[r] = np.arange(n)
            if shuffle:
                rngs[slots[r]].shuffle(orders[r])
        #: One (slices,) row of minibatch loss values per step.
        step_losses: list[np.ndarray] = []
        for start in range(0, n, batch_size):
            idx = orders[:, start : start + batch_size]
            rows = idx.reshape(-1)
            yb = np.take(y_train, rows, axis=0)
            stack.zero_grads()
            plan = stack.step_plan(idx.shape[1])
            np.take(x_train, rows, axis=0, out=plan.inputs)
            out = plan.forward()
            # Loss values and gradients per slice: the scalar loss
            # divides by the *slice's* batch, not the fused one.
            values, grad = loss.stacked(out, yb, slices)
            step_losses.append(values)
            plan.backward(grad)
            optimizer.step(params, grads, arena=stack.arena)
        # (slices, steps): each slice's epoch mean reduces one contiguous
        # row, as the scalar loop's mean over its list of step losses.
        epoch_losses = np.stack(step_losses, axis=1)

        train_out = stack.predict_shared(x_train)
        val_out = stack.predict_shared(x_val)
        live = np.ones(slices, dtype=bool)
        for r in range(slices):
            history = histories[slots[r]]
            history.train_loss.append(float(np.mean(epoch_losses[r])))
            history.train_accuracy.append(
                accuracy(y_train, train_out[r * n : (r + 1) * n])
            )
            history.val_accuracy.append(
                accuracy(y_val, val_out[r * n_val : (r + 1) * n_val])
            )
            history.epochs_run += 1
            if (
                early_stop_threshold is not None
                and history.meets_threshold(early_stop_threshold)
            ):
                history.stopped_early = True
                history.wall_time_s = time.perf_counter() - started
                live[r] = False
        if live.all():
            continue
        # Frozen slices leave the sweep.  Their parameters are final
        # right now, so sync everything back (live slices resync at the
        # end) before the index-map gather drops their rows from the
        # stacks and the optimizer moments.
        stack.sync_to_models()
        keep = np.flatnonzero(live)
        slots = slots[keep]
        if not keep.size:
            break
        optimizer.compact(
            [
                keep if rows is None else np.flatnonzero(live[rows])
                for rows in stack.row_maps()
            ]
        )
        stack.compact(keep)
        params, grads = stack.parameters(), stack.gradients()

    elapsed = time.perf_counter() - started
    for slot in slots:
        histories[slot].wall_time_s = elapsed
    stack.sync_to_models()
    return histories


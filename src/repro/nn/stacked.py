"""Run-stacked models: R same-structure models trained as one stack.

The paper's protocol trains every candidate architecture ``runs`` times
with an identical structure — only the seed-derived initial parameters
differ — so a training step's work factors as *structure x runs*.  This
module folds the run axis into the batch axis: a
:class:`StackedSequential` holds one set of ``(R, ...)``-shaped
parameter stacks and executes all R runs' forward/backward passes in a
single sweep over run-major ``(R * B, features)`` activations (run ``r``
owns rows ``r*B .. (r+1)*B``).

Per-sample arithmetic is *bit-identical* to running the R source models
independently:

* :class:`StackedDense` applies one gemm per run slice — NumPy's
  batched ``matmul`` over a ``(R, B, in) @ (R, in, out)`` stack performs
  the same per-slice gemm a scalar :class:`~repro.nn.layers.Dense` would
  (one fused ``(R*B, in) @ (in, out)`` gemm would not: BLAS blocks by
  row count and may round differently);
* parameter-free elementwise/row-wise layers (ReLU, Tanh, Sigmoid,
  Softmax, Flatten) operate row-independently, so the scalar
  implementations are reused as-is on the fused batch;
* the quantum layer's run-stacked engine path
  (:meth:`repro.quantum.engine.CompiledTape.execute` with ``runs=R``)
  is differentially tested bitwise against per-run execution.

Stacking is *structural*: :func:`stack_models` inspects the R source
models layer by layer and returns ``None`` whenever any layer has no
registered stacker (custom layer types, Dropout, parameter-shift
quantum layers...).  Callers fall back to the scalar per-run loop in
that case, so vectorization is always an optimization, never a
behaviour change.  Layer types register themselves via
:func:`register_stacker` (the hybrid quantum layer does this on import,
keeping this module free of a quantum dependency).

**Cross-candidate stacks.**  :func:`stack_candidates` generalizes the
run axis to a *slice* axis spanning several candidates: C candidates x
R runs whose models share one expensive pivot structure (the quantum
layer — same qubits/ansatz/depth) merge into a single
:class:`GroupedStack` of S = sum(R_c) slices.  Heterogeneous classical
heads are handled per candidate (each candidate's prefix layers form
their own R_c-slice stack over that candidate's contiguous row block),
while the pivot and everything after it — structurally identical across
the group — stack across all S slices.  Per-slice arithmetic is again
bit-identical to the per-candidate stacks (and transitively to scalar
training): prefix gemms see the same per-slice row blocks, and the
pivot's per-slice engine kernels do not care whether neighbouring
slices belong to the same candidate.

**Frozen-row compaction.**  Every stacked layer supports
``compact(keep)``: dropping a slice's rows from the parameter stacks
(an index-map gather) leaves the surviving slices' per-slice kernels —
einsum-only quantum kernels, per-slice gemms — bit-identical, so a run
that early-stops (or a candidate whose runs all finished) can leave the
fused sweep instead of riding along frozen.

**Parameter arena.**  A :class:`StackedSequential` or
:class:`GroupedStack` owns one :class:`ParameterArena`: a flat value
buffer and a flat gradient buffer, with every layer's parameter and
gradient stacks bound as reshaped views into them.  Resetting the
gradients is one fill, and :class:`~repro.nn.optimizers.StackedAdam`
steps the whole stack with one elementwise update over the flat
buffers.  Compaction gathers the surviving rows and rebuilds the arena.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from ..backends import active_backend
from ..exceptions import ShapeError
from .layers import Dense, Flatten, Layer, ReLU, Sigmoid, Softmax, Tanh
from .model import Sequential

__all__ = [
    "ParameterArena",
    "flat_views",
    "StackedLayer",
    "StackedDense",
    "StackedSequential",
    "GroupedStack",
    "register_stacker",
    "register_group_pivot",
    "stack_models",
    "stack_candidates",
]


class StackedLayer:
    """Base class: one layer position of R run-stacked models.

    The interface mirrors :class:`~repro.nn.layers.Layer` but activations
    carry a fused run-major ``(R * B, features)`` batch.  ``params`` and
    ``grads`` hold ``(R, ...)`` stacks (leading run axis); the owning
    stack binds them to views of its :class:`ParameterArena` and resets
    the gradients there.
    """

    def __init__(self, runs: int, name: str) -> None:
        self.runs = runs
        self.name = name
        self.params: list[np.ndarray] = []
        self.grads: list[np.ndarray] = []

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def bind(self, params: list, grads: list) -> None:
        """Point the parameter and gradient stacks at new arrays of the
        same shapes (views into a :class:`ParameterArena`).  Subclasses
        that alias a stack under its own name rebind that name too."""
        self.params = params
        self.grads = grads

    def peak_bytes(self, rows: int) -> int:
        """Predicted activation working-set bytes of one training step
        over a fused ``(rows, features)`` batch, excluding the parameter
        stacks (the owning stack counts those, with their optimizer
        moments).  Parameter-free layers cost nothing beyond the
        activations already counted by their neighbours."""
        return 0

    def sync_to_layers(self, layers: Sequence[Layer]) -> None:
        """Copy the per-run parameter slices back into the source layers."""

    def compact(self, keep: np.ndarray) -> None:
        """Drop all run rows not in ``keep`` (an index array).

        The gather is a plain fancy-index copy, so the surviving rows'
        values — and every per-slice kernel that consumes them — are
        bit-identical to the uncompacted stack's.  Subclasses with
        parameters extend this to gather their stacks.
        """
        self.runs = int(np.asarray(keep).size)


class _StackedPassthrough(StackedLayer):
    """A parameter-free row-wise layer applied to the fused batch.

    Elementwise and row-wise layers compute each output row from its own
    input row only, so applying one scalar instance to the fused
    ``(R*B, F)`` batch is exactly R independent applications.
    """

    def __init__(self, runs: int, layer: Layer) -> None:
        super().__init__(runs, name=f"stacked_{layer.name}")
        self._layer = layer
        self._xp = active_backend()

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        # Scalar layer implementations are NumPy; on a device backend
        # the activation round-trips through host here.
        if not self._xp.is_numpy:
            x = self._xp.to_numpy(x)
        return self._layer.forward(x, training=training)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if not self._xp.is_numpy:
            grad = self._xp.to_numpy(grad)
        return self._layer.backward(grad)


class StackedDense(StackedLayer):
    """R :class:`~repro.nn.layers.Dense` layers as one batched stack.

    Weights are ``(R, in, out)`` and biases ``(R, out)``.  Forward and
    backward are batched ``matmul`` calls over ``(R, B, ·)`` views of the
    fused batch: NumPy runs one dgemm per run slice inside the call,
    which keeps the arithmetic bit-identical to the scalar layer (a
    single fused ``(R*B, in)`` gemm would let BLAS block differently
    and drift in the last ulp, which run-vectorized searches are not
    allowed to do).
    """

    def __init__(self, runs: int, layers: Sequence[Dense]) -> None:
        super().__init__(runs, name=f"stacked_{layers[0].name}")
        self._xp = active_backend()
        self.in_features = layers[0].in_features
        self.out_features = layers[0].out_features
        # asarray is a no-copy identity on the NumPy backend and a
        # one-time device upload elsewhere; the stacks then stay
        # device-resident for the whole training loop.
        self.weight = self._xp.asarray(
            np.stack([lay.weight for lay in layers])
        )
        self.bias = self._xp.asarray(np.stack([lay.bias for lay in layers]))
        self.params = [self.weight, self.bias]
        self.grads = [
            self._xp.zeros_like(self.weight),
            self._xp.zeros_like(self.bias),
        ]
        self._cache_x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = self._xp.as_real(x)
        if (
            x.ndim != 2
            or x.shape[1] != self.in_features
            or x.shape[0] % self.runs
        ):
            raise ShapeError(
                f"{self.name} expected (runs*batch, {self.in_features}), "
                f"got {tuple(x.shape)} for runs={self.runs}"
            )
        if training:
            self._cache_x = x
        rows = x.shape[0]
        x3 = x.reshape(self.runs, rows // self.runs, self.in_features)
        out = self._xp.matmul(x3, self.weight) + self.bias[:, None, :]
        return out.reshape(rows, self.out_features)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache_x is None:
            raise ShapeError(
                f"{self.name}.backward called without a training forward"
            )
        grad = self._xp.as_real(grad)
        x = self._cache_x
        rows = x.shape[0]
        x3 = x.reshape(self.runs, rows // self.runs, self.in_features)
        g3 = grad.reshape(self.runs, rows // self.runs, self.out_features)
        self.grads[0] += self._xp.matmul(x3.swapaxes(1, 2), g3)
        self.grads[1] += g3.sum(axis=1)
        out = self._xp.matmul(g3, self.weight.swapaxes(1, 2))
        return out.reshape(rows, self.in_features)

    def peak_bytes(self, rows: int) -> int:
        # The cached forward input plus the output block, float64 rows.
        return 2 * rows * (self.in_features + self.out_features) * 8

    def bind(self, params: list, grads: list) -> None:
        super().bind(params, grads)
        self.weight, self.bias = params

    def sync_to_layers(self, layers: Sequence[Layer]) -> None:
        for r, lay in enumerate(layers):
            lay.weight[...] = self._xp.to_numpy(self.weight[r])
            lay.bias[...] = self._xp.to_numpy(self.bias[r])

    def compact(self, keep: np.ndarray) -> None:
        super().compact(keep)
        self.bind(
            [p[keep] for p in self.params], [g[keep] for g in self.grads]
        )
        self._cache_x = None


def _param_nbytes(p) -> int:
    """Bytes held by one parameter stack (backend-agnostic)."""
    nbytes = getattr(p, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    return _numel(p) * 8


def _numel(p) -> int:
    return math.prod(p.shape)


def flat_views(flat, shapes: Sequence[tuple]) -> list:
    """Consecutive reshaped views of the 1-D buffer ``flat``, one per
    shape (in order, no gaps)."""
    views, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[offset : offset + size].reshape(shape))
        offset += size
    return views


class ParameterArena:
    """Flat value and gradient buffers behind a stack's parameters.

    ``values[o:o+n]`` and ``grads[o:o+n]`` hold one parameter stack and
    its gradient, in the owning stack's ``parameters()`` order; the
    layers see them as reshaped views (:meth:`StackedLayer.bind`), so
    every in-place layer update lands in the arena.  Elementwise work
    over the whole stack — the gradient reset, the Adam update — is
    then one call on ``values``/``grads``.
    """

    __slots__ = ("values", "grads")

    def __init__(self, values, grads) -> None:
        self.values = values
        self.grads = grads

    @classmethod
    def bind(cls, layers: Sequence[StackedLayer], xp) -> "ParameterArena":
        """Copy ``layers``' parameter and gradient stacks into a fresh
        arena and rebind every layer to views of it."""
        shapes = [tuple(p.shape) for layer in layers for p in layer.params]
        total = sum(math.prod(shape) for shape in shapes)
        arena = cls(
            xp.empty(total, dtype=xp.real_dtype),
            xp.empty(total, dtype=xp.real_dtype),
        )
        views = zip(
            flat_views(arena.values, shapes), flat_views(arena.grads, shapes)
        )
        for layer in layers:
            pairs = [next(views) for _ in layer.params]
            for (value, grad), p, g in zip(pairs, layer.params, layer.grads):
                value[...] = p
                grad[...] = g
            layer.bind([v for v, _ in pairs], [g for _, g in pairs])
        return arena

    def section(self, start: int, stop: int) -> "ParameterArena":
        """The arena slice ``start:stop`` (views, not copies)."""
        return ParameterArena(self.values[start:stop], self.grads[start:stop])


#: type -> stacker(runs, layers) registry.  Keyed on the *exact* type:
#: a subclass may override behaviour the stacker does not model, so it
#: conservatively falls back to the scalar path instead.
_STACKERS: dict[type, Callable[[int, Sequence[Layer]], StackedLayer | None]] = {}

#: Parameter-free row-wise layers whose scalar implementation is reused
#: directly on the fused batch.
_PASSTHROUGH_TYPES = (ReLU, Tanh, Sigmoid, Softmax, Flatten)


def register_stacker(
    layer_type: type,
    stacker: Callable[[int, Sequence[Layer]], StackedLayer | None],
) -> None:
    """Register a stacked implementation for an exact layer type.

    ``stacker(runs, layers)`` receives the R aligned layer instances and
    returns a :class:`StackedLayer`, or ``None`` if these particular
    instances cannot be stacked (the model then falls back to scalar
    training).
    """
    _STACKERS[layer_type] = stacker


def _stack_dense(runs: int, layers: Sequence[Layer]) -> StackedLayer | None:
    first = layers[0]
    for lay in layers:
        if (
            lay.in_features != first.in_features
            or lay.out_features != first.out_features
        ):
            return None
    return StackedDense(runs, layers)


register_stacker(Dense, _stack_dense)


class StackedSequential:
    """R structurally identical :class:`Sequential` models as one stack.

    Build via :func:`stack_models`.  ``forward``/``backward`` take fused
    run-major activations; ``parameters()``/``gradients()`` expose the
    ``(R, ...)`` stacks as views into :attr:`arena` (feed them, with the
    arena, to a stacked optimizer such as
    :class:`repro.nn.optimizers.StackedAdam`).
    """

    def __init__(
        self,
        runs: int,
        layers: Sequence[StackedLayer],
        models: Sequence[Sequential],
    ) -> None:
        self.runs = runs
        self.layers = list(layers)
        self._models = list(models)
        self._xp = active_backend()
        self.arena = ParameterArena.bind(self.layers, self._xp)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = x
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x, training=False)

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params]

    def gradients(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads]

    def row_maps(self) -> list[np.ndarray | None]:
        """Per-parameter map from parameter rows to stack slices.

        ``None`` means the identity (every parameter stack spans every
        slice) — true for a plain run stack.  :class:`GroupedStack`
        overrides this for per-candidate parameter stacks.
        """
        return [None] * len(self.parameters())

    def peak_bytes(self, batch: int) -> int:
        """Predicted peak working-set bytes of one training step.

        Parameter stacks count four times over — values, gradients and
        the two Adam moment stacks a
        :class:`~repro.nn.optimizers.StackedAdam` holds — plus each
        layer's activation working set over the fused ``runs * batch``
        rows.  An upper envelope for admission control, cross-checked by
        the runtime's measured bytes EWMA.
        """
        rows = self.runs * batch
        total = 4 * sum(_param_nbytes(p) for p in self.parameters())
        total += sum(layer.peak_bytes(rows) for layer in self.layers)
        return total

    def zero_grads(self) -> None:
        self._xp.fill(self.arena.grads, 0.0)

    def sync_to_models(self) -> None:
        """Write the trained per-run parameters back into the R models."""
        for pos, layer in enumerate(self.layers):
            layer.sync_to_layers([m.layers[pos] for m in self._models])

    def compact(self, keep: np.ndarray) -> None:
        """Drop every run row not in ``keep`` from all layer stacks and
        rebuild the arena over the survivors."""
        keep = np.asarray(keep, dtype=np.intp)
        for layer in self.layers:
            layer.compact(keep)
        self._models = [self._models[i] for i in keep]
        self.runs = int(keep.size)
        self.arena = ParameterArena.bind(self.layers, self._xp)


def _stack_rows(
    runs: int, rows: Sequence[Sequence[Layer]]
) -> list[StackedLayer] | None:
    """Stack aligned layer rows (one list of ``runs`` instances per
    position); ``None`` if any position has no exact-type stacker."""
    stacked: list[StackedLayer] = []
    for layers in rows:
        tp = type(layers[0])
        if any(type(lay) is not tp for lay in layers[1:]):
            return None
        stacker = _STACKERS.get(tp)
        if stacker is not None:
            entry = stacker(runs, layers)
            if entry is None:
                return None
            stacked.append(entry)
        elif tp in _PASSTHROUGH_TYPES:
            stacked.append(_StackedPassthrough(runs, layers[0]))
        else:
            return None
    return stacked


def stack_models(models: Sequence[Sequential]) -> StackedSequential | None:
    """Fold R structurally identical models into one stacked model.

    Returns ``None`` — vectorization unavailable, train the models
    scalar — unless every layer position holds R instances of one exact
    type that is either a registered stackable type or a known
    parameter-free row-wise layer.
    """
    models = list(models)
    if len(models) < 2:
        return None
    n_layers = len(models[0].layers)
    if any(len(m.layers) != n_layers for m in models[1:]):
        return None
    runs = len(models)
    stacked = _stack_rows(
        runs, [[m.layers[pos] for m in models] for pos in range(n_layers)]
    )
    if stacked is None:
        return None
    return StackedSequential(runs, stacked, models)


# -- cross-candidate groups -------------------------------------------------

#: Layer types a heterogeneous candidate group may be split at: each
#: member model must contain exactly one pivot layer, the pivot and the
#: layers after it stack across the whole group, and everything before
#: it stacks per candidate.  The hybrid quantum layer registers itself
#: on import (same pattern as the stacker registry).
_GROUP_PIVOTS: set[type] = set()


def register_group_pivot(layer_type: type) -> None:
    """Mark a layer type as a valid cross-candidate split point."""
    _GROUP_PIVOTS.add(layer_type)


class _GroupMember:
    """One candidate's run set inside a :class:`GroupedStack`."""

    __slots__ = ("models", "prefix", "pivot_pos", "size")

    def __init__(
        self,
        models: list[Sequential],
        prefix: StackedSequential | None,
        pivot_pos: int,
    ) -> None:
        self.models = models
        self.prefix = prefix
        self.pivot_pos = pivot_pos
        self.size = len(models)


class GroupedStack:
    """C candidates x R runs as one stack with per-candidate prefixes.

    Built by :func:`stack_candidates`.  The fused activation batch is
    *slice-major*: slice ``s`` (candidate-major, runs in order) owns
    rows ``s*B .. (s+1)*B``, exactly like :class:`StackedSequential`'s
    run-major layout — ``runs`` here counts slices.  Classical prefix
    layers that differ between candidates run per candidate on that
    candidate's contiguous row block; the pivot layer (the quantum
    sweep) and the shared suffix run once over all S slices.

    Every kernel is per slice (per-slice gemms, per-run engine
    kernels), so each slice's arithmetic is bit-identical to the same
    run trained in a single-candidate stack — which is what lets
    candidate-stacked grid searches reproduce unstacked results
    exactly.
    """

    def __init__(
        self, members: list[_GroupMember], shared: list[StackedLayer]
    ) -> None:
        self.members = members
        self.shared = shared
        self.runs = sum(m.size for m in members)
        self._xp = active_backend()
        self._bind_arena()

    def _bind_arena(self) -> None:
        """One arena over every prefix stack, then the shared layers
        (the :meth:`parameters` order); each prefix keeps its section."""
        prefixes = [m.prefix for m in self.members if m.prefix is not None]
        self.arena = ParameterArena.bind(
            [lay for p in prefixes for lay in p.layers] + self.shared,
            self._xp,
        )
        offset = 0
        for prefix in prefixes:
            size = sum(_numel(p) for p in prefix.parameters())
            prefix.arena = self.arena.section(offset, offset + size)
            offset += size

    @property
    def _segmented(self) -> bool:
        return any(m.prefix is not None for m in self.members)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        # Segmentation bookkeeping is host-side: per-candidate blocks are
        # sliced out of a host array and re-gathered into one.  Device
        # backends hand each block to the prefix stack (which uploads
        # it) and download its output; the shared pivot re-binds its
        # inputs host-side anyway, so no transfer is wasted.
        x = np.asarray(self._xp.to_numpy(x), dtype=np.float64)
        if x.ndim != 2 or x.shape[0] % self.runs:
            raise ShapeError(
                f"grouped stack expected (slices*batch, features), got "
                f"{x.shape} for {self.runs} slices"
            )
        out = x
        if self._segmented:
            per = x.shape[0] // self.runs
            mid: np.ndarray | None = None
            offset = 0
            for member in self.members:
                rows = member.size * per
                block = x[offset : offset + rows]
                if member.prefix is not None:
                    block = self._xp.to_numpy(
                        member.prefix.forward(block, training=training)
                    )
                if mid is None:
                    mid = np.empty(
                        (x.shape[0], block.shape[1]), dtype=np.float64
                    )
                mid[offset : offset + rows] = block
                offset += rows
            out = mid
        for layer in self.shared:
            out = layer.forward(out, training=training)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.shared):
            grad = layer.backward(grad)
        if not self._segmented:
            return grad
        grad = np.asarray(self._xp.to_numpy(grad), dtype=np.float64)
        per = grad.shape[0] // self.runs
        out: np.ndarray | None = None
        offset = 0
        for member in self.members:
            rows = member.size * per
            block = grad[offset : offset + rows]
            if member.prefix is not None:
                block = self._xp.to_numpy(member.prefix.backward(block))
            if out is None:
                out = np.empty(
                    (grad.shape[0], block.shape[1]), dtype=np.float64
                )
            out[offset : offset + rows] = block
            offset += rows
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x, training=False)

    def parameters(self) -> list[np.ndarray]:
        out = []
        for member in self.members:
            if member.prefix is not None:
                out.extend(member.prefix.parameters())
        for layer in self.shared:
            out.extend(layer.params)
        return out

    def gradients(self) -> list[np.ndarray]:
        out = []
        for member in self.members:
            if member.prefix is not None:
                out.extend(member.prefix.gradients())
        for layer in self.shared:
            out.extend(layer.grads)
        return out

    def row_maps(self) -> list[np.ndarray | None]:
        """Slice indices behind each parameter stack's rows.

        Prefix parameters of the candidate at slice offset ``o`` with
        ``R_c`` runs map to slices ``o .. o+R_c``; shared parameters map
        identically (``None``).  The optimizer uses these maps to
        translate a global freeze mask into per-parameter row masks.
        """
        maps: list[np.ndarray | None] = []
        offset = 0
        for member in self.members:
            if member.prefix is not None:
                rows = np.arange(offset, offset + member.size)
                maps.extend(
                    [rows] * len(member.prefix.parameters())
                )
            offset += member.size
        maps.extend([None] * sum(len(lay.params) for lay in self.shared))
        return maps

    def peak_bytes(self, batch: int) -> int:
        """Predicted peak working-set bytes of one grouped training step.

        Same accounting as :meth:`StackedSequential.peak_bytes` — every
        parameter stack four times over (values, grads, Adam moments) —
        with prefix layers counted over their candidate's row block and
        the shared pivot/suffix over all ``runs * batch`` fused rows.
        """
        rows = self.runs * batch
        total = 4 * sum(_param_nbytes(p) for p in self.parameters())
        for member in self.members:
            if member.prefix is not None:
                total += sum(
                    layer.peak_bytes(member.size * batch)
                    for layer in member.prefix.layers
                )
        total += sum(layer.peak_bytes(rows) for layer in self.shared)
        return total

    def zero_grads(self) -> None:
        self._xp.fill(self.arena.grads, 0.0)

    def sync_to_models(self) -> None:
        """Write every slice's parameters back into its source model."""
        for member in self.members:
            if member.prefix is not None:
                member.prefix.sync_to_models()
        flat = [
            (model, member.pivot_pos)
            for member in self.members
            for model in member.models
        ]
        for j, layer in enumerate(self.shared):
            layer.sync_to_layers([m.layers[pos + j] for m, pos in flat])

    def compact(self, keep: np.ndarray) -> None:
        """Drop every slice not in ``keep`` (current slice indices).

        A candidate whose slices all vanish leaves the group entirely —
        its prefix stack (and its parameters) drop out of
        :meth:`parameters` — so the caller must compact any optimizer
        state with the matching :meth:`row_maps` *before* this call.
        The arena is rebuilt over the survivors.
        """
        keep = np.asarray(keep, dtype=np.intp)
        survivors: list[_GroupMember] = []
        offset = 0
        for member in self.members:
            local = keep[(keep >= offset) & (keep < offset + member.size)]
            local = local - offset
            offset += member.size
            if local.size == 0:
                continue
            if member.prefix is not None:
                member.prefix.compact(local)
            member.models = [member.models[i] for i in local]
            member.size = int(local.size)
            survivors.append(member)
        self.members = survivors
        for layer in self.shared:
            layer.compact(keep)
        self.runs = int(keep.size)
        self._bind_arena()


def stack_candidates(
    model_groups: Sequence[Sequence[Sequential]],
) -> GroupedStack | None:
    """Fold several candidates' run sets into one :class:`GroupedStack`.

    ``model_groups[c]`` holds candidate ``c``'s run models (all
    structurally identical to each other by construction).  Returns
    ``None`` — train each candidate separately — unless either

    * every model across the whole group stacks position-wise
      (identical layer types and shapes: the fully fused case), or
    * every model has exactly one registered pivot layer
      (:func:`register_group_pivot`), the pivot and the layers after it
      stack across all S slices, and each candidate's prefix stacks on
      its own (heterogeneous classical heads).
    """
    groups = [list(g) for g in model_groups]
    if any(not g for g in groups):
        return None
    flat = [m for g in groups for m in g]
    total = len(flat)
    if total < 2:
        return None
    # Fully aligned fast path: one stack over every slice, no segments.
    n_layers = len(flat[0].layers)
    if all(len(m.layers) == n_layers for m in flat):
        stacked = _stack_rows(
            total, [[m.layers[pos] for m in flat] for pos in range(n_layers)]
        )
        if stacked is not None:
            members = [_GroupMember(g, None, 0) for g in groups]
            return GroupedStack(members, stacked)
    # Segmented path: split each model at its unique pivot layer.
    split_at: list[int] = []
    for model in flat:
        pivots = [
            pos
            for pos, lay in enumerate(model.layers)
            if type(lay) in _GROUP_PIVOTS
        ]
        if len(pivots) != 1:
            return None
        split_at.append(pivots[0])
    suffix_lens = {
        len(m.layers) - pos for m, pos in zip(flat, split_at)
    }
    if len(suffix_lens) != 1:
        return None
    shared = _stack_rows(
        total,
        [
            [m.layers[pos + j] for m, pos in zip(flat, split_at)]
            for j in range(suffix_lens.pop())
        ],
    )
    if shared is None:
        return None
    members = []
    start = 0
    for group in groups:
        positions = split_at[start : start + len(group)]
        start += len(group)
        pos = positions[0]
        if any(p != pos for p in positions):
            return None
        if pos == 0:
            prefix = None
        else:
            rows = [[m.layers[j] for m in group] for j in range(pos)]
            layers = _stack_rows(len(group), rows)
            if layers is None:
                return None
            prefix = StackedSequential(len(group), layers, group)
        members.append(_GroupMember(group, prefix, pos))
    return GroupedStack(members, shared)

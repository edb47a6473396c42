"""Stacked models: many same-shape training runs as one fused sweep.

The paper's protocol trains every candidate architecture ``runs`` times
with an identical structure — only the seed-derived initial parameters
differ — so a training step's work factors as *structure x runs*.  This
module folds the run axis into the batch axis: a stacked layer holds
one set of ``(R, ...)``-shaped parameter stacks and executes all R
runs' forward/backward passes in a single sweep over run-major
``(R * B, features)`` activations (run ``r`` owns rows
``r*B .. (r+1)*B``).

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

Stacking is *structural*: :func:`stack_candidates` inspects the source
models layer by layer and returns ``None`` whenever a layer has no
registered stacker (custom layer types, Dropout, parameter-shift
quantum layers...).  Callers fall back to per-candidate or scalar
per-run training in that case, so stacking is always an optimization,
never a behaviour change.  Layer types register themselves via
:func:`register_stacker` (the hybrid quantum layer does this on import,
keeping this module free of a quantum dependency).

**Cross-candidate stacks.**  The run axis generalizes to a *slice*
axis spanning several candidates: C candidates x R runs merge into a
single :class:`GroupedStack` of S = sum(R_c) slices, whatever their
depths and widths; one candidate's run set is the one-candidate group.
The leading layer positions that stack across all S slices form a
shared *head*, the trailing ones a shared *tail* (in the paper's
spaces: a classical candidate's first ``Dense`` + ReLU and final
Softmax, a hybrid candidate's input and output layers), and each
candidate's remaining layers form its own *middle*
(:class:`StackedSequential`) over that candidate's contiguous row
block.  Quantum layers that differ only in depth stack across the
group too (one depth-padded engine sweep, see
:class:`~repro.hybrid.quantum_layer.StackedQuantumLayer`), so a
hybrid group such as ``SEL(3,1)`` … ``SEL(3,4)`` is one shared head
with no middles.  Per-slice arithmetic is again bit-identical to
scalar training: middle gemms see the same per-slice row blocks, and
shared per-slice gemms and engine kernels do not care whether
neighbouring slices belong to the same candidate.

**Frozen-row compaction.**  Every stacked layer supports
``compact(keep)``: dropping a slice's rows from the parameter stacks
(an index-map gather) leaves the surviving slices' per-slice kernels —
quantum and classical gemms alike — bit-identical, so a run
that early-stops (or a candidate whose runs all finished) leaves the
fused sweep instead of riding along frozen.

**Parameter arena.**  A :class:`GroupedStack` owns one
:class:`ParameterArena`: a flat value buffer and a flat gradient
buffer, with every layer's parameter and gradient stacks bound as
reshaped views into them.  Resetting the gradients is one fill, and
:class:`~repro.nn.optimizers.StackedAdam` steps the whole stack with
one elementwise update over the flat buffers.  Compaction gathers the
surviving rows and rebuilds the arena.

**Compiled training step.**  A training step does not walk the
layers: :meth:`GroupedStack.step_plan` compiles it, once per
rows-per-slice, into a :class:`StepPlan`.  The plan owns the fused
minibatch buffer and every activation, gradient and mask buffer, and
runs a forward and a backward list of prebuilt steps over fixed views
of them, each writing with ``out=``:

* a *dense step* is a :class:`StackedDense` and the ReLU after it, if
  any (the ReLU backward runs inside the dense backward);
* an *opaque step* is any other stacked layer (the quantum layer,
  Softmax, Tanh...): it calls the layer's own ``forward``/``backward``
  and copies the result into the plan's buffer.

Each member's middle writes straight into its row block of the tail's
input buffer, so nothing is concatenated, and the first layers skip the
input-gradient gemm nobody reads.  The plan is bit for bit the
layer-by-layer step because it keeps every product at its shape,
kernel and order of accumulation and writes in place only where the
result has the same bits: the bias add is an in-place ``np.add``, a
gradient is accumulated as ``np.matmul(..., out=tmp)`` then
``np.add(G, tmp, out=G)`` (as ``G += ...`` does, which turns ``-0.0``
into ``+0.0``), a bias gradient is ``np.add.reduce(g3, axis=1,
out=...)``, and the ReLU writes ``+0.0`` through a ``np.greater`` mask
(``np.maximum`` or ``x * mask`` differ in the sign of zero and for
NaN).  Evaluation forwards run layer by layer; the layer-by-layer
:meth:`GroupedStack.forward`/``backward`` stay as the reference the
plan is tested against.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

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
    "StepPlan",
    "register_stacker",
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

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self._layer.forward(x, training=training)

    def backward(self, grad: np.ndarray) -> np.ndarray:
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
        self.in_features = layers[0].in_features
        self.out_features = layers[0].out_features
        self.weight = np.stack([lay.weight for lay in layers])
        self.bias = np.stack([lay.bias for lay in layers])
        self.params = [self.weight, self.bias]
        self.grads = [np.zeros_like(self.weight), np.zeros_like(self.bias)]
        self._cache_x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
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
        return self._broadcast(x3)

    def _broadcast(self, x3: np.ndarray) -> np.ndarray:
        """``x3 @ weight + bias`` fused run-major; a leading axis of 1
        shares one input across every run (the same per-run gemm)."""
        out = np.matmul(x3, self.weight) + self.bias[:, None, :]
        return out.reshape(-1, self.out_features)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache_x is None:
            raise ShapeError(
                f"{self.name}.backward called without a training forward"
            )
        grad = np.asarray(grad, dtype=np.float64)
        x = self._cache_x
        rows = x.shape[0]
        x3 = x.reshape(self.runs, rows // self.runs, self.in_features)
        g3 = grad.reshape(self.runs, rows // self.runs, self.out_features)
        self.grads[0] += np.matmul(x3.swapaxes(1, 2), g3)
        self.grads[1] += g3.sum(axis=1)
        out = np.matmul(g3, self.weight.swapaxes(1, 2))
        return out.reshape(rows, self.in_features)

    def bind(self, params: list, grads: list) -> None:
        super().bind(params, grads)
        self.weight, self.bias = params

    def sync_to_layers(self, layers: Sequence[Layer]) -> None:
        for r, lay in enumerate(layers):
            lay.weight[...] = self.weight[r]
            lay.bias[...] = self.bias[r]

    def compact(self, keep: np.ndarray) -> None:
        super().compact(keep)
        self.bind(
            [p[keep] for p in self.params], [g[keep] for g in self.grads]
        )
        self._cache_x = None


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
    def bind(cls, layers: Sequence[StackedLayer]) -> "ParameterArena":
        """Copy ``layers``' parameter and gradient stacks into a fresh
        arena and rebind every layer to views of it."""
        shapes = [tuple(p.shape) for layer in layers for p in layer.params]
        total = sum(math.prod(shape) for shape in shapes)
        arena = cls(
            np.empty(total, dtype=np.float64), np.empty(total, dtype=np.float64)
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


def _forward_shared(layers: Sequence[StackedLayer], x, runs: int):
    """Inference forward of one ``(n, features)`` input that all ``runs``
    slices share: a leading :class:`StackedDense` broadcasts it against
    its weight stack, any other first layer sees it tiled slice-major."""
    if layers and isinstance(layers[0], StackedDense):
        first = layers[0]
        out = first._broadcast(np.asarray(x, dtype=np.float64)[None])
        layers = layers[1:]
    else:
        out = np.tile(x, (runs, 1))
    for layer in layers:
        out = layer.forward(out, training=False)
    return out


class StackedSequential:
    """One candidate's middle inside a :class:`GroupedStack`: R
    structurally identical :class:`Sequential` models as one stack.

    ``forward``/``backward`` take fused run-major activations over the
    candidate's row block; ``parameters()``/``gradients()`` expose the
    ``(R, ...)`` stacks, which the owning group binds into its
    :class:`ParameterArena`.
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

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = x
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def predict_shared(self, x: np.ndarray) -> np.ndarray:
        """Predict every run on one ``(n, features)`` input they all
        share; returns the fused run-major ``(runs * n, ·)`` output,
        bit-identical to ``forward`` on ``runs`` tiled copies of ``x``
        without materializing them."""
        return _forward_shared(self.layers, x, self.runs)

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params]

    def gradients(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads]

    def sync_to_models(self) -> None:
        """Write the trained per-run parameters back into the R models."""
        for pos, layer in enumerate(self.layers):
            layer.sync_to_layers([m.layers[pos] for m in self._models])

    def compact(self, keep: np.ndarray) -> None:
        """Drop every run row not in ``keep`` from all layer stacks."""
        for layer in self.layers:
            layer.compact(keep)
        self._models = [self._models[i] for i in keep]
        self.runs = int(keep.size)


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


# -- cross-candidate groups -------------------------------------------------


class _GroupMember:
    """One candidate's run set inside a :class:`GroupedStack`."""

    __slots__ = ("models", "middle", "size")

    def __init__(
        self, models: list[Sequential], middle: StackedSequential | None
    ) -> None:
        self.models = models
        self.middle = middle
        self.size = len(models)


class GroupedStack:
    """C candidates x R runs as one stack: shared head and tail, and a
    per-candidate middle.

    Built by :func:`stack_candidates`.  The fused activation batch is
    *slice-major*: slice ``s`` (candidate-major, runs in order) owns
    rows ``s*B .. (s+1)*B`` — ``runs`` here counts slices.  The layer
    list of every member model splits into three parts:

    * the :attr:`head`, the leading layer positions that stack across
      all S slices, runs once over the whole fused batch;
    * each member's ``middle`` — its remaining layers, possibly none —
      runs as an ``R_c``-slice :class:`StackedSequential` over that
      candidate's contiguous row block;
    * the :attr:`tail`, the trailing layer positions that stack across
      all S slices, runs once over the re-fused batch.

    Every kernel is per slice (per-slice gemms, per-run engine
    kernels), so each slice's arithmetic is bit-identical to the same
    run trained scalar — which is what lets stacked grid searches
    reproduce unstacked results exactly.
    """

    def __init__(
        self,
        members: list[_GroupMember],
        head: list[StackedLayer],
        tail: list[StackedLayer],
    ) -> None:
        self.members = members
        self.head = head
        self.tail = tail
        self.runs = sum(m.size for m in members)
        self.arena = ParameterArena.bind(self.layers)
        #: rows per slice -> compiled training step (see :meth:`step_plan`).
        self._plans: dict[int, StepPlan] = {}

    @property
    def layers(self) -> list[StackedLayer]:
        """Every stacked layer in :meth:`parameters` order: the head,
        each member's middle, the tail."""
        middles = [
            layer
            for m in self.members
            if m.middle is not None
            for layer in m.middle.layers
        ]
        return self.head + middles + self.tail

    @property
    def _segmented(self) -> bool:
        return any(m.middle is not None for m in self.members)

    def _per_member(self, x, apply, shared: bool = False) -> np.ndarray:
        """Re-fuse ``apply(middle, block)`` over every member's row block
        of ``x``; a member without a middle passes its block through.
        With ``shared``, ``x`` is one input every slice sees, so each
        member's block is ``x`` itself (tiled where it passes through).
        """
        x = np.asarray(x, dtype=np.float64)
        per = x.shape[0] if shared else x.shape[0] // self.runs
        blocks, offset = [], 0
        for member in self.members:
            rows = member.size * per
            block = x if shared else x[offset : offset + rows]
            offset += rows
            if member.middle is not None:
                block = apply(member.middle, block)
            elif shared:
                block = np.tile(x, (member.size, 1))
            blocks.append(block)
        return np.concatenate(blocks)

    def _tail_forward(self, x, training: bool) -> np.ndarray:
        for layer in self.tail:
            x = layer.forward(x, training=training)
        return x

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[0] % self.runs:
            raise ShapeError(
                f"grouped stack expected (slices*batch, features), got "
                f"{tuple(x.shape)} for {self.runs} slices"
            )
        for layer in self.head:
            x = layer.forward(x, training=training)
        if self._segmented:
            x = self._per_member(
                x, lambda middle, block: middle.forward(block, training)
            )
        return self._tail_forward(x, training)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.tail):
            grad = layer.backward(grad)
        if self._segmented:
            grad = self._per_member(
                grad, lambda middle, block: middle.backward(block)
            )
        for layer in reversed(self.head):
            grad = layer.backward(grad)
        return grad

    def step_plan(self, per: int) -> "StepPlan":
        """The compiled training step for minibatches of ``per`` rows
        per slice, built on first use and kept until :meth:`compact`
        (whose arena rebuild moves every parameter view it holds)."""
        plan = self._plans.get(per)
        if plan is None:
            plan = self._plans[per] = StepPlan(self, per)
        return plan

    def predict_shared(self, x: np.ndarray) -> np.ndarray:
        """Predict every slice on one ``(n, features)`` input they all
        share (see :meth:`StackedSequential.predict_shared`); without a
        head, each member's middle takes the shared input itself."""
        if self.head:
            x = _forward_shared(self.head, x, self.runs)
            if self._segmented:
                x = self._per_member(
                    x, lambda middle, block: middle.forward(block)
                )
        else:
            x = self._per_member(
                x, lambda middle, block: middle.predict_shared(block), True
            )
        return self._tail_forward(x, training=False)

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params]

    def gradients(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads]

    def row_maps(self) -> list[np.ndarray | None]:
        """Slice indices behind each parameter stack's rows.

        Middle parameters of the candidate at slice offset ``o`` with
        ``R_c`` runs map to slices ``o .. o+R_c``; head and tail
        parameters map identically (``None``).  Compaction uses these
        maps to translate the surviving slices into per-parameter rows
        of the optimizer's moments.
        """
        maps: list[np.ndarray | None] = [None] * sum(
            len(layer.params) for layer in self.head
        )
        offset = 0
        for member in self.members:
            if member.middle is not None:
                rows = np.arange(offset, offset + member.size)
                maps.extend([rows] * len(member.middle.parameters()))
            offset += member.size
        maps.extend([None] * sum(len(layer.params) for layer in self.tail))
        return maps

    def zero_grads(self) -> None:
        self.arena.grads.fill(0.0)

    def sync_to_models(self) -> None:
        """Write every slice's parameters back into its source model."""
        flat = [model for member in self.members for model in member.models]
        for pos, layer in enumerate(self.head):
            layer.sync_to_layers([m.layers[pos] for m in flat])
        for pos, layer in enumerate(self.tail, start=-len(self.tail)):
            layer.sync_to_layers([m.layers[pos] for m in flat])
        for member in self.members:
            if member.middle is not None:
                member.middle.sync_to_models()

    def compact(self, keep: np.ndarray) -> None:
        """Drop every slice not in ``keep`` (current slice indices).

        A candidate whose slices all vanish leaves the group entirely —
        its middle stack (and its parameters) drop out of
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
            if member.middle is not None:
                member.middle.compact(local)
            member.models = [member.models[i] for i in local]
            member.size = int(local.size)
            survivors.append(member)
        self.members = survivors
        for layer in self.head + self.tail:
            layer.compact(keep)
        self.runs = int(keep.size)
        self.arena = ParameterArena.bind(self.layers)
        self._plans = {}


# -- compiled training step ---------------------------------------------------


def _dense_step(layer: StackedDense, relu: bool, per: int, x, gx, y, gy):
    """Forward and backward of one :class:`StackedDense` (and, with
    ``relu``, the ReLU after it) over fixed buffers.

    ``x``/``y`` are the input and output buffers, ``gx``/``gy`` their
    gradients; ``gx`` is ``None`` when nothing reads the input gradient,
    and its gemm is skipped.  The steps compute what
    :meth:`StackedDense.forward`/``backward`` and the scalar ReLU
    compute, bit for bit, in place.
    """
    runs, n_in, n_out = layer.runs, layer.in_features, layer.out_features
    weight, bias = layer.weight, layer.bias[:, None, :]
    grad_w, grad_b = layer.grads
    x3 = x.reshape(runs, per, n_in)
    x3t = x3.swapaxes(1, 2)
    weight_t = weight.swapaxes(1, 2)
    z = np.empty_like(y) if relu else y
    z3 = z.reshape(runs, per, n_out)
    g3 = gy.reshape(runs, per, n_out)
    gx3 = None if gx is None else gx.reshape(runs, per, n_in)
    mask = np.empty(y.shape, dtype=bool) if relu else None
    tmp_w, tmp_b = np.empty_like(grad_w), np.empty_like(grad_b)

    def forward() -> None:
        np.matmul(x3, weight, out=z3)
        np.add(z3, bias, out=z3)
        if relu:
            np.greater(z, 0.0, out=mask)
            y.fill(0.0)
            np.copyto(y, z, where=mask)

    def backward() -> None:
        if relu:
            np.multiply(gy, mask, out=gy)
        np.matmul(x3t, g3, out=tmp_w)
        np.add(grad_w, tmp_w, out=grad_w)
        np.add.reduce(g3, axis=1, out=tmp_b)
        np.add(grad_b, tmp_b, out=grad_b)
        if gx3 is not None:
            np.matmul(g3, weight_t, out=gx3)

    return forward, backward


def _opaque_step(layer: StackedLayer, x, gx, y, gy):
    """Any other stacked layer: its own ``forward``/``backward``, with
    the results copied into the plan's buffers."""

    def forward() -> None:
        np.copyto(y, layer.forward(x, training=True))

    def backward() -> None:
        grad = layer.backward(gy)
        if gx is not None:
            np.copyto(gx, grad)

    return forward, backward


def _copy_step(x, gx, y, gy):
    """A member without a middle: its row block passes to the tail."""

    def forward() -> None:
        np.copyto(y, x)

    def backward() -> None:
        if gx is not None:
            np.copyto(gx, gy)

    return forward, backward


class StepPlan:
    """One :class:`GroupedStack` training step, compiled for minibatches
    of ``per`` rows per slice.

    The plan owns the fused minibatch buffer (:attr:`inputs`) and every
    activation, gradient and mask buffer of the step, and holds a
    forward and a backward list of steps over fixed views of them
    (``(R, B, ·)`` reshapes, ``swapaxes``, ``bias[:, None, :]``).  A
    :class:`StackedDense` (fused with a ReLU after it) is a dense step
    that writes with ``out=``; any other stacked layer is an opaque step
    that calls its own ``forward``/``backward`` and copies the result.
    Each member's middle writes its last output straight into its row
    block of the tail's input buffer and reads its gradient back from
    there, so nothing is concatenated.  The gradient of the minibatch
    itself is never formed: the first layers skip their input-gradient
    gemm.

    Every product keeps the shape, kernel and accumulation order of the
    layer-by-layer :meth:`GroupedStack.forward`/``backward`` (the
    module docstring lists the in-place rules), so a step through the
    plan is bit for bit the layer-by-layer step.  The parameter and
    gradient views are the arena's at build time, which is why
    :meth:`GroupedStack.compact` drops the plan.
    """

    def __init__(self, stack: GroupedStack, per: int) -> None:
        slices = stack.runs
        widths = [_widths(m.models[0]) for m in stack.members]
        first = widths[0]
        n_head, n_tail = len(stack.head), len(stack.tail)
        self.inputs = np.empty((slices * per, first[0]))
        self._forward: list[Callable[[], None]] = []
        self._backward: list[Callable[[], None]] = []
        x, gx = self._chain(
            stack.head, first[1 : 1 + n_head], per, self.inputs, None
        )
        if stack._segmented:
            joint = np.empty((slices * per, first[-1 - n_tail]))
            grad = np.empty_like(joint)
            start = 0
            for member, member_widths in zip(stack.members, widths):
                block = slice(start, start + member.size * per)
                start = block.stop
                ends = (
                    x[block],
                    None if gx is None else gx[block],
                    joint[block],
                    grad[block],
                )
                if member.middle is None:
                    self._add(_copy_step(*ends))
                    continue
                middle = member.middle.layers
                self._chain(
                    middle,
                    member_widths[1 + n_head : 1 + n_head + len(middle)],
                    per,
                    *ends,
                )
            x, gx = joint, grad
        self.output, self._grad_output = self._chain(
            stack.tail, first[len(first) - n_tail :], per, x, gx
        )
        self._backward.reverse()

    def _add(self, step) -> None:
        forward, backward = step
        self._forward.append(forward)
        self._backward.append(backward)

    def _chain(self, layers, widths, per, x, gx, y=None, gy=None):
        """Append the steps of ``layers`` (output widths ``widths``)
        reading ``x``; the last one writes into ``y``/``gy`` when given.
        Returns the chain's output buffer and its gradient."""
        i = 0
        while i < len(layers):
            layer = layers[i]
            after = layers[i + 1] if i + 1 < len(layers) else None
            fused = (
                isinstance(layer, StackedDense)
                and isinstance(after, _StackedPassthrough)
                and type(after._layer) is ReLU
            )
            i += 2 if fused else 1
            if i == len(layers) and y is not None:
                out, grad = y, gy
            else:
                out = np.empty((x.shape[0], widths[i - 1]))
                grad = np.empty_like(out)
            if isinstance(layer, StackedDense):
                self._add(_dense_step(layer, fused, per, x, gx, out, grad))
            else:
                self._add(_opaque_step(layer, x, gx, out, grad))
            x, gx = out, grad
        return x, gx

    def forward(self) -> np.ndarray:
        """Run the step's forward over :attr:`inputs`; returns the
        output buffer (overwritten by the next step)."""
        for step in self._forward:
            step()
        return self.output

    def backward(self, grad: np.ndarray) -> None:
        """Accumulate every parameter gradient into the arena."""
        np.copyto(self._grad_output, grad)
        for step in self._backward:
            step()


def _widths(model: Sequential) -> list[int] | None:
    """The feature width entering each layer of ``model``, then its
    output width; ``None`` when the first layer declares no
    ``in_features`` or the layers do not chain."""
    width = getattr(model.layers[0], "in_features", None)
    if width is None:
        return None
    widths = [width]
    for layer in model.layers:
        try:
            width = layer.output_dim(width)
        except ShapeError:
            return None
        widths.append(width)
    return widths


def _stack_run(runs: int, rows) -> list[StackedLayer]:
    """Stack aligned layer rows in order up to the first that does not
    stack across all ``runs`` slices."""
    stacked: list[StackedLayer] = []
    for layers in rows:
        entry = _stack_rows(runs, [layers])
        if entry is None:
            break
        stacked.extend(entry)
    return stacked


def stack_candidates(
    model_groups: Sequence[Sequence[Sequential]],
) -> GroupedStack | None:
    """Fold several candidates' run sets into one :class:`GroupedStack`.

    ``model_groups[c]`` holds candidate ``c``'s run models (all
    structurally identical to each other by construction).  The group's
    head is the longest run of leading layer positions that stack
    across every model, its tail the longest run of trailing positions
    that do (never overlapping the head in any model), and each
    candidate's layers in between stack on their own.  Candidates of
    any depth and width therefore group — a candidate whose layers all
    sit in the head and tail has an empty middle.  A single candidate's
    run set is the one-candidate group: every layer sits in the head.

    Returns ``None`` — train each candidate separately, a lone one
    scalar — when there are fewer than two models in all, when the
    models disagree on input width (one fused batch cannot feed them),
    when their middles end at different widths (one fused batch cannot
    enter the tail), when no layer position is shared at either end, or
    when any layer has no stacker (custom types, Dropout,
    parameter-shift quantum layers...).
    """
    groups = [list(g) for g in model_groups]
    if any(not g for g in groups):
        return None
    flat = [m for g in groups for m in g]
    total = len(flat)
    if total < 2:
        return None
    widths = [_widths(m) for m in flat]
    if any(w is None for w in widths) or len({w[0] for w in widths}) != 1:
        return None
    if any(len(m.layers) != len(g[0].layers) for g in groups for m in g):
        return None
    shortest = min(len(m.layers) for m in flat)
    head = _stack_run(
        total, ([m.layers[pos] for m in flat] for pos in range(shortest))
    )
    tail = _stack_run(
        total,
        (
            [m.layers[-1 - pos] for m in flat]
            for pos in range(shortest - len(head))
        ),
    )[::-1]
    if not head and not tail:
        return None
    if len({w[-1 - len(tail)] for w in widths}) != 1:
        return None
    members = []
    for group in groups:
        subs = [
            Sequential(m.layers[len(head) : len(m.layers) - len(tail)])
            for m in group
            if len(m.layers) > len(head) + len(tail)
        ]
        middle = None
        if subs:
            rows = [list(row) for row in zip(*(m.layers for m in subs))]
            layers = _stack_rows(len(subs), rows)
            if layers is None:
                return None
            middle = StackedSequential(len(subs), layers, subs)
        members.append(_GroupMember(group, middle))
    return GroupedStack(members, head, tail)

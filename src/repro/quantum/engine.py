"""Compiled circuit execution engine: compile once, execute many times.

The reference executor (:func:`repro.quantum.circuit.run`) walks a tape of
:class:`~repro.quantum.circuit.Operation` objects, rebuilding each gate's
matrix and paying a ``moveaxis`` round-trip (two full-state copies) per
gate application.  That is the right *reference* semantics but the wrong
cost model for training: the paper's protocol executes the same circuit
structure thousands of times per grid-search cell with only the parameter
values changing.

:class:`CompiledTape` compiles one tape shape, the shape of the paper's
3-5-qubit BEL/SEL circuits, into a dense per-layer program:

* a product encoding: ``RX``/``RY``/``RZ`` gates (one axis) on distinct
  wires, each fed by its own input column;
* then one or more layers, each one weight-only single-qubit gate per
  wire (one differentiable gate type throughout, every angle its own
  weight column), followed by a ring of zero or more CNOT, SWAP and CZ
  gates;
* at most five qubits.

Any other tape (a two-qubit rotation, a constant or shared angle, a
baked-in batched weight default, an input read after a weight, ``n >
5``) raises :class:`~repro.exceptions.ConfigurationError` at
construction.  Such tapes run on the reference executor instead, with
:func:`repro.quantum.adjoint.adjoint_gradients` or
:func:`repro.quantum.parameter_shift.parameter_shift_gradients`;
:class:`repro.hybrid.QuantumLayer` makes that switch by itself.

**Execute.**  ``execute`` binds data features through ``input``
:class:`~repro.quantum.circuit.ParamRef` slots and trainable angles
through ``weight`` slots, then:

* builds the encoding as a kron of per-wire first columns ``R(x)|0>``,
  from one call over all encoded wires per block of rows (the second
  column of an encoding gate is never built);
* builds each layer as one ``(2**n, 2**n)`` unitary per run: one builder
  call over every (run, layer, wire) angle, then the kron product of a
  layer's gates as ``n`` gathers of gate entries, multiplied in wire
  order, whose index also applies the layer's ring.  A ring is a signed
  permutation: CNOT and SWAP permute rows, CZ flips signs, and the rows
  whose sign is ``-1`` are negated after the product (BEL/SEL rings
  have none, so nothing is negated).  A recorded execute gets the
  gates' derivatives from the same builder call and trig pass;
* moves the state through each layer with one run-batched ``matmul`` of
  the ``(U, B, 2**n)`` state view against the swapped ``(U, 2**n,
  2**n)`` unitaries: one gemm of ``B`` rows per run slice.

**Adjoint.**  ``execute(record=True)`` keeps each layer's input state;
``adjoint_gradients`` sweeps the bra back through each layer (the same
per-run gemm against ``conj(K)``) and forms one overlap matrix ``H =
sum_b conj(bra_b)^T ket_b`` per layer and run block.  A gate ``X`` on
wire ``w`` has ``dK = K (X^dagger dX)_w`` for any fixed ring, so its
gradients are ``2 Re sum((X^dagger dX) * Tr_rest H)``: the partial
traces are one gather of ``H``'s entries and a sum over the traced
wires' bits, never a derivative kron, and ``X^dagger dX`` is
elementwise 2x2 arithmetic.  Input gradients contract the first
bra with the encoding generators ``-i/2 P`` applied to the product state
(a gather and a phase per wire).

**BLAS.**  Every product the engine hands to BLAS is a gemm per run
slice: ``matmul`` over a leading run axis issues one call per slice,
with the shape and strides the run's own execute would use, so a run's
bits do not depend on the runs beside it.  ``execute``,
``adjoint_gradients`` and ``expvals`` pin the calling thread's OpenBLAS
to one thread while they run (restoring the caller's count
afterwards): the gemms are small, and waking OpenBLAS's worker threads
for them costs CPU time and, on a pool worker, a core.

**Run-stacked execution (one sweep for R parameter sets).**  The
protocol trains every candidate ``runs`` times with an *identical*
circuit structure, only the seed-derived weights differ, so ``execute``
also accepts a stacked 2-D ``weights`` of shape ``(runs, n_weights)``
together with ``runs=R`` and a fused ``(runs * batch, n_features)``
input whose rows are run-major.  Each run gets its own layer unitaries,
and every contraction works per run block, so each run's arithmetic is
that of its own execution: run-stacked grid searches are
bit-identical to per-run ones.  The engine differentiates by adjoint
only: a parameter-shift :class:`repro.hybrid.QuantumLayer` runs on the
reference executor with
:func:`~repro.quantum.parameter_shift.parameter_shift_gradients`.

Run-stacked executes also take per-run ``depths``: run ``r`` executes
only its first ``depths[r]`` layers, every later layer's unitary being
overwritten with the identity after the row take, and the adjoint
writes exact zeros into those layers' weight gradients.  ``x * 1`` and
``x + 0`` are exact, so each run matches its own truncated tape bit for
bit (:meth:`CompiledTape.is_layer_prefix` says which tapes qualify).
This is how quantum layers of several depths share one engine sweep in
a fused candidate group.

A layer unitary costs ``4**n`` per run to build and ``batch * 4**n`` to
apply, against ``n * 2**n`` per gate on the reference executor.  At 3-5
qubits dispatch, not FLOPs, bounds the step, and one contraction per
layer wins; beyond five qubits the FLOPs take over, so wider registers
stay on the reference executor.  :data:`ARITHMETIC_VERSION` records
ulp-level arithmetic changes for result stores.

For search workloads that rebuild structurally identical circuits over
and over, :func:`compiled_tape` + :func:`enable_compile_cache` share one
engine per circuit structure per process (the parallel runtime enables
this in every worker).

The engine is differentially tested against the reference executor and
:func:`repro.quantum.adjoint.adjoint_gradients` to 1e-12
(``tests/quantum/test_engine.py``); the reference implementations remain
the semantics oracle.

Contract notes:

* Buffers are owned by the engine and reused: the array returned by a
  plain ``execute`` is only valid until the next ``execute`` call.  Copy
  it (or use :meth:`CompiledTape.run`) if you need it to survive.
* ``execute(record=True)`` keeps the layer unitaries and per-layer
  states for a subsequent ``adjoint_gradients`` call; the record owns
  its arrays, so it survives intervening (e.g. evaluation) executes.
  The adjoint call releases the record when done, and the buffer pools
  are bounded to a few batch sizes, so long training runs do not pin the
  largest batch in memory.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from contextlib import contextmanager
from typing import Iterator, Sequence

import numpy as np

from ..exceptions import ConfigurationError, ShapeError
from . import gates
from .circuit import GATE_SET, Operation
from .gates import COMPLEX_DTYPE, REAL_DTYPE

__all__ = [
    "ARITHMETIC_VERSION",
    "CompiledTape",
    "compiled_tape",
    "enable_compile_cache",
    "disable_compile_cache",
    "compile_cache_info",
    "compile_cache_scope",
    "dense_peak_bytes",
]

#: Version of the engine's floating-point arithmetic.  Bumped whenever a
#: kernel change can move results at the ulp level, so result stores
#: (search journals, the protocol result cache) never serve results
#: computed by older kernels.  1: the per-gate program only; 2: the
#: dense per-layer unitary path for small product-encoded tapes; 3: layer
#: applies and the bra sweep as per-run gemms instead of einsums, and
#: ``X^dagger dX`` as elementwise 2x2 arithmetic instead of BLAS.
ARITHMETIC_VERSION = 3

#: Widest register the engine compiles.  One layer unitary is a
#: ``(2**n, 2**n)`` matrix per run, so its build and its contraction
#: grow as ``4**n`` while the reference executor grows as ``n * 2**n``;
#: at the paper's 3-5 qubits dispatch dominates and one dense
#: contraction per layer wins, beyond that the FLOPs take over.
_DENSE_MAX_QUBITS = 5

#: Rows per call of the row-blocked passes: the product-state builder
#: and :meth:`CompiledTape.expvals`' probability block.  Training
#: minibatches take one call; an evaluation batch of every slice's whole
#: training set takes a few, so their per-row temporaries stay bounded
#: by this rather than the batch.
_BLOCK_ROWS = 1024

#: An unencoded wire's factor of the product state.
_KET0 = np.array([1.0, 0.0], dtype=COMPLEX_DTYPE)

#: Generators ``P`` of the encoding rotations ``exp(-i x P / 2)``.
_GENERATORS = {"RX": gates.PAULI_X, "RY": gates.PAULI_Y, "RZ": gates.PAULI_Z}

#: Where NumPy's wheel keeps the OpenBLAS it links (``scipy-openblas``).
_OPENBLAS_GLOB = os.path.join(
    os.path.dirname(np.__file__),
    os.pardir,
    "numpy.libs",
    "libscipy_openblas*.so*",
)


@functools.cache
def _openblas():
    """The OpenBLAS NumPy loaded, opened through ctypes (the loader hands
    back the already-mapped library), or ``None`` when there is none to
    find."""
    for path in sorted(glob.glob(_OPENBLAS_GLOB)):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


@functools.cache
def _thread_pin():
    """OpenBLAS's ``openblas_set_num_threads_local`` (set the calling
    thread's count, return the previous one), or ``None`` when the
    library or the symbol is absent.  Looked up on first use, not at
    import."""
    pin = getattr(_openblas(), "openblas_set_num_threads_local", None)
    if pin is not None:
        pin.argtypes = [ctypes.c_int]
        pin.restype = ctypes.c_int
    return pin


def _one_blas_thread(method):
    """Run ``method`` with the calling thread's OpenBLAS pinned to one
    thread, restoring the caller's count afterwards (also on error).

    The engine's gemms are small (``2**n <= 32`` columns), and
    OpenBLAS wakes its worker threads for some of them: that costs more
    CPU time than it saves wall time, and on a pool worker it takes a
    core from the other worker.  Without the symbol this is a no-op.
    Results do not depend on the pin: OpenBLAS splits a gemm's rows and
    columns across threads, never its inner dimension, so each output
    element is the same reduction at any thread count.
    """

    @functools.wraps(method)
    def pinned(*args, **kwargs):
        pin = _thread_pin()
        if pin is None:
            return method(*args, **kwargs)
        previous = pin(1)
        try:
            return method(*args, **kwargs)
        finally:
            pin(previous)

    return pinned


#: Ping-pong buffer pairs are kept for at most this many distinct batch
#: sizes, and identity fills for at most this many per-run ``depths``;
#: the least recently used entry is evicted beyond that.  Bounds the
#: memory a long-lived engine pins when it alternates minibatch
#: training with full-dataset evaluation batches.
_MAX_POOLS = 4


def _lru(cache: dict, key, make):
    """``cache[key]``, from ``make()`` on a miss, keeping at most
    :data:`_MAX_POOLS` entries.  Dicts preserve insertion order, so
    re-inserting on every use leaves the least recently used key
    first, and that is the one evicted."""
    value = cache.pop(key, None)
    if value is None:
        value = make()
    cache[key] = value
    while len(cache) > _MAX_POOLS:
        del cache[next(iter(cache))]
    return value


def dense_peak_bytes(
    n_qubits: int,
    n_layers: int,
    n_params: int,
    n_enc: int,
    batch: int,
    runs: "int | None",
    mode: str = "adjoint",
) -> int:
    """Predicted peak working-set bytes of one execution (``"forward"``)
    or of a recorded execution and its adjoint (``"adjoint"``) of a
    compiled tape, from its shape alone: ``n_layers`` (``L``) layers of
    an ``n_params``-angle gate per wire after ``n_enc`` encoding gates.
    The admission estimate
    (:func:`repro.runtime.memory.estimate_candidate_bytes`) counts this
    record.

    ``"forward"``: the pooled ping-pong pair, the product state and its
    kron partials (two states), and three ``(runs, L, 2**n, 2**n)``
    unitary stacks (the product, a gathered factor and the ring's sign
    flip temporary).  ``"adjoint"`` adds what a recorded step holds at
    its peak, where the gathered partial-trace entries (at most one
    stack) reuse the forward's room:
    ``L + 1`` recorded states, ``L + 1`` bras, the ``L`` conjugated bras
    of the overlap contraction or the ``n_enc + 1`` gathered generator
    states of the input gradients, whichever is larger, and the
    conjugated unitaries and the overlap stack.  ``L`` is the compiled
    depth, so an execute with per-run ``depths`` (which records every
    run at that depth) is covered too.  Both modes add the per-(run,
    layer, wire) gate, derivative, ``X^dagger dX`` and builder-temporary
    matrices, the encoding's per-sample ones, a fixed allowance for
    array headers and index tables, and what the engine keeps between
    steps: the identity fills of up to ``_MAX_POOLS`` per-run ``depths``
    patterns, each at most one unitary stack.
    """
    item = np.dtype(COMPLEX_DTYPE).itemsize
    dim = 2**n_qubits
    state = batch * dim * item
    stack = (runs or 1) * n_layers * dim * dim * item
    small = 4 * item * (
        16 * (1 + n_params) * (runs or 1) * n_layers * n_qubits
        + 16 * batch * n_qubits
    )
    total = 4 * state + (3 + _MAX_POOLS) * stack + small + 16384
    if mode == "adjoint":
        total += (2 * n_layers + 2) * state + 2 * stack
        total += max(n_layers, n_enc + 1) * state
    return total


class _DensePlan:
    """Compile-time record of a tape.

    The tape is a product encoding (``enc_gate`` on ``enc_wires``, angle
    ``i`` read from input column ``enc_inputs[i]``, default values
    ``enc_defaults[i]``) followed by ``n_layers`` layers, each one
    ``gate`` per wire, whose every angle is a distinct weight
    (``widx[l, w, p]``), then a signed permutation: row ``l*dim + k`` of
    the stacked layer unitaries is row ``rows[l*dim + k]`` of the kron
    products, negated when listed in ``flips``.  ``kron`` gathers each
    wire's factor of every unitary entry, ring included, and
    ``traces`` every overlap entry a partial trace sums.
    ``max_input`` / ``max_weight`` are the highest columns a binding
    must hold.
    """

    __slots__ = (
        "enc_gate",
        "enc_wires",
        "enc_inputs",
        "enc_defaults",
        "default_batch",
        "max_input",
        "max_weight",
        "gate",
        "n_params",
        "n_layers",
        "widx",
        "wflat",
        "wdefault",
        "rows",
        "flips",
        "gen_idx",
        "gen_phase",
        "kron",
        "traces",
    )


class CompiledTape:
    """A circuit compiled from its structure for repeated execution.

    Parameters
    ----------
    ops:
        The tape to compile; it must have the shape the module docstring
        describes, or :class:`~repro.exceptions.ConfigurationError` is
        raised.  Gate names, wires and ``ParamRef``s define the
        *structure*; the operations' parameter values become the
        defaults used when no binding is supplied (so
        ``CompiledTape(ops, n).run()`` reproduces ``circuit.run(ops, n)``
        exactly).
    n_qubits:
        Register width (1 to 5).
    """

    def __init__(self, ops: Sequence[Operation], n_qubits: int) -> None:
        if n_qubits < 1:
            raise ShapeError(f"need at least one qubit, got {n_qubits}")
        self.n_qubits = n_qubits
        self.dim = 2**n_qubits
        ops = list(ops)
        for op in ops:
            for w in op.wires:
                if not 0 <= w < n_qubits:
                    raise ShapeError(
                        f"{op.name} wire {w} out of range for "
                        f"{n_qubits} qubits"
                    )

        # Z-expectation sign table: signs[w, k] = +1 if bit w of basis
        # index k is 0 else -1.  Turns expval/adjoint seeding into one
        # matmul against probabilities/amplitudes.
        ks = np.arange(self.dim)
        bits = (ks[None, :] >> (n_qubits - 1 - np.arange(n_qubits)[:, None])) & 1
        self._z_signs = (1.0 - 2.0 * bits).astype(REAL_DTYPE)

        self._plan = self._compile(ops)
        self._pools: dict[int, list] = {}
        self._paddings: dict[bytes, tuple] = {}
        self._last: dict | None = None

    # -- compilation -------------------------------------------------------

    def _local_index(self, wire_a: int, wire_b: int) -> tuple:
        """Each basis index's local ``|wire_a wire_b>`` index, and the
        two wires' bit shifts."""
        n = self.n_qubits
        sa, sb = n - 1 - wire_a, n - 1 - wire_b
        ks = np.arange(self.dim)
        return (((ks >> sa) & 1) << 1) | ((ks >> sb) & 1), sa, sb

    def _full_perm(self, basis_perm, wire_a: int, wire_b: int) -> np.ndarray:
        """Register-wide permutation: ``new[k] = old[perm[k]]``."""
        j, sa, sb = self._local_index(wire_a, wire_b)
        pj = np.asarray(basis_perm)[j]
        cleared = np.arange(self.dim) & ~((1 << sa) | (1 << sb))
        return cleared | ((pj >> 1) << sa) | ((pj & 1) << sb)

    def _full_diag(self, basis_diag, wire_a: int, wire_b: int) -> np.ndarray:
        """Register-wide ``+-1`` diagonal: ``new[k] = diag[k] * old[k]``."""
        j, _, _ = self._local_index(wire_a, wire_b)
        return np.asarray(basis_diag)[j]

    def _compile(self, ops: list[Operation]) -> _DensePlan:
        """Match the tape against the compiled shape (see the module
        docstring) and build its plan; raise
        :class:`~repro.exceptions.ConfigurationError` naming the first
        operation that does not fit."""
        n, dim = self.n_qubits, self.dim
        if n > _DENSE_MAX_QUBITS:
            raise ConfigurationError(
                f"the compiled engine serves at most {_DENSE_MAX_QUBITS} "
                f"qubits, got {n}"
            )

        def misfit(g: int, why: str) -> ConfigurationError:
            where = (
                f"{ops[g].name} on wires {ops[g].wires} (operation {g})"
                if g < len(ops)
                else "the end of the tape"
            )
            return ConfigurationError(
                f"{where}: {why}; the compiled engine serves product "
                f"encodings followed by layers of one weight gate per "
                f"wire and a CNOT/SWAP/CZ ring"
            )

        g = 0
        enc: list[Operation] = []
        while (
            g < len(ops)
            and ops[g].name in _GENERATORS
            and ops[g].refs[0] is not None
            and ops[g].refs[0].kind == "input"
        ):
            enc.append(ops[g])
            g += 1
        enc_wires = [op.wires[0] for op in enc]
        enc_inputs = [op.refs[0].index for op in enc]
        if (
            len(set(enc_wires)) != len(enc)
            or len(set(enc_inputs)) != len(enc)
            or len({op.name for op in enc}) > 1
        ):
            raise misfit(
                g - 1,
                "encoding gates must share one axis and use distinct "
                "wires and input columns",
            )
        default_batch = 1
        for op in enc:
            default = op.params[0]
            if default.ndim == 1 and default.shape[0] > 1:
                if default_batch not in (1, default.shape[0]):
                    raise ShapeError(
                        f"inconsistent batched default parameters: "
                        f"{default_batch} vs {default.shape[0]}"
                    )
                default_batch = default.shape[0]

        gate = None
        layers: list[tuple[list[Operation], np.ndarray, np.ndarray]] = []
        while g < len(ops):
            block: dict[int, Operation] = {}
            while (
                g < len(ops)
                and len(ops[g].wires) == 1
                and ops[g].wires[0] not in block
            ):
                op = ops[g]
                if op.info.deriv_fn is None or op.name != (gate or op.name):
                    raise misfit(g, "layer gates must be one differentiable rotation")
                if any(r is None or r.kind != "weight" for r in op.refs):
                    raise misfit(g, "every layer angle must be a weight")
                if any(p.ndim for p in op.params):
                    raise misfit(g, "a weight gate has a batched default")
                gate = op.name
                block[op.wires[0]] = op
                g += 1
            if len(block) != n:
                raise misfit(g, "a layer must put one gate on every wire")
            perm = np.arange(dim)
            sign = np.ones(dim, dtype=np.int64)
            while g < len(ops) and (
                ops[g].info.basis_perm is not None
                or ops[g].info.basis_diag is not None
            ):
                info = ops[g].info
                if info.basis_perm is not None:
                    step = self._full_perm(info.basis_perm, *ops[g].wires)
                    perm, sign = perm[step], sign[step]
                else:
                    diag = self._full_diag(info.basis_diag, *ops[g].wires)
                    sign = sign * diag
                g += 1
            layers.append(([block[w] for w in range(n)], perm, sign))
        if not layers:
            raise misfit(g, "the tape has no weight layer")

        plan = _DensePlan()
        plan.enc_gate = enc[0].name if enc else None
        plan.enc_wires = np.asarray(enc_wires, dtype=np.intp)
        plan.enc_inputs = np.asarray(enc_inputs, dtype=np.intp)
        plan.enc_defaults = [op.params[0] for op in enc]
        plan.default_batch = default_batch
        plan.gate = gate
        plan.n_params = GATE_SET[gate].n_params
        plan.n_layers = len(layers)
        plan.widx = np.array(
            [
                [[r.index for r in op.refs] for op in block]
                for block, _, _ in layers
            ],
            dtype=np.intp,
        )
        plan.wflat = plan.widx.reshape(-1)
        plan.max_input = max(enc_inputs, default=-1)
        plan.max_weight = int(plan.wflat.max())
        if len(set(plan.wflat.tolist())) != plan.wflat.size:
            raise ConfigurationError(
                "every layer angle must read its own weight column"
            )
        plan.wdefault = np.array(
            [
                [[float(p) for p in op.params] for op in block]
                for block, _, _ in layers
            ],
            dtype=REAL_DTYPE,
        )
        # Row l*dim + k of the stacked kron products is row k of layer
        # l's; taking rows l*dim + perm_l applies that layer's ring, and
        # negating the rows whose ring sign is -1 its CZs.
        plan.rows = np.concatenate(
            [l * dim + perm for l, (_, perm, _) in enumerate(layers)]
        )
        plan.flips = np.flatnonzero(
            np.concatenate([sign for _, _, sign in layers]) < 0
        )
        # The register-wide generator -i/2 P of encoded wire w maps
        # basis state k to one basis state, so ``G_w psi`` is a gather
        # plus a phase: (G_w psi)[k] = phase[k] * psi[src[k]].
        ks = np.arange(dim)
        idx, phase = [], []
        for op, w in zip(enc, enc_wires):
            pauli = _GENERATORS[op.name]
            shift = n - 1 - w
            bit = (ks >> shift) & 1
            src_bit = np.argmax(np.abs(pauli), axis=1)[bit]
            idx.append((ks & ~(1 << shift)) | (src_bit << shift))
            phase.append(-0.5j * pauli[bit, src_bit])
        plan.gen_idx = np.concatenate(idx) if idx else np.zeros(0, np.intp)
        plan.gen_phase = (
            np.concatenate(phase).astype(COMPLEX_DTYPE)
            if phase
            else np.zeros(0, COMPLEX_DTYPE)
        )
        # Entry (k, j) of layer l's unitary is the product over wires w
        # of w's gate entry (bit w of the row, bit w of j), with row k
        # taken through the ring: kron[w] holds, per (l, k, j), that
        # entry's index in one run's flat (L, n, 2, 2) gate block.
        def bit(k, w):
            return (k >> (n - 1 - w)) & 1

        source = plan.rows.reshape(plan.n_layers, dim, 1) % dim
        layer = np.arange(plan.n_layers)[:, None, None]
        col = np.arange(dim)
        plan.kron = np.stack(
            [
                (layer * n + w) * 4 + 2 * bit(source, w) + bit(col, w)
                for w in range(n)
            ]
        ).reshape(n, -1)
        # Partial trace of a (dim, dim) overlap over every wire but w:
        # traces[k, w, a, c] is the flat index of the entry whose row
        # has bit a and column bit c on wire w, and whose row and
        # column both carry k's bits on the other wires.
        rest = np.arange(2 ** (n - 1))[:, None, None, None]
        ws = np.arange(n)[None, :, None, None]
        shift = n - 1 - ws
        low = rest & ((1 << shift) - 1)
        high = (rest >> shift) << (shift + 1)
        ab = np.arange(2)
        row = high | (ab[:, None] << shift) | low
        col = high | (ab[None, :] << shift) | low
        plan.traces = row * dim + col
        return plan

    def clone(self) -> "CompiledTape":
        """A new engine sharing this one's (immutable) compiled plan.

        The compiled artefacts (the plan's index and sign tables) are
        shared by reference; execution state
        (buffer pools, the recorded forward) starts fresh.  This is how
        the compile cache hands the same compilation to many live layers
        without any state hazard: compiling is the expensive part, the
        clone is a dict copy.
        """
        twin = object.__new__(CompiledTape)
        twin.__dict__.update(self.__dict__)
        twin._pools = {}
        twin._paddings = {}
        twin._last = None
        return twin

    # -- introspection -----------------------------------------------------

    @property
    def has_record(self) -> bool:
        """Whether a recorded forward execution is pending a backward."""
        return self._last is not None

    @property
    def weight_columns(self) -> np.ndarray:
        """The weight column each layer angle reads, in tape order.  No
        column feeds two angles."""
        return self._plan.wflat

    # -- buffers -----------------------------------------------------------

    def _resolve_batch(self, inputs, batch) -> int:
        if inputs is not None:
            if batch is not None and batch != inputs.shape[0]:
                raise ShapeError(
                    f"batch {batch} != inputs batch {inputs.shape[0]}"
                )
            return inputs.shape[0]
        if batch is not None:
            return batch
        return self._plan.default_batch

    def _pair(self, batch: int) -> list:
        """The pooled ping-pong pair of flat ``(batch, 2**n)`` states
        plain executes sweep through."""
        return _lru(
            self._pools,
            batch,
            lambda: [
                np.empty((batch, self.dim), dtype=COMPLEX_DTYPE)
                for _ in range(2)
            ],
        )

    # -- execution ---------------------------------------------------------

    @_one_blas_thread
    def execute(
        self,
        inputs: np.ndarray | None = None,
        weights: np.ndarray | None = None,
        batch: int | None = None,
        record: bool = False,
        runs: int | None = None,
        depths: np.ndarray | None = None,
    ) -> np.ndarray:
        """Run the compiled tape; return the final flat ``(B, 2**n)`` state.

        ``inputs`` rebinds every ``input``-ref parameter from column
        ``ref.index`` of a ``(B, n_features)`` array; ``weights`` rebinds
        every ``weight``-ref parameter from a flat vector.  Parameters
        without a binding keep the values baked in at compile time.  The
        returned array is an engine-owned buffer, valid only until the
        next ``execute``.

        ``runs=R`` enables run-stacked execution: ``weights`` may then be
        a 2-D ``(R, n_weights)`` stack, one parameter set per run, and
        the batch must be ``R * B`` with run-major rows (run ``r`` owns
        rows ``r*B .. (r+1)*B``).  One sweep executes all ``R`` runs;
        see the module docstring.

        ``depths`` (run-stacked 2-D ``weights`` only) gives each run its
        own ansatz depth: run ``r`` executes the first ``depths[r]``
        layers and every later layer's unitary is the identity, so the
        run computes exactly what a tape truncated to that depth would.
        Its weights past its own layers are ignored and their gradients
        come back as exact zeros.
        """
        plan = self._plan
        n, dim, n_layers = self.n_qubits, self.dim, plan.n_layers
        if inputs is not None:
            inputs = np.asarray(inputs, dtype=np.float64)
            if inputs.ndim != 2:
                raise ShapeError(
                    f"inputs must be (batch, n_features), got {inputs.shape}"
                )
            if inputs.shape[1] <= plan.max_input:
                raise ShapeError(
                    f"tape references input {plan.max_input}, inputs only "
                    f"have {inputs.shape[1]} features"
                )
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            needed = plan.max_weight
            if weights.ndim == 2 and runs is not None:
                if weights.shape[0] != runs:
                    raise ShapeError(
                        f"stacked weights have {weights.shape[0]} rows, "
                        f"expected runs={runs}"
                    )
                if weights.shape[1] <= needed:
                    raise ShapeError(
                        f"tape references weight {needed}, got "
                        f"{weights.shape[1]} weights per run"
                    )
            else:
                weights = np.ravel(weights)
                if weights.size <= needed:
                    raise ShapeError(
                        f"tape references weight {needed}, got "
                        f"{weights.size} weights"
                    )
        batch = self._resolve_batch(inputs, batch)
        if batch < 1:
            raise ShapeError(f"batch size must be positive, got {batch}")
        if runs is not None:
            if runs < 1:
                raise ShapeError(f"runs must be >= 1, got {runs}")
            if batch % runs != 0:
                raise ShapeError(
                    f"batch {batch} is not a multiple of runs {runs}"
                )
        if depths is not None:
            depths = self._check_depths(depths, weights, runs)

        encoding = None
        if plan.enc_wires.size:
            if inputs is not None:
                encoding = inputs[:, plan.enc_inputs]
            else:
                encoding = np.empty((batch, plan.enc_wires.size))
                for i, default in enumerate(plan.enc_defaults):
                    if default.ndim == 1 and default.shape[0] != batch:
                        raise ShapeError(
                            f"{plan.enc_gate} parameter batch "
                            f"{default.shape[0]} != execution batch {batch}"
                        )
                    encoding[:, i] = default

        # Layer unitaries: one builder call over every (run, layer,
        # wire), then n gathers of gate entries (the rings folded into
        # the index) multiplied in wire order.  A recorded step gets the
        # derivatives from the same trig pass.
        if weights is None:
            angles = plan.wdefault[None]
        elif weights.ndim == 2:
            angles = weights[:, plan.widx]
        else:
            angles = weights[plan.widx][None]
        n_u = angles.shape[0]
        args = [angles[..., p].reshape(-1) for p in range(plan.n_params)]
        build = GATE_SET[plan.gate].matrix_fn
        if record:
            gate, derivs = build(*args, deriv=True)
        else:
            gate = build(*args)
        flat = gate.reshape(n_u, -1)
        unitary = np.take(flat, plan.kron[0], axis=1)
        for w in range(1, n):
            unitary *= np.take(flat, plan.kron[w], axis=1)
        unitary = unitary.reshape(n_u, n_layers * dim, dim)
        if plan.flips.size:
            unitary[:, plan.flips] = -unitary[:, plan.flips]
        unitary = unitary.reshape(n_u, n_layers, dim, dim)
        padded = None
        if depths is not None:
            # Layers past a run's depth pass its state through: x * 1
            # and x + 0 are exact, so the run sees its own depth's
            # circuit bit for bit.
            padded, identity = self._padding(depths)
            unitary[padded] = identity

        if record:
            states = np.empty((n_layers + 1, batch, dim), dtype=COMPLEX_DTYPE)
            state = states[0]
            bufs = [states[l] for l in range(1, n_layers + 1)]
        else:
            pair = self._pair(batch)
            state = pair[1]
            bufs = [pair[l % 2] for l in range(n_layers)]
        # The product state goes straight into the buffer layer 0
        # reads, built in row blocks so the builder's temporaries stay
        # small on evaluation-sized batches.
        for lo in range(0, batch, _BLOCK_ROWS):
            rows = slice(lo, lo + _BLOCK_ROWS)
            block = None if encoding is None else encoding[rows]
            self._product_state(block, out=state[rows])
        # psi K^T as one matmul over the run axis: one gemm of a run's
        # rows per run slice (with shared 1-D weights, one gemm of
        # every row), under the one-thread pin.
        applied = np.swapaxes(unitary, -1, -2)
        for l, out in enumerate(bufs):
            np.matmul(
                state.reshape(n_u, -1, dim),
                applied[:, l],
                out=out.reshape(n_u, -1, dim),
            )
            state = out
        if record:
            self._last = {
                "batch": batch,
                "runs": runs,
                "final": state,
                "states": states,
                "unitary": unitary,
                "gate": gate,
                "derivs": derivs,
                "padded": padded,
            }
        return state

    def _padding(self, depths: np.ndarray) -> tuple:
        """The ``(run, layer)`` index of every layer past its run's depth
        and the identity stack that fills them, cached per ``depths``
        (a training loop repeats the same depths every step)."""

        def build() -> tuple:
            layers = np.arange(self._plan.n_layers)
            padded = np.nonzero(layers >= depths[:, None])
            identity = np.broadcast_to(
                np.eye(self.dim, dtype=COMPLEX_DTYPE),
                (padded[0].size, self.dim, self.dim),
            ).copy()
            return padded, identity

        return _lru(self._paddings, depths.tobytes(), build)

    def _check_depths(self, depths, weights, runs) -> np.ndarray:
        """Validate ``execute``'s per-run ``depths``; return them as an
        integer array."""
        if weights is None or weights.ndim != 2:
            raise ShapeError("depths need run-stacked 2-D weights")
        depths = np.asarray(depths)
        if depths.shape != (runs,):
            raise ShapeError(
                f"depths must have shape ({runs},), got {depths.shape}"
            )
        n_layers = self._plan.n_layers
        if depths.min() < 1 or depths.max() > n_layers:
            raise ShapeError(
                f"depths must lie in 1..{n_layers}, got {depths.tolist()}"
            )
        return depths.astype(np.intp)

    def _product_state(self, angles, out: np.ndarray) -> None:
        """Write the encoded product state of a block of ``(rows,
        n_encoded)`` angles into ``out`` (``(rows, 2**n)``), or
        ``|0...0>`` into every row for a tape without encoding
        (``angles`` is ``None``).

        One builder call over every encoded wire gives each gate's first
        column, its wire's factor of the state; an unencoded wire's
        factor is ``|0>``.
        """
        plan = self._plan
        factors = [_KET0] * self.n_qubits
        if angles is not None:
            cols = gates.first_column(plan.enc_gate, angles.reshape(-1))
            cols = cols.reshape(angles.shape[0], -1, 2)
            for i, w in enumerate(plan.enc_wires):
                factors[w] = cols[:, i]
        psi = factors[0]
        for w in range(1, self.n_qubits):
            left, right = psi[..., :, None], factors[w][..., None, :]
            if w == self.n_qubits - 1:
                np.multiply(left, right, out=out.reshape(out.shape[0], -1, 2))
                return
            psi = left * right
            psi = psi.reshape(psi.shape[:-2] + (-1,))
        out[...] = psi

    def is_layer_prefix(self, other: "CompiledTape") -> bool:
        """Whether this tape is ``other``'s truncated to its own depth:
        the same encoding and gate, and each of its layers reads the
        same weights and applies the same ring as ``other``'s layer at
        that position.  ``other.execute(..., depths=...)`` then runs
        this tape's circuit at this tape's depth."""
        mine, theirs = self._plan, other._plan
        n_layers = mine.n_layers
        size = n_layers * self.dim
        return (
            n_layers <= theirs.n_layers
            and mine.enc_gate == theirs.enc_gate
            and np.array_equal(mine.enc_wires, theirs.enc_wires)
            and np.array_equal(mine.enc_inputs, theirs.enc_inputs)
            and mine.gate == theirs.gate
            and np.array_equal(mine.widx, theirs.widx[:n_layers])
            and np.array_equal(mine.rows, theirs.rows[:size])
            and np.array_equal(mine.flips, theirs.flips[theirs.flips < size])
        )

    def run(
        self,
        inputs: np.ndarray | None = None,
        weights: np.ndarray | None = None,
        batch: int | None = None,
    ) -> np.ndarray:
        """Like :meth:`execute` but returns an owned ``(B, 2, ..., 2)`` copy

        (the same layout as :func:`repro.quantum.circuit.run`).
        """
        state = self.execute(inputs=inputs, weights=weights, batch=batch)
        b = state.shape[0]
        return state.reshape((b,) + (2,) * self.n_qubits).copy()

    @_one_blas_thread
    def expvals(
        self,
        state: np.ndarray | None = None,
        wires: Sequence[int] | None = None,
        runs: int | None = None,
    ) -> np.ndarray:
        """Per-wire Z expectations of a flat state (default: last final).

        With ``runs=R`` the sign-table contraction is one batched
        ``matmul`` over ``(R, B, dim)`` views, i.e. one gemm per run's
        row block: BLAS chooses its blocking by row count, so a single
        ``(R*B, dim)`` gemm is *not* bitwise identical to the per-run
        ``(B, dim)`` gemms — and run-stacked training must reproduce the
        per-run results exactly.
        """
        if state is None:
            if self._last is None:
                raise ShapeError("no state given and no recorded execution")
            state = self._last["final"]
        signs = self._z_signs
        n_signs = signs.shape[0]
        if wires is not None:
            wires = list(wires)
            for w in wires:
                if not 0 <= w < self.n_qubits:
                    raise ShapeError(
                        f"wire {w} out of range for {self.n_qubits} qubits"
                    )
            signs = signs[wires]
            n_signs = len(wires)
        blocks = runs or 1
        rows = state.shape[0]
        if rows % blocks != 0:
            raise ShapeError(
                f"batch {rows} is not a multiple of runs {runs}"
            )
        per = rows // blocks
        # Probabilities are formed a few runs' rows at a time, so their
        # temporaries stay near _BLOCK_ROWS rows; each run's gemm is the
        # same call whatever runs share its block.
        step = max(1, _BLOCK_ROWS // max(1, per))
        out = np.empty((blocks, per, n_signs), dtype=REAL_DTYPE)
        for lo in range(0, blocks, step):
            hi = min(lo + step, blocks)
            z = state[lo * per : hi * per]
            probs = z.real**2 + z.imag**2
            np.matmul(
                probs.reshape(hi - lo, per, -1), signs.T, out=out[lo:hi]
            )
        return out.reshape(rows, n_signs)

    # -- adjoint -----------------------------------------------------------

    @_one_blas_thread
    def adjoint_gradients(
        self,
        grad_out: np.ndarray,
        n_inputs: int,
        n_weights: int,
        measure_wires: Sequence[int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Compiled version of :func:`repro.quantum.adjoint.adjoint_gradients`.

        Consumes the execution recorded by ``execute(record=True)`` and
        releases it afterwards.  Returns per-sample ``input`` gradients
        ``(B, n_inputs)`` and batch-summed ``weight`` gradients
        ``(n_weights,)``.  For a run-stacked record (``execute(...,
        runs=R)`` with 2-D weights) the weight gradients come back **per
        run**, shape ``(R, n_weights)``, each row summed over that run's
        samples only.

        With ``mu`` the bra before layer ``l`` and ``psi`` the ket before
        it, ``H = sum_b conj(mu_b)^T psi_b`` carries every overlap of the
        layer: for gate ``X`` on wire ``w``, ``dK = K (X^dagger dX)_w``,
        so the gradient is ``2 Re sum(A * Tr_rest H)`` with ``A =
        X^dagger dX``; no derivative kron is ever built.
        """
        if self._last is None:
            raise ShapeError(
                "adjoint_gradients needs a recorded forward; call "
                "execute(record=True) first"
            )
        plan, last = self._plan, self._last
        batch, runs = last["batch"], last["runs"]
        states, unitary = last["states"], last["unitary"]
        n, dim, n_layers = self.n_qubits, self.dim, plan.n_layers
        n_u = unitary.shape[0]
        blocks = runs or 1

        grad_out = np.asarray(grad_out, dtype=REAL_DTYPE)
        signs = self._z_signs
        if measure_wires is not None:
            signs = signs[list(measure_wires)]
        if tuple(grad_out.shape) != (batch, signs.shape[0]):
            raise ShapeError(
                f"grad_out must be ({batch}, {signs.shape[0]}), "
                f"got {tuple(grad_out.shape)}"
            )
        # Seed |bra_b> = (sum_k g_bk Z_k)|psi_b>: the Z combination is a
        # diagonal, so it is one matmul against the sign table followed by
        # an elementwise product with the final state.  The matmul is
        # batched over run blocks, one gemm per block, so the gemm's row
        # count — and with it BLAS's rounding — matches a per-run
        # execution exactly.
        seed = np.matmul(
            grad_out.reshape(blocks, batch // blocks, -1), signs
        ).reshape(batch, dim)

        # bras[l] is the bra before layer l (bras[L]: the seeded bra):
        # bra K^* per run slice, the forward's gemm against conj(K).
        bras = np.empty((n_layers + 1, batch, dim), dtype=COMPLEX_DTYPE)
        np.multiply(seed, states[n_layers], out=bras[n_layers])
        inverse = np.conj(unitary)
        for l in range(n_layers - 1, -1, -1):
            np.matmul(
                bras[l + 1].reshape(n_u, -1, dim),
                inverse[:, l],
                out=bras[l].reshape(n_u, -1, dim),
            )

        # Weight gradients, summed per run block: one (2**n, rows) x
        # (rows, 2**n) gemm per (layer, block), so a block's arithmetic
        # does not depend on how many blocks run beside it.
        slices = (n_layers * blocks, -1, dim)
        overlap = np.matmul(
            np.conj(np.swapaxes(bras[:n_layers].reshape(slices), -1, -2)),
            states[:n_layers].reshape(slices),
        )
        # Partial traces, summed over the traced wires' bits in order.
        pairs = np.take(
            overlap.reshape(n_layers, blocks, dim * dim).transpose(1, 0, 2),
            plan.traces,
            axis=2,
        )
        reduced = pairs[:, :, 0].copy()
        for k in range(1, pairs.shape[2]):
            reduced += pairs[:, :, k]
        # local = X^dagger dX, elementwise over the 2x2 entries:
        # local[a, c] = conj(X[0, a]) dX[0, c] + conj(X[1, a]) dX[1, c].
        dagger = np.conj(last["gate"])
        derivs = last["derivs"]
        local = dagger[:, 0, :, None] * derivs[..., 0, None, :]
        local += dagger[:, 1, :, None] * derivs[..., 1, None, :]
        local = local.reshape(plan.n_params, n_u, n_layers, n, 2, 2)
        # With weights shared by every run (n_u == 1 < blocks) the run
        # axis of ``local`` broadcasts: each block still sums only its
        # own samples.
        grads = 2.0 * np.einsum("prlwac,rlwac->rlwp", local, reduced).real
        if last["padded"] is not None:
            # A run's layers past its depth hold no weights of its own.
            grads[last["padded"]] = 0.0
        if runs is not None:
            weight_grads = np.zeros((runs, n_weights), dtype=REAL_DTYPE)
            weight_grads[:, plan.wflat] = grads.reshape(blocks, -1)
        else:
            weight_grads = np.zeros(n_weights, dtype=REAL_DTYPE)
            weight_grads[plan.wflat] = grads.reshape(-1)

        # Input gradients: 2 Re <bra_0| G_w |psi_0> for every encoded
        # wire, with G_w psi_0 one gather and one phase multiply.
        input_grads = np.zeros((batch, n_inputs), dtype=REAL_DTYPE)
        n_enc = plan.enc_wires.size
        if n_enc:
            moved = np.empty((batch, plan.gen_idx.size), dtype=COMPLEX_DTYPE)
            np.take(states[0], plan.gen_idx, axis=1, out=moved)
            np.multiply(moved, plan.gen_phase, out=moved)
            overlaps = np.einsum(
                "bk,bwk->bw",
                bras[0].conj(),
                moved.reshape(batch, n_enc, dim),
            )
            input_grads[:, plan.enc_inputs] = 2.0 * overlaps.real
        self._last = None
        return input_grads, weight_grads


# -- process-wide compile cache -------------------------------------------
#
# The grid search trains the same handful of circuit *structures* hundreds
# of times (every run of every candidate rebuilds its model from scratch).
# Compilation is cheap but not free, and in the parallel runtime each
# worker process would otherwise recompile identical tapes for every job
# it executes.  The cache below is keyed purely by structure: gate names,
# wires and parameter provenance (``ParamRef``).  Every angle of a
# compiled tape is referenced, so parameter values never enter the key:
# a cached compilation may carry a previous tape's default values, and
# cache users must rebind every referenced parameter on each ``execute``
# (exactly what :class:`repro.hybrid.QuantumLayer` does).  Every hit
# returns a :meth:`CompiledTape.clone`: the compiled plan is shared,
# execution state (buffer pools, recorded forwards) is per-instance, so
# two live layers with identical structure can never clobber each other.
# A tape outside the compiled shape raises on every call and is never
# cached.  The cache is opt-in: sequential library use keeps the
# engine-per-layer behaviour unless :func:`enable_compile_cache` is
# called (the parallel runtime enables it in each worker's initializer).

_COMPILE_CACHE: dict[tuple, CompiledTape] | None = None
_COMPILE_CACHE_MAX = 32
_CACHE_HITS = 0
_CACHE_MISSES = 0
_CACHE_EVICTIONS = 0


def _structure_key(ops: Sequence[Operation], n_qubits: int) -> tuple:
    """Hashable structural signature of a tape (see cache contract above)."""
    return (n_qubits,) + tuple(
        (op.name, tuple(op.wires), tuple(op.refs)) for op in ops
    )


def enable_compile_cache(maxsize: int = 32) -> None:
    """Turn on the process-wide compiled-tape cache (idempotent).

    Cache hits share the compiled *program* only (see
    :meth:`CompiledTape.clone`); each caller gets independent execution
    state, so structurally identical live layers cannot interfere.

    ``maxsize`` is a hard LRU cap.  Persistent pool workers live for a
    whole protocol run (many search spaces, many circuit structures), so
    an unbounded cache would grow without limit; the least recently used
    compilation is evicted instead, and :func:`compile_cache_info`
    reports the cap and an eviction counter for observability.
    """
    global _COMPILE_CACHE, _COMPILE_CACHE_MAX
    global _CACHE_HITS, _CACHE_MISSES, _CACHE_EVICTIONS
    if maxsize < 1:
        raise ConfigurationError(f"cache size must be >= 1, got {maxsize}")
    if _COMPILE_CACHE is None:
        _COMPILE_CACHE = {}
        _CACHE_HITS = _CACHE_MISSES = _CACHE_EVICTIONS = 0
    _COMPILE_CACHE_MAX = maxsize
    while len(_COMPILE_CACHE) > _COMPILE_CACHE_MAX:
        del _COMPILE_CACHE[next(iter(_COMPILE_CACHE))]
        _CACHE_EVICTIONS += 1


def disable_compile_cache() -> None:
    """Drop the cache and return to compile-per-call behaviour."""
    global _COMPILE_CACHE
    _COMPILE_CACHE = None


def compile_cache_info() -> dict[str, int | bool]:
    """Cache observability: enabled flag, size, LRU cap, counters.

    ``evictions`` counts entries dropped by the LRU cap — a persistent
    worker whose evictions keep climbing is churning through more
    circuit structures than the cap holds (raise ``maxsize`` via
    :func:`enable_compile_cache`)."""
    return {
        "enabled": _COMPILE_CACHE is not None,
        "size": len(_COMPILE_CACHE) if _COMPILE_CACHE is not None else 0,
        "maxsize": _COMPILE_CACHE_MAX,
        "hits": _CACHE_HITS,
        "misses": _CACHE_MISSES,
        "evictions": _CACHE_EVICTIONS,
    }


@contextmanager
def compile_cache_scope() -> Iterator[None]:
    """Enable the compiled-tape cache for the duration of a block.

    Every (candidate, run) of a search rebuilds a structurally identical
    circuit, so searches and cluster agents cache compilations while
    they run.  The cache is enabled only if it is off — an
    already-configured cache (custom ``maxsize``, a pool worker's) is
    left untouched — and dropped on exit only if this scope enabled it.
    The hit/miss counters stay readable after exit.  Cache hits return
    clones sharing only the immutable program, so results are unchanged.
    """
    owned = not compile_cache_info()["enabled"]
    if owned:
        enable_compile_cache()
    try:
        yield
    finally:
        if owned:
            disable_compile_cache()


def compiled_tape(ops: Sequence[Operation], n_qubits: int) -> CompiledTape:
    """Compile a tape, consulting the process-wide cache when enabled.

    With the cache disabled this is exactly ``CompiledTape(ops,
    n_qubits)``.  With it enabled, structurally identical tapes share
    one compilation and each call receives its own
    :meth:`~CompiledTape.clone`; see the cache contract above for what
    callers must rebind.
    """
    global _CACHE_HITS, _CACHE_MISSES, _CACHE_EVICTIONS
    if _COMPILE_CACHE is None:
        return CompiledTape(ops, n_qubits)
    key = _structure_key(ops, n_qubits)
    engine = _COMPILE_CACHE.get(key)
    if engine is not None:
        _CACHE_HITS += 1
        # Move to the end: first key is the least recently used entry.
        _COMPILE_CACHE[key] = _COMPILE_CACHE.pop(key)
        return engine.clone()
    _CACHE_MISSES += 1
    engine = CompiledTape(ops, n_qubits)
    _COMPILE_CACHE[key] = engine
    while len(_COMPILE_CACHE) > _COMPILE_CACHE_MAX:
        del _COMPILE_CACHE[next(iter(_COMPILE_CACHE))]
        _CACHE_EVICTIONS += 1
    return engine.clone()

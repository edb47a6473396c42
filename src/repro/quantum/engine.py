"""Compiled circuit execution engine: compile once, execute many times.

The reference executor (:func:`repro.quantum.circuit.run`) walks a tape of
:class:`~repro.quantum.circuit.Operation` objects, rebuilding each gate's
matrix and paying a ``moveaxis`` round-trip (two full-state copies) per
gate application.  That is the right *reference* semantics but the wrong
cost model for training: the paper's protocol executes the same circuit
structure thousands of times per grid-search cell with only the parameter
values changing.

:class:`CompiledTape` separates the two phases:

**Compile (once per circuit structure).**  The tape is analysed into a
flat instruction program:

* fixed-gate matrices are built once and cached;
* runs of single-qubit gates acting on the same wire (with no intervening
  multi-qubit gate touching that wire) are fused into one 2x2 — or
  batched ``(B, 2, 2)`` — matrix, so e.g. an encoding rotation and the
  first ansatz rotation on each wire cost a single kernel application;
* CNOT / SWAP become precomputed full-register index permutations and CZ
  becomes an in-place sign flip of a precomputed index set — no
  floating-point matrix arithmetic and no ``state.copy()``;
* *runs* of consecutive permutation gates — an ansatz layer's whole CNOT
  ring — are composed into a **single** fused permutation (pending
  single-qubit fusions are hoisted across the ring, which is sound
  because they commute with every ring gate before their wire's first
  use), so a ring costs one ``np.take`` in the forward *and* in the
  adjoint sweep;
* per-wire reshape factors are precomputed so single-qubit kernels act on
  a flat ``(B, 2**n)`` buffer through free ``(B, left, 2, right)``
  reshape views instead of ``moveaxis`` copies; batched matrices on the
  last wire take a ~2x faster broadcast-``matmul`` path (see the kernel
  note below).

**Execute (per batch / parameter binding).**  ``execute`` binds parameter
values into the compiled slots — data features through ``input``
:class:`~repro.quantum.circuit.ParamRef` slots, trainable angles through
``weight`` slots — computes all dynamic gate matrices in one vectorised
call per gate type, and then streams the instruction program over a pair
of preallocated ping-pong buffers.  No per-gate allocation happens on the
hot path.  The compiled adjoint sweep (``adjoint_gradients``) reuses the
recorded forward matrices and moves ket and bra *together*: a recorded
forward runs in the first halves of two pooled ``(2, B, 2**n)`` buffers,
the bra is seeded into the second half, and every inverse gate of the
reversed tape is one kernel call over both halves.  Each gate's gradient
contraction runs over all of its parameters in one vectorised einsum
(the ``Rot`` gate's three angles cost one contraction, not three), and
its scatter into the input/weight gradients is compiled once per tape.

**Run-stacked execution (one sweep for R parameter sets).**  The paper's
protocol trains every candidate ``runs`` times with an *identical*
circuit structure — only the seed-derived weights differ — so
``execute`` also accepts a stacked 2-D ``weights`` of shape
``(runs, n_weights)`` together with ``runs=R`` and a fused
``(runs * batch, n_features)`` input whose rows are run-major.  Weight
slots then bind one value *per run*: their gate matrices are built as a
``(R, k, k)`` stack (R matrices instead of R*B) and applied through
per-run kernels that view the flat ``(R*B, 2**n)`` buffer as
``(R, B*left, 2, right)`` — a 3-operand einsum, or a broadcast
``matmul`` on the last wire.  The adjoint sweep mirrors this: derivative
stacks for per-run weights are ``(P, R, k, k)`` and weight gradients
come back per run, shape ``(R, n_weights)``.  Per-sample arithmetic is
identical to ``R`` independent executions (the kernels contract the same
two-element axes in the same order), which is what makes
``vectorized_runs`` grid searches bit-identical to per-run ones.

**Dense per-layer path (the paper's BEL/SEL tapes).**  At 3-5 qubits
the per-gate program is bound by dispatch, not FLOPs: one kernel per
fused gate, ring and derivative overlap on ``(B, 2**n)`` buffers of a
few hundred amplitudes.  So compilation also matches the tape against
one shape — RX/RY/RZ encoding gates on distinct wires, each fed by its
own input column (a product state), then layers of one weight-only
single-qubit gate per wire, every angle its own weight, each layer
followed by zero or more permutation gates — and, when it matches at
``n_qubits <= 5``, every execute without ``shifts`` takes the dense
path instead:

* the encoding is a kron of per-wire first columns, built from one
  builder call over all encoded wires per block of rows;
* each layer is one ``(2**n, 2**n)`` unitary per run: one builder call
  over every (run, layer, wire) angle, ``n - 1`` broadcast krons and
  one row take that applies every layer's fused ring; the state moves
  through a layer with one einsum;
* the adjoint keeps each layer's input state, sweeps the bra back
  through each layer's ``K^dagger``, and forms one overlap matrix ``H =
  sum_b conj(bra_b)^T ket_b`` per layer and run block.  A gate ``X`` on
  wire ``w`` has ``dK = K (X^dagger dX)_w``, so its gradients are
  ``2 Re sum((X^dagger dX) * Tr_rest H)`` — partial traces through
  ``(2,)*n`` reshapes, never a derivative kron.  Input gradients
  contract the first bra with the encoding generators ``-i/2 P``
  applied to the product state (a gather and a phase per wire).

Run-stacked dense executes also take per-run ``depths``: run ``r``
executes only its first ``depths[r]`` layers, every later layer's
unitary being overwritten with the identity after the row take, and
the adjoint writes exact zeros into those layers' weight gradients.
``x * 1`` and ``x + 0`` are exact, so each run matches its own
truncated tape bit for bit (:meth:`CompiledTape.is_layer_prefix` says
which tapes qualify).  This is how quantum layers of several depths
share one engine sweep in a fused candidate group.

A layer unitary costs ``4**n`` per run to build and ``batch * 4**n`` to
apply, against ``n * 2**n`` per gate, so beyond five qubits the FLOPs
outgrow the dispatch saved and the per-gate program stays.  Every
other tape — CZ, two-qubit matrices, constant or shared angles, an
input ref after a weight op, ``n > 5`` — and every parameter-shift
execute (``shifts``) runs the per-gate program, which also remains the
reference the dense path is tested against.  The dense arithmetic
differs from the per-gate program's at the ulp level;
:data:`ARITHMETIC_VERSION` records such changes for result stores.

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
* ``execute(record=True)`` keeps the bound matrices and final state for
  a subsequent ``adjoint_gradients`` call; the recorded state owns its
  buffers (a ket/bra pair, or the dense path's per-layer states), so it
  survives intervening (e.g. evaluation) executes.
  The adjoint call releases the record when done — and buffer pools are
  bounded to a few batch sizes — so long training runs do not pin the
  largest batch in memory.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Mapping, Sequence

import numpy as np

from ..backends import COMPLEX_DTYPE, REAL_DTYPE, ArrayBackend, get_backend
from ..exceptions import ConfigurationError, GateError, ShapeError
from . import gates
from .circuit import GATE_SET, Operation
from .state import apply_two_qubit

__all__ = [
    "ARITHMETIC_VERSION",
    "CompiledTape",
    "compiled_tape",
    "enable_compile_cache",
    "disable_compile_cache",
    "compile_cache_info",
    "compile_cache_scope",
]

#: Version of the engine's floating-point arithmetic.  Bumped whenever a
#: kernel change can move results at the ulp level, so result stores
#: (search journals, the protocol result cache) never serve results
#: computed by older kernels.  1: the per-gate program only; 2: the
#: dense per-layer unitary path for small product-encoded tapes.
ARITHMETIC_VERSION = 2

#: Widest register the dense path serves.  One layer unitary is a
#: ``(2**n, 2**n)`` matrix per run, so its build and its contraction
#: grow as ``4**n`` while the per-gate program grows as ``n * 2**n``;
#: at the paper's 3-5 qubits dispatch dominates and one dense
#: contraction per layer wins, beyond that the FLOPs take over.
_DENSE_MAX_QUBITS = 5

#: Rows of the dense path's product state built per encoding-builder
#: call.  Training minibatches take one call; an evaluation batch of
#: every slice's whole training set takes a few, so the builder's
#: per-row temporaries stay bounded by this rather than the batch.
_ENCODE_ROWS = 1024

#: An unencoded wire's factor of the dense path's product state.
_KET0 = np.array([1.0, 0.0], dtype=COMPLEX_DTYPE)

#: Generators ``P`` of the encoding rotations ``exp(-i x P / 2)``.
_GENERATORS = {"RX": gates.PAULI_X, "RY": gates.PAULI_Y, "RZ": gates.PAULI_Z}

#: Contraction of a ``(U, rows/U, 2**n)`` state view with one ``(U,
#: 2**n, 2**n)`` layer matrix per run (``K`` forward, a contiguous
#: ``K^dagger`` for the bra sweep), reducing over both operands' last,
#: contiguous axis.  A plain einsum, not a gemm: its per-row arithmetic
#: does not depend on the row count (a gemm blocks by rows), and it
#: never wakes BLAS worker threads, which a state-by-unitary gemm does
#: even at a few rows.
_DENSE_APPLY = "ubj,uij->ubi"

#: Buffer pools are kept for at most this many distinct batch sizes; the
#: least recently used pool is evicted beyond that.  Bounds the memory a
#: long-lived engine pins when it alternates minibatch training with
#: full-dataset evaluation batches.
_MAX_POOLS = 4

#: Kernel-selection note (small-operand specialization).  Three
#: single-qubit kernel strategies were benchmarked head-to-head on tiny
#: operands (batch <= 16, 3-5 qubits), where per-call dispatch overhead
#: rivals the arithmetic: (a) ``np.einsum`` with ``out=``, (b) manual
#: slice arithmetic over the wire's half-spaces, (c) broadcast
#: ``np.matmul``.  On NumPy 2.4 einsum's two-operand fast path makes (b)
#: ~2x *slower* (six small ufunc dispatches vs one), so no slice kernel
#: exists here.  The one measured gap is batched ``(B, 2, 2)`` matrices
#: on the last wire (contraction over the trailing axis, ``right == 1``),
#: where einsum falls off its fast path and (c) wins ~2x at every batch
#: size; ``_apply_1q`` special-cases exactly that shape.

# Instruction opcodes for the forward program.
_F1Q = 0        # fused single-qubit gate, matrix precomputed at compile
_F1Q_DYN = 1    # fused single-qubit gate, matrix combined per execution
_FPERM = 2      # full-register index permutation (CNOT, SWAP)
_FNEG = 3       # in-place sign flip of an index subset (CZ)
_F2Q = 4        # general two-qubit matrix, precomputed
_F2Q_DYN = 5    # general two-qubit matrix, bound per execution


class _OpSpec:
    """Per-operation compile-time record."""

    __slots__ = ("name", "wires", "info", "defaults", "refs", "dynamic")

    def __init__(self, op: Operation) -> None:
        self.name = op.name
        self.wires = op.wires
        self.info = op.info
        self.defaults = op.params
        self.refs = op.refs
        self.dynamic = any(r is not None for r in op.refs)


class _DensePlan:
    """Compile-time record of a tape the dense path serves.

    The tape is a product encoding (``enc_gate`` on ``enc_wires``, angle
    ``i`` read from input column ``enc_inputs[i]``) followed by
    ``n_layers`` layers, each one ``gate`` per wire, whose every angle
    is a distinct weight (``widx[l, w, p]``), then a fused permutation.
    """

    __slots__ = (
        "enc_gate",
        "enc_ops",
        "enc_wires",
        "enc_inputs",
        "gate",
        "n_params",
        "n_layers",
        "widx",
        "wflat",
        "wdefault",
        "rows",
        "gen_idx",
        "gen_phase",
        "traces",
    )


class CompiledTape:
    """A circuit compiled from its structure for repeated execution.

    Parameters
    ----------
    ops:
        The tape to compile.  Gate names, wires and ``ParamRef``s define
        the *structure*; the operations' parameter values become the
        defaults used when no binding is supplied (so
        ``CompiledTape(ops, n).run()`` reproduces ``circuit.run(ops, n)``
        exactly).
    n_qubits:
        Register width.
    backend:
        Optional :class:`~repro.backends.ArrayBackend` the hot kernels
        execute on (default: the NumPy backend — the bit-exact
        reference path).  Compilation is always host-side NumPy;
        execution state (ping-pong buffers, bound gate-matrix stacks)
        lives on the backend's device, and compile-time constants
        (fused permutations, sign tables, static matrices) are uploaded
        lazily once per engine.  See ``docs/backends.md``.
    """

    def __init__(
        self,
        ops: Sequence[Operation],
        n_qubits: int,
        backend: "ArrayBackend | None" = None,
    ) -> None:
        if n_qubits < 1:
            raise ShapeError(f"need at least one qubit, got {n_qubits}")
        self._xp = backend if backend is not None else get_backend("numpy")
        #: Device copies of compile-time constants, keyed by id() of the
        #: host array.  Only arrays owned by the (immutable, shared)
        #: compiled program are cached here, so keys can never be
        #: recycled while the engine lives; clones share the cache, so a
        #: constant uploads once per compilation, not once per layer.
        self._dev_cache: dict[int, object] = {}
        self.n_qubits = n_qubits
        self.dim = 2**n_qubits
        self._specs = [_OpSpec(op) for op in ops]
        self._validate_wires()

        # Wire w of the flat (B, 2**n) buffer factors as
        # (B, left, 2, right) with left = 2**w (wire 0 is the MSB).
        self._lr = [
            (2**w, 2 ** (n_qubits - 1 - w)) for w in range(n_qubits)
        ]

        # Z-expectation sign table: signs[w, k] = +1 if bit w of basis
        # index k is 0 else -1.  Turns expval/adjoint seeding into one
        # matmul against probabilities/amplitudes.
        ks = np.arange(self.dim)
        bits = (ks[None, :] >> (n_qubits - 1 - np.arange(n_qubits)[:, None])) & 1
        self._z_signs = (1.0 - 2.0 * bits).astype(REAL_DTYPE)

        self._static_mats: dict[int, np.ndarray] = {}
        self._dynamic: list[int] = []
        self._dyn_groups: dict[str, list[int]] = {}
        self._train_groups: dict[str, list[int]] = {}
        self._adjoint_unsupported: dict[int, str] = {}
        self._max_input = -1
        self._max_weight = -1
        # _default_batch: batch inferred when execute() gets no binding
        # (any batched default).  _fixed_batch: hard constraint coming
        # from batched parameters of *static* ops, whose matrices are
        # precomputed at compile time and cannot be rebound.
        self._default_batch = 1
        self._fixed_batch = 1
        self._classify()

        self._program: list[tuple] = []
        self._adj_program: list[tuple] = []
        self._compile_program()
        self._scatter = {
            g: self._compile_scatter(g)
            for group in self._train_groups.values()
            for g in group
        }
        self._dense = self._compile_dense()

        self._pools: dict[int, dict[str, list[np.ndarray]]] = {}
        self._last: dict | None = None

    # -- compilation -------------------------------------------------------

    def _validate_wires(self) -> None:
        for spec in self._specs:
            for w in spec.wires:
                if not 0 <= w < self.n_qubits:
                    raise ShapeError(
                        f"{spec.name} wire {w} out of range for "
                        f"{self.n_qubits} qubits"
                    )

    def _classify(self) -> None:
        for g, spec in enumerate(self._specs):
            for ref, dflt in zip(spec.refs, spec.defaults):
                if ref is not None:
                    if ref.kind == "input":
                        self._max_input = max(self._max_input, ref.index)
                    else:
                        self._max_weight = max(self._max_weight, ref.index)
                if dflt.ndim == 1 and dflt.shape[0] > 1:
                    if self._default_batch not in (1, dflt.shape[0]):
                        raise ShapeError(
                            f"inconsistent batched default parameters: "
                            f"{self._default_batch} vs {dflt.shape[0]}"
                        )
                    self._default_batch = dflt.shape[0]
                    if not spec.dynamic:
                        self._fixed_batch = dflt.shape[0]
            if spec.dynamic:
                self._dynamic.append(g)
                if spec.info.matrix_fn is not None:
                    self._dyn_groups.setdefault(spec.name, []).append(g)
                if len(spec.wires) != 1:
                    self._adjoint_unsupported[g] = (
                        f"adjoint differentiation supports single-qubit "
                        f"parametrized gates, got {spec.name} on {spec.wires}"
                    )
                elif spec.info.deriv_fn is None:
                    self._adjoint_unsupported[g] = (
                        f"{spec.name} has no derivative rule"
                    )
                else:
                    self._train_groups.setdefault(spec.name, []).append(g)
            elif spec.info.matrix_fn is not None and (
                spec.info.basis_perm is None and spec.info.basis_diag is None
            ):
                self._static_mats[g] = spec.info.matrix_fn(*spec.defaults)

    def _full_perm(self, basis_perm, wire_a: int, wire_b: int) -> np.ndarray:
        """Register-wide permutation: ``new[k] = old[perm[k]]``."""
        n = self.n_qubits
        sa, sb = n - 1 - wire_a, n - 1 - wire_b
        ks = np.arange(self.dim)
        j = (((ks >> sa) & 1) << 1) | ((ks >> sb) & 1)
        pj = np.asarray(basis_perm)[j]
        cleared = ks & ~((1 << sa) | (1 << sb))
        return cleared | ((pj >> 1) << sa) | ((pj & 1) << sb)

    def _negate_indices(self, basis_diag, wire_a: int, wire_b: int) -> np.ndarray:
        """Indices whose sign flips under a ``+-1`` diagonal gate."""
        n = self.n_qubits
        sa, sb = n - 1 - wire_a, n - 1 - wire_b
        ks = np.arange(self.dim)
        j = (((ks >> sa) & 1) << 1) | ((ks >> sb) & 1)
        return ks[np.asarray(basis_diag)[j] < 0]

    def _flush(self, pending: dict[int, list[int]], wire: int) -> None:
        members = pending.pop(wire, None)
        if not members:
            return
        if all(m in self._static_mats for m in members):
            mat = self._static_mats[members[0]]
            for m in members[1:]:
                mat = np.matmul(self._static_mats[m], mat)
            self._program.append((_F1Q, wire, mat))
        else:
            self._program.append((_F1Q_DYN, wire, tuple(members)))

    def _compile_program(self) -> None:
        pending: dict[int, list[int]] = {}
        n = len(self._specs)
        g = 0
        while g < n:
            spec = self._specs[g]
            info = spec.info
            if len(spec.wires) == 1 and info.matrix_fn is not None:
                pending.setdefault(spec.wires[0], []).append(g)
                self._adj_program.append(("m1", spec.wires[0]))
                g += 1
                continue
            if info.basis_perm is not None:
                # Maximal run of consecutive permutation gates (a CNOT
                # ring).  Flush every wire the run touches *up front*:
                # a pending single-qubit gate commutes with each ring
                # gate before its wire's first use, so hoisting the
                # flushes preserves semantics and leaves the
                # permutations adjacent for _fuse_permutations to merge
                # into a single take.
                end = g
                while (
                    end < n
                    and self._specs[end].info.basis_perm is not None
                ):
                    end += 1
                run_wires = {w for s in self._specs[g:end] for w in s.wires}
                for w in sorted(run_wires):
                    self._flush(pending, w)
                for h in range(g, end):
                    s = self._specs[h]
                    perm = self._full_perm(s.info.basis_perm, *s.wires)
                    self._program.append((_FPERM, perm))
                    self._adj_program.append(("perm", perm, np.argsort(perm)))
                g = end
                continue
            for w in spec.wires:
                self._flush(pending, w)
            wa, wb = spec.wires
            if info.basis_diag is not None:
                idx = self._negate_indices(info.basis_diag, wa, wb)
                self._program.append((_FNEG, idx))
                self._adj_program.append(("neg", idx))
            elif g in self._static_mats:
                self._program.append((_F2Q, wa, wb, self._static_mats[g]))
                self._adj_program.append(("m2", wa, wb))
            else:
                self._program.append((_F2Q_DYN, wa, wb, g))
                self._adj_program.append(("m2", wa, wb))
            g += 1
        for w in sorted(pending):
            self._flush(pending, w)
        self._fuse_permutations()

    def _fuse_permutations(self) -> None:
        """Collapse runs of index-permutation gates into one permutation.

        An ansatz layer's CNOT ring compiles to ``n_qubits`` consecutive
        ``_FPERM`` instructions; composing them at compile time turns the
        whole ring into a single ``np.take``.  Applying permutation ``a``
        then ``b`` is ``a[b]`` (``s2[k] = s1[b[k]] = s0[a[b[k]]]``).

        The adjoint program gets the same treatment: a maximal run of
        consecutive ``perm`` steps (permutation gates carry no parameters,
        so no derivative is ever injected inside the run) is replaced by
        one fused step at the run's *last* op — the first one the reversed
        sweep reaches — and ``skip`` markers elsewhere.
        """
        fused: list[tuple] = []
        for instr in self._program:
            if instr[0] == _FPERM and fused and fused[-1][0] == _FPERM:
                fused[-1] = (_FPERM, fused[-1][1][instr[1]])
            else:
                fused.append(instr)
        self._program = fused

        adj = self._adj_program
        g = 0
        while g < len(adj):
            if adj[g][0] != "perm":
                g += 1
                continue
            start = g
            comb = adj[g][1]
            g += 1
            while g < len(adj) and adj[g][0] == "perm":
                comb = comb[adj[g][1]]
                g += 1
            if g - start > 1:
                for s in range(start, g - 1):
                    adj[s] = ("skip",)
                adj[g - 1] = ("perm", comb, np.argsort(comb))

    def _compile_scatter(self, g: int) -> tuple:
        """How op ``g``'s derivative overlaps reach the gradients.

        Returns ``(keep, inputs, weights)``: ``keep`` selects the
        parameters with a live ref from the op's derivative stack
        (``None`` when all are live); ``inputs``/``weights`` are lists
        of ``(rows, cols)`` index pairs — overlap rows of the kept stack
        and the gradient columns they add into.  A column appears at
        most once per pair, so one fancy-index add per pair performs
        exactly the per-parameter ``+=`` sequence.
        """
        refs = self._specs[g].refs
        live = [p for p, ref in enumerate(refs) if ref is not None]
        keep = None if len(live) == len(refs) else np.asarray(live)
        scatters: dict[str, list[tuple[list[int], list[int]]]] = {
            "input": [],
            "weight": [],
        }
        for row, p in enumerate(live):
            ref = refs[p]
            chunks = scatters[ref.kind]
            if not chunks or ref.index in chunks[-1][1]:
                chunks.append(([], []))
            chunks[-1][0].append(row)
            chunks[-1][1].append(ref.index)
        inputs, weights = (
            [(np.asarray(r), np.asarray(c)) for r, c in scatters[kind]]
            for kind in ("input", "weight")
        )
        return keep, inputs, weights

    def _compile_dense(self) -> "_DensePlan | None":
        """Match the tape against the dense path's shape, or ``None``.

        The shape is: single-qubit ``RX``/``RY``/``RZ`` encoding gates on
        distinct wires, each driven by its own input column; then one
        or more layers of one weight-only gate per wire (one gate type
        throughout, every angle its own weight column, scalar
        defaults), each followed by zero or more permutation gates.
        Anything else — a CZ, a two-qubit matrix, an input ref after a
        weight op, a constant or shared angle, more than
        ``_DENSE_MAX_QUBITS`` wires — keeps the per-gate program only.
        """
        n, dim = self.n_qubits, self.dim
        specs = self._specs
        if n > _DENSE_MAX_QUBITS or self._fixed_batch > 1:
            return None
        g = 0
        enc: list[int] = []
        while (
            g < len(specs)
            and specs[g].name in _GENERATORS
            and specs[g].refs[0] is not None
            and specs[g].refs[0].kind == "input"
        ):
            enc.append(g)
            g += 1
        enc_wires = [specs[e].wires[0] for e in enc]
        enc_inputs = [specs[e].refs[0].index for e in enc]
        if (
            len(set(enc_wires)) != len(enc)
            or len(set(enc_inputs)) != len(enc)
            or len({specs[e].name for e in enc}) > 1
        ):
            return None

        gate = None
        layers: list[tuple[list[int], np.ndarray]] = []
        while g < len(specs):
            block: dict[int, int] = {}
            while g < len(specs):
                spec = specs[g]
                if len(spec.wires) != 1 or spec.wires[0] in block:
                    break
                if (
                    spec.info.deriv_fn is None
                    or spec.name != (gate or spec.name)
                    or any(r is None or r.kind != "weight" for r in spec.refs)
                    or any(d.ndim for d in spec.defaults)
                ):
                    return None
                gate = spec.name
                block[spec.wires[0]] = g
                g += 1
            if len(block) != n:
                return None
            perm = np.arange(dim)
            while g < len(specs) and specs[g].info.basis_perm is not None:
                perm = perm[
                    self._full_perm(specs[g].info.basis_perm, *specs[g].wires)
                ]
                g += 1
            layers.append(([block[w] for w in range(n)], perm))
        if not layers:
            return None

        plan = _DensePlan()
        plan.enc_gate = specs[enc[0]].name if enc else None
        plan.enc_ops = enc
        plan.enc_wires = np.asarray(enc_wires, dtype=np.intp)
        plan.enc_inputs = np.asarray(enc_inputs, dtype=np.intp)
        plan.gate = gate
        plan.n_params = GATE_SET[gate].n_params
        plan.n_layers = len(layers)
        plan.widx = np.array(
            [
                [[r.index for r in specs[op].refs] for op in ops]
                for ops, _ in layers
            ],
            dtype=np.intp,
        )
        plan.wflat = plan.widx.reshape(-1)
        if len(set(plan.wflat.tolist())) != plan.wflat.size:
            return None
        plan.wdefault = np.array(
            [
                [[float(d) for d in specs[op].defaults] for op in ops]
                for ops, _ in layers
            ],
            dtype=REAL_DTYPE,
        )
        # Row l*dim + k of the stacked kron products is row k of layer
        # l's; taking rows l*dim + perm_l applies that layer's ring.
        plan.rows = np.concatenate(
            [l * dim + perm for l, (_, perm) in enumerate(layers)]
        )
        # The register-wide generator -i/2 P of encoded wire w maps
        # basis state k to one basis state, so ``G_w psi`` is a gather
        # plus a phase: (G_w psi)[k] = phase[k] * psi[src[k]].
        ks = np.arange(dim)
        idx, phase = [], []
        for e, w in zip(enc, enc_wires):
            pauli = _GENERATORS[specs[e].name]
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
        # Partial trace of an (L, blocks, dim, dim) matrix stack over
        # every wire but w, into (blocks, L, 2, 2), through (2,)*n
        # reshapes: row wires a..e, column wires f..j, and a column
        # label equal to its row label for every traced wire.
        rows = "abcde"[:n]
        plan.traces = []
        for w in range(n):
            cols = "".join("fghij"[v] if v == w else rows[v] for v in range(n))
            plan.traces.append(f"yz{rows}{cols}->zy{rows[w]}{cols[w]}")
        return plan

    def clone(self) -> "CompiledTape":
        """A new engine sharing this one's (immutable) compiled program.

        The compiled artefacts — op specs, instruction programs, fused
        permutations, static/classified matrices, sign tables — are
        shared by reference; execution state (buffer pools, the recorded
        forward) starts fresh.  This is how the compile cache hands the
        same compilation to many live layers without any state hazard:
        compiling is the expensive part, the clone is a dict copy.
        """
        twin = object.__new__(CompiledTape)
        twin.__dict__.update(self.__dict__)
        twin._pools = {}
        twin._last = None
        return twin

    # -- backend plumbing --------------------------------------------------

    @property
    def backend(self) -> ArrayBackend:
        """The array backend this engine's hot kernels execute on."""
        return self._xp

    def _dev(self, arr):
        """Device copy of a *compile-time constant* array (cached).

        Identity on the NumPy backend.  Callers must only pass arrays
        owned by the compiled program (static/fused matrices, sign
        tables): the cache is keyed by ``id()``, which is only stable
        for arrays that live as long as the engine.
        """
        if self._xp.is_numpy:
            return arr
        key = id(arr)
        dev = self._dev_cache.get(key)
        if dev is None:
            dev = self._dev_cache[key] = self._xp.asarray(arr)
        return dev

    def _dev_idx(self, arr):
        """Like :meth:`_dev` but for integer index tables (permutations,
        sign-flip index sets)."""
        if self._xp.is_numpy:
            return arr
        key = id(arr)
        dev = self._dev_cache.get(key)
        if dev is None:
            dev = self._dev_cache[key] = self._xp.index_const(arr)
        return dev

    def _upload_mats(self, mats: dict) -> dict:
        """Move freshly bound single-qubit matrix stacks on-device.

        No-op on the NumPy backend.  Two-qubit (``k == 4``) matrices
        stay host-side: the general two-qubit kernel round-trips through
        the reference NumPy implementation (see :meth:`_apply_2q`), so
        uploading them would only add transfers.
        """
        if self._xp.is_numpy:
            return mats
        out = {}
        for g, entry in mats.items():
            if isinstance(entry, tuple):
                out[g] = tuple(
                    self._xp.asarray(m) if m.shape[-1] == 2 else m
                    for m in entry
                )
            else:
                out[g] = (
                    self._xp.asarray(entry)
                    if entry.shape[-1] == 2
                    else entry
                )
        return out

    # -- introspection -----------------------------------------------------

    @property
    def n_ops(self) -> int:
        """Number of operations in the source tape."""
        return len(self._specs)

    @property
    def n_instructions(self) -> int:
        """Number of compiled forward instructions (after fusion)."""
        return len(self._program)

    @property
    def dense(self) -> bool:
        """Whether unshifted executes run the dense per-layer path."""
        return self._dense is not None

    @property
    def has_record(self) -> bool:
        """Whether a recorded forward execution is pending a backward."""
        return self._last is not None

    def referenced_params(self) -> list[tuple[int, int, object]]:
        """All ``(op_index, param_index, ref)`` triples with a live ref."""
        out = []
        for g, spec in enumerate(self._specs):
            for p, ref in enumerate(spec.refs):
                if ref is not None:
                    out.append((g, p, ref))
        return out

    @property
    def shift_stackable(self) -> bool:
        """Whether all 2P parameter-shifted executions of this tape can
        run as one run-stacked sweep.

        Requires every referenced parameter to sit on a single-qubit
        gate (the per-run kernels — and their bit-identity to separate
        executions — only exist for single-qubit matrices) and no
        baked-in batched default parameters (their batch would conflict
        with the fused ``2P * B`` one).
        """
        if self._default_batch > 1 or self._fixed_batch > 1:
            return False
        return all(
            len(self._specs[g].wires) == 1
            for g, _, _ in self.referenced_params()
        )

    # -- parameter binding -------------------------------------------------

    def _resolve_batch(self, inputs, batch) -> int:
        if inputs is not None:
            if batch is not None and batch != inputs.shape[0]:
                raise ShapeError(
                    f"batch {batch} != inputs batch {inputs.shape[0]}"
                )
            return inputs.shape[0]
        if batch is not None:
            return batch
        return self._default_batch

    def _resolve_values(
        self, inputs, weights, batch, shifts, runs=None
    ) -> tuple[dict[int, list[np.ndarray]], set[int]]:
        """Bind every dynamic op's parameter values for this execution.

        Each value is a scalar (shared by the whole batch), a per-sample
        ``(batch,)`` vector (``input`` refs), or — in run-stacked mode
        with 2-D ``weights`` — a per-run ``(runs,)`` vector.  Per-run
        values of multi-qubit gates are expanded to per-sample up front:
        only the single-qubit kernels have a dedicated per-run path.

        Also returns the set of *run-stacked* op indices — ops whose 1-D
        values are all per-run.  Shapes alone cannot identify them (with
        one sample per run, ``runs == batch``), so the per-run kernel
        choice is keyed on this set, not on array shapes.
        """
        stacked = weights is not None and weights.ndim == 2
        values: dict[int, list[np.ndarray]] = {}
        run_ops: set[int] = set()
        for g in self._dynamic:
            spec = self._specs[g]
            vals = []
            per_run = stacked and len(spec.wires) == 1
            for p, ref in enumerate(spec.refs):
                if ref is not None and ref.kind == "input" and inputs is not None:
                    v = inputs[:, ref.index]
                elif (
                    ref is not None
                    and ref.kind == "weight"
                    and weights is not None
                ):
                    if stacked:
                        v = weights[:, ref.index]
                        if len(spec.wires) != 1:
                            v = np.repeat(v, batch // runs)
                    else:
                        v = weights[ref.index]
                else:
                    v = spec.defaults[p]
                if v.ndim == 1 and v.shape[0] != batch and v.shape[0] != runs:
                    raise ShapeError(
                        f"{spec.name} parameter batch {v.shape[0]} != "
                        f"execution batch {batch}"
                    )
                if per_run and v.ndim == 1 and not (
                    ref is not None and ref.kind == "weight"
                ):
                    # A per-sample value (input ref or batched default)
                    # forces this op onto the per-sample path; its
                    # stacked weights expand there.
                    per_run = False
                if shifts is not None:
                    delta = shifts.get((g, p))
                    if delta is not None:
                        delta = np.asarray(delta)
                        if (
                            delta.ndim == 1
                            and runs is not None
                            and v.ndim == 1
                            and v.shape[0] == batch
                            and batch != runs
                        ):
                            # A per-run (runs,) shift vector meeting a
                            # per-sample value (input refs, expanded
                            # multi-qubit weights): expand run-major so
                            # each run's rows see their own delta.
                            delta = np.repeat(delta, batch // runs)
                        v = v + delta
                vals.append(v)
            values[g] = vals
            if per_run and any(v.ndim == 1 for v in vals):
                run_ops.add(g)
        return values, run_ops

    def _grouped_matrices(
        self,
        groups: Mapping[str, list[int]],
        values: Mapping[int, list[np.ndarray]],
        batch: int,
        deriv: bool = False,
        run_ops: set[int] | frozenset[int] = frozenset(),
    ) -> dict[int, tuple[np.ndarray, ...] | np.ndarray]:
        """Vectorised matrix construction: one builder call per gate type
        and stacking width.

        Ops of one gate type are partitioned by the *effective length* of
        their bound values — 1 (scalar parameters, one shared matrix),
        ``runs`` (run-stacked weights, an ``(R, k, k)`` stack) or
        ``batch`` (per-sample inputs, a ``(B, k, k)`` stack) — and each
        partition costs one builder call.  Returns a 1-tuple holding the
        gate matrix per op, or — for ``deriv=True`` — one stacked
        ``(P, [L,] k, k)`` array of the op's per-parameter derivative
        matrices.

        Run-stacked ops (``run_ops``) get their matrices tagged with an
        extra singleton axis — ``(R, 1, k, k)``, derivs
        ``(P, R, 1, k, k)`` — so the kernels can tell a per-run stack
        from a per-sample one even when ``runs == batch``.
        """
        out: dict[int, tuple[np.ndarray, ...] | np.ndarray] = {}
        for name, group in groups.items():
            info = GATE_SET[name]
            fn = info.deriv_fn if deriv else info.matrix_fn
            n_p = info.n_params
            # Partition key: (0, False) for all-scalar ops (one shared
            # matrix), else the stacking width and per-run flag (a
            # batch-1 execution's (1,)-vectors stay on the stacked path).
            partitions: dict[tuple[int, bool], list[int]] = {}
            for g in group:
                lengths = [v.shape[0] for v in values[g] if v.ndim == 1]
                key = (max(lengths) if lengths else 0, g in run_ops)
                partitions.setdefault(key, []).append(g)
            for (eff, per_run), part in partitions.items():
                cols = [[values[g][p] for g in part] for p in range(n_p)]
                if eff:
                    args = []
                    for col in cols:
                        a = np.empty((len(part), eff))
                        for i, v in enumerate(col):
                            if v.ndim == 1 and v.shape[0] != eff:
                                # A per-run value inside a per-sample op
                                # (mixed refs): expand run-major.
                                v = np.repeat(v, eff // v.shape[0])
                            a[i] = v
                        args.append(a.reshape(-1))
                else:
                    args = [np.array(col, dtype=REAL_DTYPE) for col in cols]
                result = fn(*args)
                if not isinstance(result, tuple):
                    result = (result,)
                per_op: list[np.ndarray] = []
                for mats in result:
                    k = mats.shape[-1]
                    if eff:
                        if per_run:
                            mats = mats.reshape(len(part), eff, 1, k, k)
                        else:
                            mats = mats.reshape(len(part), eff, k, k)
                    per_op.append(mats)
                if deriv:
                    # Stack the per-parameter derivative matrices once
                    # per partition; each op gets its (P, [L,] k, k) row
                    # so the adjoint sweep can contract all of a gate's
                    # parameters in a single einsum.
                    stacked = np.stack(per_op, axis=1)
                    for i, g in enumerate(part):
                        out[g] = stacked[i]
                else:
                    for i, g in enumerate(part):
                        out[g] = tuple(mats[i] for mats in per_op)
        return out

    def _mat_of(self, g: int, mats: Mapping[int, tuple]) -> np.ndarray:
        entry = mats.get(g)
        if entry is not None:
            return entry[0]
        mat = self._static_mats[g]
        # Single-qubit static matrices feed the device kernels; the
        # general two-qubit kernel stays host-side (see _apply_2q).
        if mat.shape[-1] == 2:
            return self._dev(mat)
        return mat

    # -- buffers -----------------------------------------------------------

    def _buffers(self, batch: int, kind: str, count: int) -> list[np.ndarray]:
        """Pooled buffers for one batch size: ``"fwd"`` buffers are flat
        ``(batch, 2**n)`` states, ``"pair"`` buffers ``(2, batch, 2**n)``
        ket/bra pairs."""
        pool = self._pools.get(batch)
        if pool is None:
            pool = self._pools[batch] = {}
        else:
            # Move to the end: dicts preserve insertion order, so the
            # first key is always the least recently used pool.
            self._pools[batch] = self._pools.pop(batch)
        while len(self._pools) > _MAX_POOLS:
            del self._pools[next(iter(self._pools))]
        bufs = pool.get(kind)
        if bufs is None:
            shape = (batch, self.dim)
            if kind == "pair":
                shape = (2,) + shape
            bufs = [
                self._xp.empty(shape, dtype=self._xp.complex_dtype)
                for _ in range(count)
            ]
            pool[kind] = bufs
        return bufs

    def peak_bytes(
        self, batch: int, runs: "int | None" = None, mode: str = "forward"
    ) -> int:
        """Predicted peak working-set bytes of one execution.

        An analytic upper envelope over the engine's allocations for a
        ``(batch, 2**n)`` sweep — the memory-governance layer sizes
        group admissions against it (see :mod:`repro.runtime.memory`).
        Counted per mode:

        * ``"forward"``: the ping-pong statevector pair.
        * ``"adjoint"``: the forward pair (plain executes), the two
          ``(2, batch, 2**n)`` ket/bra buffers a recorded forward and
          its paired adjoint sweep ping-pong through, and the per-op
          derivative stacks for every trainable group.

        Both modes add the bound dynamic gate-matrix stacks: per-sample
        ops (``input`` refs) bind a ``(batch, k, k)`` stack, per-run
        weight ops an ``(runs, k, k)`` one.  The prediction is
        cross-checked online by the measured bytes EWMA in
        :class:`~repro.runtime.pool.ChunkCostModel`.

        Dense-path tapes count their own record instead (see
        :meth:`_dense_peak_bytes`).
        """
        if self._dense is not None:
            return self._dense_peak_bytes(batch, runs, mode)
        item = np.dtype(COMPLEX_DTYPE).itemsize
        state = batch * self.dim * item
        total = 2 * state
        if mode == "adjoint":
            total += 4 * state
        for groups in self._dyn_groups.values():
            for g in groups:
                spec = self._specs[g]
                k = 2 ** len(spec.wires)
                per_sample = any(
                    ref is not None and ref.kind == "input"
                    for ref in spec.refs
                )
                eff = batch if per_sample else (runs or 1)
                total += eff * k * k * item
        if mode == "adjoint":
            for name, groups in self._train_groups.items():
                n_params = GATE_SET[name].n_params
                for g in groups:
                    k = 2 ** len(self._specs[g].wires)
                    total += n_params * (runs or 1) * k * k * item
        return total

    def _dense_peak_bytes(
        self, batch: int, runs: "int | None", mode: str
    ) -> int:
        """:meth:`peak_bytes` of the dense path.

        ``"forward"``: the pooled ping-pong pair, the product state and
        its kron partials (two states), and three ``(runs, L, 2**n,
        2**n)`` unitary stacks (the kron product, its row take and the
        one before it).  ``"adjoint"`` adds what a recorded step holds
        at its peak: ``L + 1`` recorded states, ``L + 1`` bras, the
        ``L`` conjugated bras of the overlap contraction or the
        ``k + 1`` gathered generator states of the input gradients,
        whichever is larger, and the daggered unitaries and the
        overlap stack.  ``L`` is the compiled depth, so an execute with
        per-run ``depths`` (which records every run at that depth) is
        covered too.  Both modes add the per-(run, layer, wire) gate,
        derivative and builder-temporary matrices, the encoding's
        per-sample ones, and a fixed allowance for array headers and
        index tables.
        """
        plan = self._dense
        item = np.dtype(COMPLEX_DTYPE).itemsize
        n_layers, n_enc = plan.n_layers, len(plan.enc_ops)
        state = batch * self.dim * item
        stack = (runs or 1) * n_layers * self.dim * self.dim * item
        small = 4 * item * (
            16 * (1 + plan.n_params) * (runs or 1) * n_layers * self.n_qubits
            + 16 * batch * self.n_qubits
        )
        total = 4 * state + 3 * stack + small + 16384
        if mode == "adjoint":
            total += (2 * n_layers + 2) * state + 2 * stack
            total += max(n_layers, n_enc + 1) * state
        return total

    # -- kernels -----------------------------------------------------------

    def _apply_1q(self, mat, wire, src, dst, batch, runs=None) -> None:
        """Apply a single-qubit matrix (stack) to ``src`` into ``dst``.

        The states are flat ``(batch, 2**n)`` buffers or ``(2, batch,
        2**n)`` ket/bra pairs; a pair's halves share every matrix, so
        its leading axis broadcasts (and each half's arithmetic is that
        of a separate call: every contraction has two terms).
        """
        left, right = self._lr[wire]
        pair = tuple(src.shape[:-2])
        if mat.ndim == 2:
            s = src.reshape(-1, left, 2, right)
            d = dst.reshape(-1, left, 2, right)
            self._xp.einsum("ij,bljr->blir", mat, s, out=d)
        elif mat.ndim == 4:
            # Run-stacked (R, 1, 2, 2)-tagged matrices over a run-major
            # (R*B, dim) buffer: one matrix per run, shared by that
            # run's samples.  The buffer factors as (R, B*left, 2,
            # right) for free.  Always einsum here — these matrices
            # replace *shared* (2, 2) matrices of a per-run execution,
            # whose kernel is einsum on every wire, and einsum matches
            # it bitwise where the broadcast-matmul trailing-axis kernel
            # does not (complex gemm rounds differently).  Bit-identical
            # vectorized_runs searches depend on this.
            s = src.reshape(pair + (runs, -1, 2, right))
            d = dst.reshape(pair + (runs, -1, 2, right))
            self._xp.einsum("rij,...rmjs->...rmis", mat[:, 0], s, out=d)
        elif right == 1:
            # Batched matrices contracting the trailing axis: einsum's
            # slow path; broadcast matmul is ~2x faster (see the kernel
            # note at the top of this module).
            self._xp.matmul(
                mat[:, None],
                src.reshape(pair + (batch, left, 2, 1)),
                out=dst.reshape(pair + (batch, left, 2, 1)),
            )
        else:
            s = src.reshape(pair + (batch, left, 2, right))
            d = dst.reshape(pair + (batch, left, 2, right))
            self._xp.einsum("bij,...bljr->...blir", mat, s, out=d)

    def _apply_1q_inv(self, mat, wire, src, dst, batch, runs=None) -> None:
        if mat.ndim == 2:
            left, right = self._lr[wire]
            s = src.reshape(-1, left, 2, right)
            d = dst.reshape(-1, left, 2, right)
            self._xp.einsum("ji,bljr->blir", mat.conj(), s, out=d)
        else:
            # Daggered batched matrices reuse the forward kernel (and its
            # trailing-axis matmul and run-stacked specializations).
            self._apply_1q(
                self._xp.conj_transpose(mat), wire, src, dst, batch, runs
            )

    def _apply_2q(self, mat, wire_a, wire_b, src, dst, batch) -> None:
        # The general two-qubit gate keeps the reference NumPy kernel;
        # device backends round-trip through host here (non-diagonal,
        # non-permutation two-qubit gates are rare in the paper's
        # circuits, so the transfer is off the hot path).
        if self._xp.is_numpy:
            tensor = src.reshape((batch,) + (2,) * self.n_qubits)
            out = apply_two_qubit(tensor, mat, wire_a, wire_b)
            dst[:] = out.reshape(batch, self.dim)
            return
        host = self._xp.to_numpy(src).reshape((batch,) + (2,) * self.n_qubits)
        hmat = np.asarray(self._xp.to_numpy(mat))
        out = apply_two_qubit(host, hmat, wire_a, wire_b)
        dst[...] = self._xp.asarray(
            np.ascontiguousarray(out.reshape(batch, self.dim)),
            dtype=self._xp.complex_dtype,
        )

    def _combined(self, members, mats, runs=None) -> np.ndarray:
        mat = self._mat_of(members[0], mats)
        for m in members[1:]:
            mat = self._matmul_promote(self._mat_of(m, mats), mat, runs)
        return mat

    @staticmethod
    def _matmul_promote(a, b, runs=None) -> np.ndarray:
        """``a @ b`` for any mix of shared, per-run and per-sample stacks.

        Shared ``(k, k)`` matrices broadcast against anything via plain
        ``matmul`` (a per-run ``(R, 1, k, k)`` tag survives it).  Mixing
        a per-run stack with a per-sample ``(R*B, k, k)`` stack views
        the per-sample one as ``(R, B, k, k)`` so the run axis
        broadcasts, then flattens back — the product is per-sample.

        Uses the ``@`` operator so the same code works for ndarrays
        (where it *is* ``np.matmul``, bit-identically) and device
        tensors.
        """
        if a.ndim == 4 and b.ndim == 3:
            wide = b.reshape(runs, -1, *b.shape[1:])
            return (a @ wide).reshape(b.shape)
        if a.ndim == 3 and b.ndim == 4:
            wide = a.reshape(runs, -1, *a.shape[1:])
            return (wide @ b).reshape(a.shape)
        return a @ b

    # -- execution ---------------------------------------------------------

    def execute(
        self,
        inputs: np.ndarray | None = None,
        weights: np.ndarray | None = None,
        batch: int | None = None,
        shifts: Mapping[tuple[int, int], float] | None = None,
        record: bool = False,
        runs: int | None = None,
        depths: np.ndarray | None = None,
    ) -> np.ndarray:
        """Run the compiled program; return the final flat ``(B, 2**n)`` state.

        ``inputs`` rebinds every ``input``-ref parameter from column
        ``ref.index`` of a ``(B, n_features)`` array; ``weights`` rebinds
        every ``weight``-ref parameter from a flat vector.  Parameters
        without a binding keep the values baked in at compile time.
        ``shifts`` adds a delta to individual ``(op_index, param_index)``
        slots (the parameter-shift rule's hook); in run-stacked mode a
        delta may be a per-run ``(runs,)`` vector — one shift per run —
        which is how all ``2P`` shifted circuits of the parameter-shift
        rule execute as a single fused sweep.  The returned array is an
        engine-owned buffer, valid only until the next ``execute``.

        ``runs=R`` enables run-stacked execution: ``weights`` may then be
        a 2-D ``(R, n_weights)`` stack, one parameter set per run, and
        the batch must be ``R * B`` with run-major rows (run ``r`` owns
        rows ``r*B .. (r+1)*B``).  One sweep executes all ``R`` runs;
        see the module docstring.

        ``depths`` (dense tapes, run-stacked 2-D ``weights`` only) gives
        each run its own ansatz depth: run ``r`` executes the first
        ``depths[r]`` layers and every later layer's unitary is the
        identity, so the run computes exactly what a tape truncated to
        that depth would.  Its weights past its own layers are ignored
        and their gradients come back as exact zeros.
        """
        if inputs is not None:
            # Parameter binding and gate-matrix construction are always
            # host-side (tiny arrays, branchy code); download any device
            # inputs/weights first.  Identity on the NumPy backend.
            inputs = np.asarray(self._xp.to_numpy(inputs), dtype=np.float64)
            if inputs.ndim != 2:
                raise ShapeError(
                    f"inputs must be (batch, n_features), got {inputs.shape}"
                )
            if inputs.shape[1] <= self._max_input:
                raise ShapeError(
                    f"tape references input {self._max_input}, inputs only "
                    f"have {inputs.shape[1]} features"
                )
        if weights is not None:
            weights = np.asarray(self._xp.to_numpy(weights), dtype=np.float64)
            if weights.ndim == 2 and runs is not None:
                if weights.shape[0] != runs:
                    raise ShapeError(
                        f"stacked weights have {weights.shape[0]} rows, "
                        f"expected runs={runs}"
                    )
                if weights.shape[1] <= self._max_weight:
                    raise ShapeError(
                        f"tape references weight {self._max_weight}, got "
                        f"{weights.shape[1]} weights per run"
                    )
            else:
                weights = np.ravel(weights)
                if weights.size <= self._max_weight:
                    raise ShapeError(
                        f"tape references weight {self._max_weight}, got "
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
        if self._fixed_batch > 1 and batch != self._fixed_batch:
            raise ShapeError(
                f"tape has baked-in batched parameters of size "
                f"{self._fixed_batch}, cannot execute with batch {batch}"
            )
        if depths is not None:
            depths = self._check_depths(depths, weights, runs, shifts)
        if self._dense is not None and shifts is None:
            return self._execute_dense(
                inputs, weights, batch, runs, record, depths
            )
        values, run_ops = self._resolve_values(
            inputs, weights, batch, shifts, runs
        )
        mats = self._upload_mats(
            self._grouped_matrices(
                self._dyn_groups, values, batch, run_ops=run_ops
            )
        )

        if record:
            # The record takes exclusive ownership of a ket/bra buffer
            # pair: detaching it from the pool means later (e.g.
            # inference) executes use the "fwd" pair instead of
            # clobbering the recorded final state before backward
            # consumes it.  The forward runs in the pair's ket halves;
            # the pair returns to the pool on release.
            pairs = self._buffers(batch, "pair", 2)
            self._pools[batch].pop("pair")
            buf, scratch = pairs[0][0], pairs[1][0]
            owner = {id(buf): pairs[0], id(scratch): pairs[1]}
        else:
            buf, scratch = self._buffers(batch, "fwd", 2)
        self._xp.fill(buf, 0.0)
        buf[:, 0] = 1.0
        for instr in self._program:
            kind = instr[0]
            if kind == _F1Q:
                self._apply_1q(
                    self._dev(instr[2]), instr[1], buf, scratch, batch
                )
                buf, scratch = scratch, buf
            elif kind == _F1Q_DYN:
                mat = self._combined(instr[2], mats, runs)
                self._apply_1q(mat, instr[1], buf, scratch, batch, runs)
                buf, scratch = scratch, buf
            elif kind == _FPERM:
                self._xp.take(buf, self._dev_idx(instr[1]), scratch)
                buf, scratch = scratch, buf
            elif kind == _FNEG:
                buf[:, self._dev_idx(instr[1])] *= -1.0
            elif kind == _F2Q:
                self._apply_2q(instr[3], instr[1], instr[2], buf, scratch, batch)
                buf, scratch = scratch, buf
            else:  # _F2Q_DYN
                mat = self._mat_of(instr[3], mats)
                self._apply_2q(mat, instr[1], instr[2], buf, scratch, batch)
                buf, scratch = scratch, buf
        if record:
            # The kernels only ever swap the two half views, so identity
            # tells which pair holds the final state.
            live = owner[id(buf)]
            self._last = {
                "batch": batch,
                "runs": runs,
                "run_ops": run_ops,
                "mats": mats,
                "values": values,
                "final": buf,
                "pair": (live, owner[id(scratch)]),
            }
        else:
            # Keep the fwd pool aligned with the post-swap buffer roles.
            self._pools[batch]["fwd"] = [buf, scratch]
        return buf

    def run(
        self,
        inputs: np.ndarray | None = None,
        weights: np.ndarray | None = None,
        batch: int | None = None,
    ) -> np.ndarray:
        """Like :meth:`execute` but returns an owned ``(B, 2, ..., 2)`` copy

        (the same layout as :func:`repro.quantum.circuit.run`).  Always
        a host ndarray, whatever the backend.
        """
        state = self._xp.to_numpy(
            self.execute(inputs=inputs, weights=weights, batch=batch)
        )
        b = state.shape[0]
        return state.reshape((b,) + (2,) * self.n_qubits).copy()

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
        if not self._xp.is_numpy:
            state = self._xp.asarray(state, dtype=self._xp.complex_dtype)
            signs = (
                self._dev(signs) if wires is None
                else self._xp.asarray(signs)
            )
        probs = self._xp.abs2(state)
        blocks = runs or 1
        rows = probs.shape[0]
        if rows % blocks != 0:
            raise ShapeError(
                f"batch {rows} is not a multiple of runs {runs}"
            )
        out = self._xp.matmul(
            probs.reshape(blocks, rows // blocks, -1), signs.T
        )
        return out.reshape(rows, n_signs)

    # -- compiled adjoint --------------------------------------------------

    def release(self) -> None:
        """Drop the recorded forward execution.

        The record's buffer pair goes back to the pool (replacing any
        pair allocated in the meantime), so nothing beyond the bounded
        pools stays pinned between training steps.
        """
        if self._last is not None:
            pool = self._pools.get(self._last["batch"])
            if pool is not None and "pair" in self._last:
                pool["pair"] = list(self._last["pair"])
            self._last = None

    def _deriv_overlaps(self, dmats, wire, ket, bra, batch, runs=None) -> np.ndarray:
        """``2 Re <bra_b| dU_p |ket_b>`` for all P parameters at once.

        ``dmats`` is the stacked ``(P, 2, 2)``, ``(P, B, 2, 2)`` or —
        run-stacked — ``(P, R, 2, 2)`` derivative-matrix array of one
        gate; returns ``(P, B)`` per-sample overlaps — the adjoint
        method's gradient contraction, vectorised across the gate's
        parameters instead of looping.
        """
        left, right = self._lr[wire]
        if dmats.ndim == 5:
            # Per-run (P, R, 1, 2, 2)-tagged derivative matrices over a
            # run-major buffer: view the states as (R, B, left, 2,
            # right) so the run axis lines up, then flatten the
            # per-sample overlaps back to (P, R*B).
            per = batch // runs
            k = ket.reshape(runs, per, left, 2, right)
            b = bra.reshape(runs, per, left, 2, right)
            dk = self._xp.einsum("prij,rbljs->prblis", dmats[:, :, 0], k)
            out = 2.0 * (
                self._xp.einsum("rblis,prblis->prb", b.real, dk.real)
                + self._xp.einsum("rblis,prblis->prb", b.imag, dk.imag)
            )
            return out.reshape(dmats.shape[0], batch)
        k = ket.reshape(batch, left, 2, right)
        b = bra.reshape(batch, left, 2, right)
        if dmats.ndim == 3:
            dk = self._xp.einsum("pij,bljr->pblir", dmats, k)
        else:
            dk = self._xp.einsum("pbij,bljr->pblir", dmats, k)
        return 2.0 * (
            self._xp.einsum("blir,pblir->pb", b.real, dk.real)
            + self._xp.einsum("blir,pblir->pb", b.imag, dk.imag)
        )

    def _apply_adj_step(self, step, mats, src, dst, batch, runs=None):
        """Undo one original op on both halves of the ``(2, batch,
        2**n)`` ket/bra pair ``src``; return ``(live, spare)``."""
        kind = step[0]
        if kind == "m1":
            self._apply_1q_inv(mats, step[1], src, dst, batch, runs)
            return dst, src
        if kind == "perm":
            self._xp.take(
                src.reshape(2 * batch, self.dim),
                self._dev_idx(step[2]),
                dst.reshape(2 * batch, self.dim),
            )
            return dst, src
        if kind == "neg":
            src[:, :, self._dev_idx(step[1])] *= -1.0
            return src, dst
        # kind == "m2" — two-qubit matrices stay host-side (see
        # _apply_2q), so the dagger is plain NumPy.  Each half keeps
        # the row count of a separate sweep: the static kernel is a
        # gemm, whose blocking depends on it.
        inv = np.conj(np.swapaxes(mats, -1, -2))
        for half in range(2):
            self._apply_2q(
                inv, step[1], step[2], src[half], dst[half], batch
            )
        return dst, src

    def adjoint_gradients(
        self,
        grad_out: np.ndarray,
        n_inputs: int,
        n_weights: int,
        measure_wires: Sequence[int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Compiled version of :func:`repro.quantum.adjoint.adjoint_gradients`.

        Consumes the execution recorded by ``execute(record=True)`` —
        reusing its bound gate matrices — and releases it afterwards.
        Returns per-sample ``input`` gradients ``(B, n_inputs)`` and
        batch-summed ``weight`` gradients ``(n_weights,)``.  For a
        run-stacked record (``execute(..., runs=R)`` with 2-D weights)
        the weight gradients come back **per run**, shape
        ``(R, n_weights)``, each row summed over that run's samples only.
        """
        if self._last is None:
            raise ShapeError(
                "adjoint_gradients needs a recorded forward; call "
                "execute(record=True) first"
            )
        for g, reason in self._adjoint_unsupported.items():
            if self._specs[g].dynamic:
                raise GateError(reason)
        last = self._last
        batch, runs = last["batch"], last["runs"]

        grad_out = self._xp.as_real(grad_out)
        signs = self._z_signs
        if measure_wires is not None:
            signs = signs[list(measure_wires)]
        if tuple(grad_out.shape) != (batch, signs.shape[0]):
            raise ShapeError(
                f"grad_out must be ({batch}, {signs.shape[0]}), "
                f"got {tuple(grad_out.shape)}"
            )
        n_z = signs.shape[1]
        if not self._xp.is_numpy:
            signs = (
                self._dev(signs) if measure_wires is None
                else self._xp.asarray(signs)
            )
        # Seed |bra_b> = (sum_k g_bk Z_k)|psi_b>: the Z combination is a
        # diagonal, so it is one matmul against the sign table followed by
        # an elementwise product with the final state.  The matmul is
        # batched over run blocks, one gemm per block, so the gemm's row
        # count — and with it BLAS's rounding — matches a per-run
        # execution exactly.
        blocks = runs or 1
        seed = self._xp.matmul(
            grad_out.reshape(blocks, batch // blocks, -1), signs
        ).reshape(batch, n_z)
        if "dense" in last:
            return self._adjoint_dense(seed, n_inputs, n_weights)
        # The recorded final state (the ket) is src[0]; the bra is
        # seeded into src[1], and both then move through the reversed
        # tape together.
        src, dst = last["pair"]
        mats, values = last["mats"], last["values"]
        self._xp.multiply(seed, src[0], src[1])

        derivs = self._grouped_matrices(
            self._train_groups,
            values,
            batch,
            deriv=True,
            run_ops=last["run_ops"],
        )
        if not self._xp.is_numpy:
            # Derivative stacks are single-qubit only (2x2 trailing
            # axes); upload them once for the whole reversed sweep.
            derivs = {g: self._xp.asarray(d) for g, d in derivs.items()}
        input_grads = self._xp.zeros(
            (batch, n_inputs), dtype=self._xp.real_dtype
        )
        if runs is not None:
            weight_grads = self._xp.zeros(
                (runs, n_weights), dtype=self._xp.real_dtype
            )
        else:
            weight_grads = self._xp.zeros(
                n_weights, dtype=self._xp.real_dtype
            )

        idx = self._dev_idx
        for g in range(len(self._specs) - 1, -1, -1):
            step = self._adj_program[g]
            if step[0] == "skip":
                # Folded into a fused permutation applied at the end of
                # this run of permutation gates (none carry parameters).
                continue
            gate_mat = (
                self._mat_of(g, mats)
                if step[0] in ("m1", "m2")
                else None
            )
            src, dst = self._apply_adj_step(
                step, gate_mat, src, dst, batch, runs
            )
            d_entry = derivs.get(g)
            if d_entry is None:
                continue
            # Trainable ops are single-qubit ("m1", a ping-pong step):
            # the undone ket is now src[0], while dst[1] still holds the
            # bra from before this op's undo.
            keep, inputs, weights = self._scatter[g]
            if keep is not None:
                d_entry = d_entry[idx(keep)]
            overlaps = self._deriv_overlaps(
                d_entry, self._specs[g].wires[0], src[0], dst[1], batch, runs
            )
            for rows, cols in inputs:
                input_grads[:, idx(cols)] += overlaps[idx(rows)].T
            for rows, cols in weights:
                per_sample = overlaps[idx(rows)]
                if runs is not None:
                    # Per-run weight gradients: each run's row sums its
                    # own B contiguous samples (same pairwise reduction
                    # a per-run execution would perform).
                    weight_grads[:, idx(cols)] += per_sample.reshape(
                        rows.size, runs, -1
                    ).sum(axis=2).T
                else:
                    weight_grads[idx(cols)] += per_sample.sum(axis=1)

        pool = self._pools.get(batch)
        if pool is not None:
            # Return the record's buffer pair to the pool for reuse.
            pool["pair"] = [src, dst]
        self._last = None
        return input_grads, weight_grads

    # -- dense path --------------------------------------------------------

    def _check_depths(self, depths, weights, runs, shifts) -> np.ndarray:
        """Validate ``execute``'s per-run ``depths``; return them as an
        integer array."""
        if shifts is not None:
            raise ShapeError("depths cannot be combined with shifts")
        if self._dense is None:
            raise ShapeError("depths need a dense-path tape")
        if weights is None or weights.ndim != 2:
            raise ShapeError("depths need run-stacked 2-D weights")
        depths = np.asarray(depths)
        if depths.shape != (runs,):
            raise ShapeError(
                f"depths must have shape ({runs},), got {depths.shape}"
            )
        if depths.min() < 1 or depths.max() > self._dense.n_layers:
            raise ShapeError(
                f"depths must lie in 1..{self._dense.n_layers}, "
                f"got {depths.tolist()}"
            )
        return depths.astype(np.intp)

    def is_layer_prefix(self, other: "CompiledTape") -> bool:
        """Whether this dense tape is ``other``'s truncated to its own
        depth: the same encoding and gate, and each of its layers reads
        the same weights and applies the same ring as ``other``'s layer
        at that position.  ``other.execute(..., depths=...)`` then runs
        this tape's circuit at this tape's depth."""
        mine, theirs = self._dense, other._dense
        if mine is None or theirs is None:
            return False
        n_layers = mine.n_layers
        return (
            n_layers <= theirs.n_layers
            and mine.enc_gate == theirs.enc_gate
            and np.array_equal(mine.enc_wires, theirs.enc_wires)
            and np.array_equal(mine.enc_inputs, theirs.enc_inputs)
            and mine.gate == theirs.gate
            and np.array_equal(mine.widx, theirs.widx[:n_layers])
            and np.array_equal(mine.rows, theirs.rows[: n_layers * self.dim])
        )

    def _product_state(self, angles) -> np.ndarray:
        """The dense path's encoded product state for a block of
        ``(rows, n_encoded)`` angles, or ``|0...0>`` (shape ``(2**n,)``)
        for a tape without encoding (``angles`` is ``None``).

        One builder call over every encoded wire: each gate's first
        column is its wire's factor of the state, and an unencoded
        wire's factor is ``|0>``.
        """
        plan = self._dense
        factors = [_KET0] * self.n_qubits
        if angles is not None:
            mats = GATE_SET[plan.enc_gate].matrix_fn(angles.reshape(-1))
            cols = mats[:, :, 0].reshape(angles.shape[0], -1, 2)
            for i, w in enumerate(plan.enc_wires):
                factors[w] = cols[:, i]
        psi = factors[0]
        for w in range(1, self.n_qubits):
            psi = psi[..., :, None] * factors[w][..., None, :]
            psi = psi.reshape(psi.shape[:-2] + (-1,))
        return psi

    def _execute_dense(self, inputs, weights, batch, runs, record, depths):
        """``execute`` for a dense-eligible tape (see the module docstring).

        Gate matrices, the product state and the layer unitaries are
        built host-side, like every bound matrix of the per-gate program;
        the state contractions run on the backend.
        """
        plan, xp = self._dense, self._xp
        n, dim, n_layers = self.n_qubits, self.dim, plan.n_layers

        encoding = None
        if plan.enc_ops:
            if inputs is not None:
                encoding = inputs[:, plan.enc_inputs]
            else:
                encoding = np.empty((batch, len(plan.enc_ops)))
                for i, g in enumerate(plan.enc_ops):
                    default = self._specs[g].defaults[0]
                    if default.ndim == 1 and default.shape[0] != batch:
                        raise ShapeError(
                            f"{self._specs[g].name} parameter batch "
                            f"{default.shape[0]} != execution batch {batch}"
                        )
                    encoding[:, i] = default

        # Layer unitaries: one builder call over every (run, layer,
        # wire), n-1 broadcast krons and one row take for the rings.
        if weights is None:
            angles = plan.wdefault[None]
        elif weights.ndim == 2:
            angles = weights[:, plan.widx]
        else:
            angles = weights[plan.widx][None]
        n_u = angles.shape[0]
        args = [angles[..., p].reshape(-1) for p in range(plan.n_params)]
        gate = GATE_SET[plan.gate].matrix_fn(*args)
        per_wire = gate.reshape(n_u, n_layers, n, 2, 2)
        kron = per_wire[:, :, 0]
        for w in range(1, n):
            side = 2 ** (w + 1)
            factor = per_wire[:, :, w, None, :, None, :]
            kron = (kron[..., :, None, :, None] * factor).reshape(
                n_u, n_layers, side, side
            )
        unitary = kron.reshape(n_u, n_layers * dim, dim)[:, plan.rows]
        unitary = unitary.reshape(n_u, n_layers, dim, dim)
        padded = None
        if depths is not None:
            # Layers past a run's depth pass its state through: x * 1
            # and x + 0 are exact, so the run sees its own depth's
            # circuit bit for bit.
            padded = np.nonzero(np.arange(n_layers) >= depths[:, None])
            unitary[padded] = np.eye(dim, dtype=unitary.dtype)
        unitary = xp.asarray(unitary)

        if record:
            states = xp.empty(
                (n_layers + 1, batch, dim), dtype=xp.complex_dtype
            )
            state = states[0]
            bufs = [states[l] for l in range(1, n_layers + 1)]
        else:
            pair = self._buffers(batch, "fwd", 2)
            state = pair[1]
            bufs = [pair[l % 2] for l in range(n_layers)]
        # The product state goes straight into the buffer layer 0
        # reads, built in row blocks so the builder's temporaries stay
        # small on evaluation-sized batches.
        for lo in range(0, batch, _ENCODE_ROWS):
            rows = slice(lo, lo + _ENCODE_ROWS)
            block = None if encoding is None else encoding[rows]
            state[rows] = xp.asarray(self._product_state(block))
        for l, out in enumerate(bufs):
            xp.einsum(
                _DENSE_APPLY,
                state.reshape(n_u, -1, dim),
                unitary[:, l],
                out=out.reshape(n_u, -1, dim),
            )
            state = out
        if record:
            self._last = {
                "batch": batch,
                "runs": runs,
                "final": state,
                "dense": (states, unitary, gate, args, padded),
            }
        return state

    def _adjoint_dense(self, seed, n_inputs, n_weights):
        """``adjoint_gradients`` for a dense record; ``seed`` is the
        ``(batch, 2**n)`` real Z-combination the bra starts from.

        With ``mu`` the bra before layer ``l`` and ``psi`` the ket before
        it, ``H = sum_b conj(mu_b)^T psi_b`` carries every overlap of the
        layer: for gate ``X`` on wire ``w``, ``dK = K (X^dagger dX)_w``,
        so the gradient is ``2 Re sum(A * Tr_rest H)`` with ``A =
        X^dagger dX`` — no derivative kron is ever built.
        """
        plan, xp, last = self._dense, self._xp, self._last
        states, unitary, gate, args, padded = last["dense"]
        batch, runs = last["batch"], last["runs"]
        n, dim, n_layers = self.n_qubits, self.dim, plan.n_layers
        n_u = unitary.shape[0]
        blocks = runs or 1
        idx = self._dev_idx

        # bras[l] is the bra before layer l (bras[L]: the seeded bra).
        bras = xp.empty((n_layers + 1, batch, dim), dtype=xp.complex_dtype)
        xp.multiply(seed, states[n_layers], bras[n_layers])
        inverse = xp.ascontiguousarray(xp.conj_transpose(unitary))
        for l in range(n_layers - 1, -1, -1):
            xp.einsum(
                _DENSE_APPLY,
                bras[l + 1].reshape(n_u, -1, dim),
                inverse[:, l],
                out=bras[l].reshape(n_u, -1, dim),
            )

        # Weight gradients, summed per run block: one (2**n, rows) x
        # (rows, 2**n) gemm per (layer, block), so a block's arithmetic
        # does not depend on how many blocks run beside it.
        slices = (n_layers * blocks, -1, dim)
        overlap = xp.matmul(
            xp.conj_transpose(bras[:n_layers].reshape(slices)),
            states[:n_layers].reshape(slices),
        ).reshape((n_layers, blocks) + (2,) * (2 * n))
        reduced = xp.empty((blocks, n_layers, n, 2, 2), dtype=xp.complex_dtype)
        for w, spec in enumerate(plan.traces):
            xp.einsum(spec, overlap, out=reduced[:, :, w])
        derivs = GATE_SET[plan.gate].deriv_fn(*args)
        if isinstance(derivs, tuple):
            derivs = np.stack(derivs)
        else:
            derivs = derivs[None]
        local = np.matmul(np.conj(np.swapaxes(gate, -1, -2)), derivs).reshape(
            plan.n_params, n_u, n_layers, n, 2, 2
        )
        # With weights shared by every run (n_u == 1 < blocks) the run
        # axis of ``local`` broadcasts: each block still sums only its
        # own samples.
        grads = 2.0 * xp.einsum(
            "prlwac,rlwac->rlwp", xp.asarray(local), reduced
        ).real
        if padded is not None:
            # A run's layers past its depth hold no weights of its own.
            grads[tuple(xp.index_const(i) for i in padded)] = 0.0
        if runs is not None:
            weight_grads = xp.zeros((runs, n_weights), dtype=xp.real_dtype)
            weight_grads[:, idx(plan.wflat)] = grads.reshape(blocks, -1)
        else:
            weight_grads = xp.zeros(n_weights, dtype=xp.real_dtype)
            weight_grads[idx(plan.wflat)] = grads.reshape(-1)

        # Input gradients: 2 Re <bra_0| G_w |psi_0> for every encoded
        # wire, with G_w psi_0 one gather and one phase multiply.
        input_grads = xp.zeros((batch, n_inputs), dtype=xp.real_dtype)
        if plan.enc_ops:
            moved = xp.empty(
                (batch, plan.gen_idx.size), dtype=xp.complex_dtype
            )
            xp.take(states[0], idx(plan.gen_idx), moved)
            xp.multiply(moved, self._dev(plan.gen_phase), moved)
            overlaps = xp.einsum(
                "bk,bwk->bw",
                bras[0].conj(),
                moved.reshape(batch, len(plan.enc_ops), dim),
            )
            input_grads[:, idx(plan.enc_inputs)] = 2.0 * overlaps.real
        self._last = None
        return input_grads, weight_grads


# -- process-wide compile cache -------------------------------------------
#
# The grid search trains the same handful of circuit *structures* hundreds
# of times (every run of every candidate rebuilds its model from scratch).
# Compilation is cheap but not free, and in the parallel runtime each
# worker process would otherwise recompile identical tapes for every job
# it executes.  The cache below is keyed purely by structure — gate names,
# wires, parameter provenance (``ParamRef``) and the *values* of
# unreferenced (constant) parameters.  Referenced parameters are excluded
# from the key on purpose: a cached compilation may carry a previous
# tape's default values in those slots, so cache users must rebind every
# referenced parameter on each ``execute`` (exactly what
# :class:`repro.hybrid.QuantumLayer` does).  Every hit returns a
# :meth:`CompiledTape.clone` — the compiled program is shared, execution
# state (buffer pools, recorded forwards) is per-instance — so two live
# layers with identical structure can never clobber each other.  The
# cache is opt-in: sequential library use keeps the engine-per-layer
# behaviour unless :func:`enable_compile_cache` is called (the parallel
# runtime enables it in each worker's initializer).

_COMPILE_CACHE: dict[tuple, CompiledTape] | None = None
_COMPILE_CACHE_MAX = 32
_CACHE_HITS = 0
_CACHE_MISSES = 0
_CACHE_EVICTIONS = 0


def _structure_key(ops: Sequence[Operation], n_qubits: int) -> tuple:
    """Hashable structural signature of a tape (see cache contract above)."""
    parts: list[tuple] = [(n_qubits,)]
    for op in ops:
        entry: list[object] = [op.name, op.wires]
        for param, ref in zip(op.params, op.refs):
            if ref is not None:
                entry.append((ref.kind, ref.index))
            else:
                arr = np.asarray(param)
                entry.append((arr.shape, arr.tobytes()))
        parts.append(tuple(entry))
    return tuple(parts)


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


def compiled_tape(
    ops: Sequence[Operation],
    n_qubits: int,
    backend: "ArrayBackend | None" = None,
) -> CompiledTape:
    """Compile a tape, consulting the process-wide cache when enabled.

    With the cache disabled this is exactly ``CompiledTape(ops, n_qubits,
    backend=backend)``.  With it enabled, structurally identical tapes
    share one compilation and each call receives its own
    :meth:`~CompiledTape.clone`; see the cache contract above for what
    callers must rebind.  The cache key includes the backend name, so a
    torch-backed layer never receives a numpy-backed engine (or vice
    versa); ``backend=None`` means the NumPy backend — device execution
    is an explicit opt-in per compilation.
    """
    global _CACHE_HITS, _CACHE_MISSES, _CACHE_EVICTIONS
    xp = backend if backend is not None else get_backend("numpy")
    if _COMPILE_CACHE is None:
        return CompiledTape(ops, n_qubits, backend=xp)
    key = (xp.name,) + _structure_key(ops, n_qubits)
    engine = _COMPILE_CACHE.get(key)
    if engine is not None:
        _CACHE_HITS += 1
        # Move to the end: first key is the least recently used entry.
        _COMPILE_CACHE[key] = _COMPILE_CACHE.pop(key)
        return engine.clone()
    _CACHE_MISSES += 1
    engine = CompiledTape(ops, n_qubits, backend=xp)
    _COMPILE_CACHE[key] = engine
    while len(_COMPILE_CACHE) > _COMPILE_CACHE_MAX:
        del _COMPILE_CACHE[next(iter(_COMPILE_CACHE))]
        _CACHE_EVICTIONS += 1
    return engine.clone()

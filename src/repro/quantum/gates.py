"""Gate matrices for the statevector simulator.

Conventions follow PennyLane (which the paper uses):

* ``RX(t) = exp(-i t X / 2)``, likewise ``RY``/``RZ``.
* ``Rot(phi, theta, omega) = RZ(omega) @ RY(theta) @ RZ(phi)`` — i.e.
  ``RZ(phi)`` is applied to the state *first*.
* ``CNOT`` uses wire order ``(control, target)``.

All parametrized builders accept scalars *or* NumPy arrays of angles; with
an array of shape ``(B,)`` they return a batch of matrices with shape
``(B, 2, 2)``.  Batched matrices are what lets :mod:`repro.quantum.state`
encode a different data point on every statevector in one shot.

Each rotation also has an analytic derivative builder (``rx_deriv`` etc.),
used by the adjoint differentiation method: for a gate ``U(t)`` generated by
a Pauli ``P`` (``U = exp(-i t P / 2)``) the derivative is
``dU/dt = -i/2 * P @ U``.  The rotation builders themselves take
``deriv=True`` to return the matrices together with a ``(n_params, ...,
2, 2)`` stack of their derivatives from the same trig pass, bit for bit
what the ``*_deriv`` builders return; the compiled engine builds a
recorded step's gates that way.  :func:`first_column` gives ``R(t)|0>``
of an ``RX``/``RY``/``RZ`` without building the second column.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import GateError

__all__ = [
    "COMPLEX_DTYPE",
    "REAL_DTYPE",
    "I2",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "HADAMARD",
    "S_GATE",
    "T_GATE",
    "CNOT",
    "CZ",
    "SWAP",
    "rx",
    "ry",
    "rz",
    "phase_shift",
    "rot",
    "crx",
    "cry",
    "crz",
    "rx_deriv",
    "ry_deriv",
    "rz_deriv",
    "rot_deriv",
    "first_column",
    "controlled",
    "is_unitary",
]

#: Complex and real dtypes of the whole simulation substrate: every
#: kernel, gate builder and buffer allocation uses these two constants,
#: so no kernel silently upcasts or downcasts.
COMPLEX_DTYPE = np.complex128
REAL_DTYPE = np.float64

# --------------------------------------------------------------------------
# Fixed gates
# --------------------------------------------------------------------------

I2 = np.eye(2, dtype=COMPLEX_DTYPE)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=COMPLEX_DTYPE)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=COMPLEX_DTYPE)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=COMPLEX_DTYPE)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=COMPLEX_DTYPE) / np.sqrt(2.0)

S_GATE = np.array([[1, 0], [0, 1j]], dtype=COMPLEX_DTYPE)
T_GATE = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=COMPLEX_DTYPE)

#: CNOT in (control, target) ordering: basis |c t>.
CNOT = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=COMPLEX_DTYPE,
)

CZ = np.diag([1, 1, 1, -1]).astype(COMPLEX_DTYPE)

SWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=COMPLEX_DTYPE,
)

# --------------------------------------------------------------------------
# Parametrized single-qubit gates
# --------------------------------------------------------------------------


def _as_array(theta) -> np.ndarray:
    """Promote an angle (scalar or array) to a float64 ndarray."""
    arr = np.asarray(theta, dtype=REAL_DTYPE)
    if arr.ndim > 1:
        raise GateError(
            f"gate angles must be scalars or 1-D batches, got shape {arr.shape}"
        )
    return arr


def _assemble(m00, m01, m10, m11) -> np.ndarray:
    """Stack four (possibly batched) entries into (..., 2, 2) matrices."""
    m00, m01, m10, m11 = np.broadcast_arrays(m00, m01, m10, m11)
    out = np.empty(m00.shape + (2, 2), dtype=COMPLEX_DTYPE)
    out[..., 0, 0] = m00
    out[..., 0, 1] = m01
    out[..., 1, 0] = m10
    out[..., 1, 1] = m11
    return out


def _left_multiply_pauli(pauli: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Compute ``-i/2 * pauli @ mats`` supporting batched ``mats``."""
    return -0.5j * np.einsum("ij,...jk->...ik", pauli, mats)


def rx(theta, deriv: bool = False):
    """Rotation about X: ``exp(-i theta X / 2)``.  With ``deriv=True``,
    ``(matrix, derivs)``: ``derivs[0]`` is :func:`rx_deriv`'s result."""
    t = _as_array(theta) / 2.0
    c, s = np.cos(t), np.sin(t)
    mat = _assemble(c, -1j * s, -1j * s, c)
    return (mat, _left_multiply_pauli(PAULI_X, mat)[None]) if deriv else mat


def ry(theta, deriv: bool = False):
    """Rotation about Y: ``exp(-i theta Y / 2)``; ``deriv`` as in
    :func:`rx`."""
    t = _as_array(theta) / 2.0
    c, s = np.cos(t), np.sin(t)
    mat = _assemble(c + 0j, -s + 0j, s + 0j, c + 0j)
    return (mat, _left_multiply_pauli(PAULI_Y, mat)[None]) if deriv else mat


def rz(theta, deriv: bool = False):
    """Rotation about Z: ``exp(-i theta Z / 2)``; ``deriv`` as in
    :func:`rx`."""
    t = _as_array(theta) / 2.0
    phase = np.exp(-1j * t)
    zeros = np.zeros_like(phase)
    mat = _assemble(phase, zeros, zeros, np.conj(phase))
    return (mat, _left_multiply_pauli(PAULI_Z, mat)[None]) if deriv else mat


def first_column(name: str, theta) -> np.ndarray:
    """``R(theta)|0>`` for ``name`` in ``RX``/``RY``/``RZ``: column 0 of
    the matrix builder's result, entry for entry, shaped ``theta.shape
    + (2,)``, without the work of the second column."""
    t = _as_array(theta) / 2.0
    out = np.empty(t.shape + (2,), dtype=COMPLEX_DTYPE)
    if name == "RZ":
        out[..., 0] = np.exp(-1j * t)
        out[..., 1] = 0.0
        return out
    if name not in ("RX", "RY"):
        raise GateError(f"first_column serves RX/RY/RZ, got {name!r}")
    out[..., 0] = np.cos(t)
    s = np.sin(t)
    out[..., 1] = -1j * s if name == "RX" else s + 0j
    return out


def phase_shift(theta) -> np.ndarray:
    """Diagonal phase gate ``diag(1, exp(i theta))``."""
    t = _as_array(theta)
    ones = np.ones_like(t, dtype=COMPLEX_DTYPE)
    zeros = np.zeros_like(ones)
    return _assemble(ones, zeros, zeros, np.exp(1j * t))


#: Signs of the four entry phases of :func:`rot`, ``exp(-i (p + o))``,
#: ``exp(i (p - o))``, ``exp(-i (p - o))`` and ``exp(i (p + o))``, in
#: row-major entry order.
_ROT_PHASES = np.array([-1j, 1j, -1j, 1j])
#: Per-entry factors taking ``h * cos`` or ``h * sin`` (``h`` half an
#: entry phase) to the entries of ``d/dphi``, ``d/dtheta``, ``d/domega``.
_ROT_DPHI = np.array([-1j, -1j, -1j, 1j])
_ROT_DTHETA = np.array([-1.0, -1.0, 1.0, -1.0])
_ROT_DOMEGA = np.array([-1j, 1j, 1j, 1j])


def _rot_trig(phi, theta, omega) -> tuple:
    """The one trig pass behind :func:`rot` and its derivatives: the
    four entry phases, and the ``cos(theta/2)``/``sin(theta/2)`` factor
    each entry takes (``cs``) and the one its ``d/dtheta`` takes
    (``sc``), stacked entry-first in row-major entry order."""
    p = _as_array(phi) / 2.0
    t = _as_array(theta) / 2.0
    o = _as_array(omega) / 2.0
    if not p.shape == t.shape == o.shape:
        p, t, o = np.broadcast_arrays(p, t, o)
    plus, minus = p + o, p - o
    signs = _ROT_PHASES.reshape((4,) + (1,) * plus.ndim)
    phases = np.exp(signs * np.array((plus, minus, minus, plus)))
    ct, st = np.cos(t), np.sin(t)
    return phases, np.array((ct, st, st, ct)), np.array((st, ct, ct, st))


def _entry_last(entries: np.ndarray, axis: int) -> np.ndarray:
    """Entries stacked along ``axis`` (row-major, four of them) as
    contiguous ``(..., 2, 2)`` matrices; ``axis`` is the last but one
    axis or the last (an unbatched gate)."""
    moved = np.ascontiguousarray(entries.swapaxes(axis, -1))
    return moved.reshape(moved.shape[:-1] + (2, 2))


def rot(phi, theta, omega, deriv: bool = False):
    """PennyLane's general single-qubit rotation.

    ``Rot(phi, theta, omega) = RZ(omega) @ RY(theta) @ RZ(phi)``.  With
    ``deriv=True``, ``(matrix, derivs)``: ``derivs`` stacks
    :func:`rot_deriv`'s three partials, from the same trig pass.
    """
    phases, cs, sc = _rot_trig(phi, theta, omega)
    entries = phases * cs
    # Entry 01 is -exp(i (p - o)) sin(theta/2); negating the product
    # instead of the phase gives the same bits.
    np.negative(entries[1:2], out=entries[1:2])
    mat = _entry_last(entries, 0)
    return (mat, _rot_partials(phases, cs, sc)) if deriv else mat


# --------------------------------------------------------------------------
# Controlled rotations (control = first wire, |1> applies the rotation)
# --------------------------------------------------------------------------


def _controlled_rotation(mats: np.ndarray) -> np.ndarray:
    """Embed (possibly batched) 2x2 rotations into controlled 4x4 form."""
    shape = mats.shape[:-2] + (4, 4)
    out = np.zeros(shape, dtype=COMPLEX_DTYPE)
    out[..., 0, 0] = 1.0
    out[..., 1, 1] = 1.0
    out[..., 2:, 2:] = mats
    return out


def crx(theta) -> np.ndarray:
    """Controlled RX, basis ``|control target>``."""
    return _controlled_rotation(rx(theta))


def cry(theta) -> np.ndarray:
    """Controlled RY."""
    return _controlled_rotation(ry(theta))


def crz(theta) -> np.ndarray:
    """Controlled RZ."""
    return _controlled_rotation(rz(theta))


# --------------------------------------------------------------------------
# Analytic derivatives (for adjoint differentiation)
# --------------------------------------------------------------------------


def rx_deriv(theta) -> np.ndarray:
    """``d RX / d theta`` (shape matches :func:`rx`)."""
    return rx(theta, deriv=True)[1][0]


def ry_deriv(theta) -> np.ndarray:
    """``d RY / d theta``."""
    return ry(theta, deriv=True)[1][0]


def rz_deriv(theta) -> np.ndarray:
    """``d RZ / d theta``."""
    return rz(theta, deriv=True)[1][0]


def rot_deriv(phi, theta, omega) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partial derivatives of :func:`rot` w.r.t. its three angles.

    Uses ``Rot = RZ(omega) RY(theta) RZ(phi)`` and the generator identities:

    * ``d/dphi   = RZ(omega) RY(theta) RZ(phi) (-i Z / 2)``  (Z commutes
      with RZ, so the generator may sit on either side of ``RZ(phi)``),
    * ``d/dtheta = RZ(omega) (-i Y / 2) RY(theta) RZ(phi)``,
    * ``d/domega = (-i Z / 2) Rot``.

    With the entries of :func:`rot` written as phases times
    ``cos(theta/2)``/``sin(theta/2)``, each identity only rescales
    entries (``Z`` is diagonal, and ``d/dtheta`` swaps the cosine and
    sine factors), so all three derivatives come from one trig pass.
    """
    d_phi, d_theta, d_omega = _rot_partials(*_rot_trig(phi, theta, omega))
    return d_phi, d_theta, d_omega


def _rot_partials(phases, cs, sc) -> np.ndarray:
    """The ``(3, ..., 2, 2)`` stack of :func:`rot_deriv`'s partials from
    :func:`_rot_trig`'s values: with ``h`` half an entry's phase, each
    partial's entry is ``h * cos`` or ``h * sin`` times ``+-1`` or
    ``+-i``, both exact."""
    half = 0.5 * phases
    by_cs, by_sc = half * cs, half * sc
    shape = (4,) + (1,) * (phases.ndim - 1)
    out = np.empty((3,) + phases.shape, dtype=COMPLEX_DTYPE)
    np.multiply(by_cs, _ROT_DPHI.reshape(shape), out=out[0])
    np.multiply(by_sc, _ROT_DTHETA.reshape(shape), out=out[1])
    np.multiply(by_cs, _ROT_DOMEGA.reshape(shape), out=out[2])
    return _entry_last(out, 1)


# --------------------------------------------------------------------------
# Utilities
# --------------------------------------------------------------------------


def controlled(mat: np.ndarray) -> np.ndarray:
    """Lift a single-qubit gate to its controlled two-qubit version.

    The control is the first wire: ``|0>`` leaves the target alone,
    ``|1>`` applies ``mat``.
    """
    if mat.shape != (2, 2):
        raise GateError(f"controlled() expects a 2x2 matrix, got {mat.shape}")
    out = np.eye(4, dtype=COMPLEX_DTYPE)
    out[2:, 2:] = mat
    return out


def is_unitary(mat: np.ndarray, atol: float = 1e-10) -> bool:
    """Check ``mat @ mat^dagger == I`` within ``atol``."""
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        return False
    ident = np.eye(mat.shape[0])
    return bool(np.allclose(mat @ mat.conj().T, ident, atol=atol))

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
``dU/dt = -i/2 * P @ U``.
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


def rx(theta) -> np.ndarray:
    """Rotation about X: ``exp(-i theta X / 2)``."""
    t = _as_array(theta) / 2.0
    c, s = np.cos(t), np.sin(t)
    return _assemble(c, -1j * s, -1j * s, c)


def ry(theta) -> np.ndarray:
    """Rotation about Y: ``exp(-i theta Y / 2)``."""
    t = _as_array(theta) / 2.0
    c, s = np.cos(t), np.sin(t)
    return _assemble(c + 0j, -s + 0j, s + 0j, c + 0j)


def rz(theta) -> np.ndarray:
    """Rotation about Z: ``exp(-i theta Z / 2)``."""
    t = _as_array(theta) / 2.0
    phase = np.exp(-1j * t)
    zeros = np.zeros_like(phase)
    return _assemble(phase, zeros, zeros, np.conj(phase))


def phase_shift(theta) -> np.ndarray:
    """Diagonal phase gate ``diag(1, exp(i theta))``."""
    t = _as_array(theta)
    ones = np.ones_like(t, dtype=COMPLEX_DTYPE)
    zeros = np.zeros_like(ones)
    return _assemble(ones, zeros, zeros, np.exp(1j * t))


def rot(phi, theta, omega) -> np.ndarray:
    """PennyLane's general single-qubit rotation.

    ``Rot(phi, theta, omega) = RZ(omega) @ RY(theta) @ RZ(phi)``.
    """
    p = _as_array(phi) / 2.0
    t = _as_array(theta) / 2.0
    o = _as_array(omega) / 2.0
    p, t, o = np.broadcast_arrays(p, t, o)
    ct, st = np.cos(t), np.sin(t)
    return _assemble(
        np.exp(-1j * (p + o)) * ct,
        -np.exp(1j * (p - o)) * st,
        np.exp(-1j * (p - o)) * st,
        np.exp(1j * (p + o)) * ct,
    )


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


def _left_multiply_pauli(pauli: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Compute ``-i/2 * pauli @ mats`` supporting batched ``mats``."""
    return -0.5j * np.einsum("ij,...jk->...ik", pauli, mats)


def rx_deriv(theta) -> np.ndarray:
    """``d RX / d theta`` (shape matches :func:`rx`)."""
    return _left_multiply_pauli(PAULI_X, rx(theta))


def ry_deriv(theta) -> np.ndarray:
    """``d RY / d theta``."""
    return _left_multiply_pauli(PAULI_Y, ry(theta))


def rz_deriv(theta) -> np.ndarray:
    """``d RZ / d theta``."""
    return _left_multiply_pauli(PAULI_Z, rz(theta))


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
    p = _as_array(phi) / 2.0
    t = _as_array(theta) / 2.0
    o = _as_array(omega) / 2.0
    p, t, o = np.broadcast_arrays(p, t, o)
    ct, st = np.cos(t), np.sin(t)
    h00 = 0.5 * np.exp(-1j * (p + o))
    h01 = 0.5 * np.exp(1j * (p - o))
    h10 = 0.5 * np.exp(-1j * (p - o))
    h11 = 0.5 * np.exp(1j * (p + o))
    out = np.empty((3,) + ct.shape + (2, 2), dtype=COMPLEX_DTYPE)
    d_phi, d_theta, d_omega = out
    d_phi[..., 0, 0] = d_omega[..., 0, 0] = -1j * h00 * ct
    d_phi[..., 1, 1] = d_omega[..., 1, 1] = 1j * h11 * ct
    d_phi[..., 0, 1] = -1j * h01 * st
    d_phi[..., 1, 0] = -1j * h10 * st
    d_omega[..., 0, 1] = -d_phi[..., 0, 1]
    d_omega[..., 1, 0] = -d_phi[..., 1, 0]
    d_theta[..., 0, 0] = -h00 * st
    d_theta[..., 0, 1] = -h01 * ct
    d_theta[..., 1, 0] = h10 * ct
    d_theta[..., 1, 1] = -h11 * st
    return d_phi, d_theta, d_omega


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

"""Unit tests for gate matrices and their derivatives."""

import numpy as np
import pytest

from repro.exceptions import GateError
from repro.quantum import gates


class TestFixedGates:
    def test_paulis_are_unitary_and_hermitian(self):
        for mat in (gates.PAULI_X, gates.PAULI_Y, gates.PAULI_Z):
            assert gates.is_unitary(mat)
            assert np.allclose(mat, mat.conj().T)

    def test_pauli_algebra(self):
        # X Y = i Z and cyclic permutations.
        assert np.allclose(
            gates.PAULI_X @ gates.PAULI_Y, 1j * gates.PAULI_Z
        )
        assert np.allclose(
            gates.PAULI_Y @ gates.PAULI_Z, 1j * gates.PAULI_X
        )
        assert np.allclose(
            gates.PAULI_Z @ gates.PAULI_X, 1j * gates.PAULI_Y
        )

    def test_hadamard_squares_to_identity(self):
        assert np.allclose(gates.HADAMARD @ gates.HADAMARD, np.eye(2))

    def test_s_and_t(self):
        assert np.allclose(gates.S_GATE @ gates.S_GATE, gates.PAULI_Z)
        assert np.allclose(gates.T_GATE @ gates.T_GATE, gates.S_GATE)

    def test_cnot_is_permutation(self):
        assert gates.is_unitary(gates.CNOT)
        # |10> -> |11>, |11> -> |10>
        assert gates.CNOT[3, 2] == 1 and gates.CNOT[2, 3] == 1

    def test_swap(self):
        # SWAP = CNOT(0,1) CNOT(1,0) CNOT(0,1); check action on |01>.
        vec = np.zeros(4)
        vec[1] = 1.0
        assert np.allclose(gates.SWAP @ vec, [0, 0, 1, 0])


class TestRotations:
    @pytest.mark.parametrize("builder", [gates.rx, gates.ry, gates.rz])
    def test_zero_angle_is_identity(self, builder):
        assert np.allclose(builder(0.0), np.eye(2))

    @pytest.mark.parametrize(
        "builder,pauli",
        [
            (gates.rx, gates.PAULI_X),
            (gates.ry, gates.PAULI_Y),
            (gates.rz, gates.PAULI_Z),
        ],
    )
    def test_pi_rotation_is_minus_i_pauli(self, builder, pauli):
        assert np.allclose(builder(np.pi), -1j * pauli, atol=1e-12)

    @pytest.mark.parametrize("builder", [gates.rx, gates.ry, gates.rz])
    def test_unitarity_random_angles(self, builder):
        rng = np.random.default_rng(0)
        for theta in rng.uniform(-10, 10, size=5):
            assert gates.is_unitary(builder(theta))

    @pytest.mark.parametrize("builder", [gates.rx, gates.ry, gates.rz])
    def test_additivity(self, builder):
        # R(a) R(b) == R(a + b) for rotations about a fixed axis.
        a, b = 0.7, -1.3
        assert np.allclose(builder(a) @ builder(b), builder(a + b))

    def test_batched_angles_shape_and_content(self):
        thetas = np.array([0.1, 0.2, 0.3])
        batch = gates.ry(thetas)
        assert batch.shape == (3, 2, 2)
        for i, t in enumerate(thetas):
            assert np.allclose(batch[i], gates.ry(t))

    def test_2d_angles_rejected(self):
        with pytest.raises(GateError):
            gates.rx(np.zeros((2, 2)))

    def test_phase_shift(self):
        assert np.allclose(
            gates.phase_shift(np.pi), np.diag([1, -1]), atol=1e-12
        )


class TestRot:
    def test_rot_composition(self):
        phi, theta, omega = 0.3, 1.1, -0.7
        expected = gates.rz(omega) @ gates.ry(theta) @ gates.rz(phi)
        assert np.allclose(gates.rot(phi, theta, omega), expected)

    def test_rot_unitary(self):
        rng = np.random.default_rng(1)
        for angles in rng.uniform(-5, 5, size=(5, 3)):
            assert gates.is_unitary(gates.rot(*angles))

    def test_rot_batched(self):
        phis = np.array([0.1, 0.5])
        thetas = np.array([0.2, 0.6])
        omegas = np.array([0.3, 0.7])
        batch = gates.rot(phis, thetas, omegas)
        assert batch.shape == (2, 2, 2)
        assert np.allclose(batch[1], gates.rot(0.5, 0.6, 0.7))


class TestDerivatives:
    @pytest.mark.parametrize(
        "builder,deriv",
        [
            (gates.rx, gates.rx_deriv),
            (gates.ry, gates.ry_deriv),
            (gates.rz, gates.rz_deriv),
        ],
    )
    def test_against_finite_differences(self, builder, deriv):
        eps = 1e-7
        for theta in (-2.0, 0.0, 0.9):
            numeric = (builder(theta + eps) - builder(theta - eps)) / (2 * eps)
            assert np.allclose(deriv(theta), numeric, atol=1e-6)

    def test_rot_derivs_against_finite_differences(self):
        eps = 1e-7
        angles = np.array([0.4, -1.2, 2.2])
        analytic = gates.rot_deriv(*angles)
        for k in range(3):
            plus = angles.copy()
            minus = angles.copy()
            plus[k] += eps
            minus[k] -= eps
            numeric = (gates.rot(*plus) - gates.rot(*minus)) / (2 * eps)
            assert np.allclose(analytic[k], numeric, atol=1e-6), f"angle {k}"

    def test_batched_derivs(self):
        thetas = np.array([0.3, 1.7])
        batch = gates.ry_deriv(thetas)
        assert batch.shape == (2, 2, 2)
        assert np.allclose(batch[0], gates.ry_deriv(0.3))


class TestSharedTrigPass:
    """``deriv=True`` returns a builder's matrices and derivatives from
    one trig pass, bit for bit what the separate builders return, and
    :func:`gates.first_column` is column 0 of the matrix, entry for
    entry."""

    ANGLES = np.array([-2.0, -0.0, 0.0, 0.3, 1.7, np.pi])

    @pytest.mark.parametrize(
        "builder,deriv,pauli",
        [
            (gates.rx, gates.rx_deriv, gates.PAULI_X),
            (gates.ry, gates.ry_deriv, gates.PAULI_Y),
            (gates.rz, gates.rz_deriv, gates.PAULI_Z),
        ],
    )
    def test_single_axis(self, builder, deriv, pauli):
        mat, derivs = builder(self.ANGLES, deriv=True)
        assert np.array_equal(mat, builder(self.ANGLES))
        assert derivs.shape == (1,) + mat.shape
        assert np.array_equal(derivs[0], deriv(self.ANGLES))
        generator = -0.5j * np.einsum("ij,bjk->bik", pauli, mat)
        assert np.array_equal(derivs[0], generator)

    @staticmethod
    def _rot_entries(phi, theta, omega):
        """Rot's matrix and partials entry by entry, each entry the
        phase-times-trig product written out (the reference the
        vectorized builder must reproduce bit for bit)."""
        p, t, o = (
            np.asarray(a, dtype=float) / 2.0 for a in (phi, theta, omega)
        )
        ct, st = np.cos(t), np.sin(t)
        e00, e01 = np.exp(-1j * (p + o)), np.exp(1j * (p - o))
        e10, e11 = np.exp(-1j * (p - o)), np.exp(1j * (p + o))
        h00, h01, h10, h11 = 0.5 * e00, 0.5 * e01, 0.5 * e10, 0.5 * e11
        mat = [[e00 * ct, -e01 * st], [e10 * st, e11 * ct]]
        d_phi = [
            [-1j * h00 * ct, -1j * h01 * st],
            [-1j * h10 * st, 1j * h11 * ct],
        ]
        d_theta = [[-h00 * st, -h01 * ct], [h10 * ct, -h11 * st]]
        d_omega = [
            [-1j * h00 * ct, 1j * h01 * st],
            [1j * h10 * st, 1j * h11 * ct],
        ]
        return mat, (d_phi, d_theta, d_omega)

    def test_rot(self):
        rng = np.random.default_rng(3)
        phi, theta, omega = rng.uniform(-np.pi, np.pi, (3, 7))
        phi[0], theta[1], omega[2] = 0.0, -0.0, np.pi
        mat, derivs = gates.rot(phi, theta, omega, deriv=True)
        assert np.array_equal(mat, gates.rot(phi, theta, omega))
        assert derivs.shape == (3, 7, 2, 2)
        for got, want in zip(derivs, gates.rot_deriv(phi, theta, omega)):
            assert np.array_equal(got, want)
        want_mat, want_derivs = self._rot_entries(phi, theta, omega)
        for a in range(2):
            for c in range(2):
                assert np.array_equal(mat[:, a, c], want_mat[a][c])
                for k in range(3):
                    want = want_derivs[k][a][c]
                    assert np.array_equal(derivs[k, :, a, c], want)

    def test_rot_scalar(self):
        mat, derivs = gates.rot(0.1, -0.4, 2.2, deriv=True)
        assert mat.shape == (2, 2) and derivs.shape == (3, 2, 2)
        want_mat, want_derivs = self._rot_entries(0.1, -0.4, 2.2)
        assert np.array_equal(mat, np.array(want_mat))
        assert np.array_equal(derivs, np.array(want_derivs))

    @pytest.mark.parametrize("name", ["RX", "RY", "RZ"])
    def test_first_column(self, name):
        builder = {"RX": gates.rx, "RY": gates.ry, "RZ": gates.rz}[name]
        column = gates.first_column(name, self.ANGLES)
        want = builder(self.ANGLES)[..., :, 0]
        assert column.shape == want.shape
        assert column.tobytes() == want.tobytes()

    def test_first_column_rejects_other_gates(self):
        with pytest.raises(GateError):
            gates.first_column("Rot", 0.3)


class TestControlled:
    def test_controlled_x_is_cnot(self):
        assert np.allclose(gates.controlled(gates.PAULI_X), gates.CNOT)

    def test_controlled_z_is_cz(self):
        assert np.allclose(gates.controlled(gates.PAULI_Z), gates.CZ)

    def test_controlled_rejects_wrong_shape(self):
        with pytest.raises(GateError):
            gates.controlled(np.eye(4))


class TestIsUnitary:
    def test_rejects_non_square(self):
        assert not gates.is_unitary(np.ones((2, 3)))

    def test_rejects_non_unitary(self):
        assert not gates.is_unitary(2 * np.eye(2))

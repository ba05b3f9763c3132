"""Unit tests for the Pauli algebra helpers."""

import numpy as np
import pytest

from adiasim.operators import (
    CHANNEL_OPERATORS,
    I2,
    PAULI_BASIS,
    SIGMA_MINUS,
    SIGMA_PLUS,
    X,
    Y,
    Z,
    embed_1q,
    pauli_2q,
    pauli_vector,
)
from adiasim.tomography import CORRELATOR_LABELS

N_RANDOM = 120
ALL_1Q = ("I", "X", "Y", "Z")
ALL_2Q = tuple(a + b for a in ALL_1Q for b in ALL_1Q)


def random_hermitian(rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return (m + m.conj().T) / 2.0


def charpoly_coefficients(m: np.ndarray) -> np.ndarray:
    """Characteristic polynomial of a 4x4 matrix via the Faddeev-LeVerrier
    recursion (matrix products and traces only, no eigensolver)."""
    n = m.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    mk = np.zeros_like(m)
    for k in range(1, n + 1):
        mk = m @ (mk + coeffs[k - 1] * np.eye(n))
        coeffs[k] = -np.trace(mk) / k
    return coeffs


class TestSingleQubit:
    def test_sign_convention(self):
        """|0> is the -1 eigenstate of Z and |1> the +1 eigenstate."""
        e0 = np.array([1.0, 0.0], dtype=complex)
        e1 = np.array([0.0, 1.0], dtype=complex)
        assert np.allclose(Z @ e0, -e0)
        assert np.allclose(Z @ e1, +e1)

    def test_x_and_y_standard_forms(self):
        assert np.allclose(X, [[0, 1], [1, 0]])
        assert np.allclose(Y, [[0, -1j], [1j, 0]])

    def test_lowering_and_raising(self):
        """sigma- maps the excited (+Z) state |1> to |0> and kills |0>."""
        e0 = np.array([1.0, 0.0], dtype=complex)
        e1 = np.array([0.0, 1.0], dtype=complex)
        assert np.allclose(SIGMA_MINUS @ e1, e0)
        assert np.allclose(SIGMA_MINUS @ e0, 0.0)
        assert np.allclose(SIGMA_PLUS @ e0, e1)
        assert np.allclose(SIGMA_PLUS @ SIGMA_MINUS - SIGMA_MINUS @ SIGMA_PLUS, Z)

    @pytest.mark.parametrize("label", ALL_1Q)
    def test_involution(self, label):
        p = dict(zip(ALL_1Q, (I2, X, Y, Z)))[label]
        assert np.allclose(p @ p, I2)

    def test_unknown_label(self):
        for label in ("QI", "IQ", "XYZ", "X", "xi"):
            with pytest.raises(ValueError, match="unknown two-qubit Pauli label"):
                pauli_2q(label)


class TestTwoQubit:
    def test_identity(self):
        assert np.allclose(pauli_2q("II"), np.eye(4))

    @pytest.mark.parametrize("label", ALL_2Q)
    def test_squares_to_identity(self, label):
        p = pauli_2q(label)
        assert np.allclose(p @ p, np.eye(4))

    def test_first_letter_acts_on_qubit_one(self):
        assert np.allclose(pauli_2q("ZI"), np.kron(Z, I2))
        assert np.allclose(pauli_2q("IZ"), np.kron(I2, Z))
        assert np.allclose(embed_1q(X, 1), pauli_2q("XI"))
        assert np.allclose(embed_1q(Y, 2), pauli_2q("IY"))

    def test_channel_operators_are_the_embedded_channels(self):
        """Row q-1 holds sigma-, sigma+ and Z on qubit q, bit for bit."""
        assert CHANNEL_OPERATORS.shape == (2, 3, 4, 4)
        for q in (1, 2):
            for op, embedded in zip((SIGMA_MINUS, SIGMA_PLUS, Z), CHANNEL_OPERATORS[q - 1]):
                assert np.array_equal(embedded, embed_1q(op, q))

    def test_embed_rejects_bad_qubit_and_shape(self):
        for qubit in (0, 3):
            with pytest.raises(ValueError, match="qubit index must be 1 or 2"):
                embed_1q(X, qubit)
        with pytest.raises(ValueError, match="2x2 operator"):
            embed_1q(np.eye(4), 1)

    def test_exchange_action_on_01(self):
        """(XX + YY)|01> = 2|10>, checked against explicitly built matrices."""
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        y = np.array([[0, -1j], [1j, 0]], dtype=complex)
        expected = np.kron(x, x) + np.kron(y, y)
        op = pauli_2q("XX") + pauli_2q("YY")
        assert np.allclose(op, expected)
        ket01 = np.array([0, 1, 0, 0], dtype=complex)
        ket10 = np.array([0, 0, 1, 0], dtype=complex)
        assert np.allclose(op @ ket01, 2.0 * ket10)
        assert np.allclose(op @ ket10, 2.0 * ket01)

    @pytest.mark.parametrize("label", [lbl for lbl in ALL_2Q if lbl != "II"])
    def test_traceless(self, label):
        assert abs(np.trace(pauli_2q(label))) < 1e-12

    def test_trace_of_identity(self):
        assert np.trace(pauli_2q("II")).real == pytest.approx(4.0)

    def test_hilbert_schmidt_orthogonality(self):
        """Tr(Pa Pb) = 4 delta_ab over the full 16-element product basis."""
        for a in ALL_2Q:
            for b in ALL_2Q:
                val = np.trace(pauli_2q(a) @ pauli_2q(b))
                expected = 4.0 if a == b else 0.0
                assert abs(val - expected) < 1e-12, (a, b)

    @pytest.mark.parametrize("label", [lbl for lbl in ALL_2Q if lbl != "II"])
    def test_pauli_eigenvalues(self, label):
        vals = np.linalg.eigvalsh(pauli_2q(label))
        assert np.allclose(sorted(vals), [-1.0, -1.0, 1.0, 1.0])

    def test_standard_label_tuple(self):
        """The recorded correlators, in file order, are Hermitian Paulis."""
        assert CORRELATOR_LABELS == ("XI", "IX", "YI", "IY", "ZI", "IZ", "XX", "YY")
        for lbl in CORRELATOR_LABELS:
            p = pauli_2q(lbl)
            assert np.allclose(p, p.conj().T)


class TestPauliVector:
    """r_k = <psi|P_k|psi> over PAULI_BASIS, checked against its definition."""

    # 4097 states span more than one block of any size up to 4096.
    @pytest.mark.parametrize("shape", [(4,), (7, 4), (3, 5, 4), (4097, 4)],
                             ids=["one", "stack", "nested", "blocks"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_the_definition(self, shape, dtype):
        rng = np.random.default_rng(len(shape) + shape[0])
        psi = rng.normal(size=shape)
        if dtype is complex:
            psi = psi + 1j * rng.normal(size=shape)
        psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
        r = pauli_vector(psi)
        assert r.shape == shape[:-1] + (16,) and r.dtype == np.float64
        definition = np.array([[np.vdot(state, p @ state) for p in PAULI_BASIS]
                               for state in psi.reshape(-1, 4)])
        assert np.max(np.abs(definition.imag)) <= 1e-15
        assert np.max(np.abs(r.reshape(-1, 16) - definition.real)) <= 1e-15
        # A state's vector does not depend on the stack it is read in.
        assert np.array_equal(pauli_vector(psi.reshape(-1, 4)[-1]), r.reshape(-1, 16)[-1])


class TestEigendecomposition:
    """The 4x4 Hermitian eigensolver contract (numpy.linalg.eigh backend)."""

    def test_diagonal_input(self):
        m = np.diag([-2.0, -0.5, 0.5, 2.0]).astype(complex)
        assert np.allclose(np.linalg.eigvalsh(m), [-2.0, -0.5, 0.5, 2.0])

    def test_zeeman_sum_is_diagonal(self):
        """(z1 ZI + z2 IZ)/2 with z1=2.5, z2=1.5 has spectrum {-2,-0.5,0.5,2}
        and |00> as its ground state under the chosen sign convention."""
        m = 0.5 * (2.5 * pauli_2q("ZI") + 1.5 * pauli_2q("IZ"))
        assert np.allclose(m, np.diag(np.diag(m)))
        vals, vecs = np.linalg.eigh(m)
        assert np.allclose(vals, [-2.0, -0.5, 0.5, 2.0])
        assert abs(vecs[0, 0]) == pytest.approx(1.0)

    def test_reconstruction_property(self):
        rng = np.random.default_rng(7)
        for _ in range(N_RANDOM):
            m = random_hermitian(rng)
            vals, vecs = np.linalg.eigh(m)
            scale = max(np.linalg.norm(m), 1e-30)
            assert np.all(np.diff(vals) >= -1e-12)
            assert np.linalg.norm(m - vecs @ np.diag(vals) @ vecs.conj().T) <= 1e-9 * scale
            assert np.linalg.norm(vecs @ vecs.conj().T - np.eye(4)) <= 1e-9
            for k in range(4):
                assert np.linalg.norm(m @ vecs[:, k] - vals[k] * vecs[:, k]) <= 1e-9 * scale

    def test_eigenvalue_sum_equals_trace(self):
        rng = np.random.default_rng(8)
        for _ in range(N_RANDOM):
            m = random_hermitian(rng)
            assert np.sum(np.linalg.eigvalsh(m)) == pytest.approx(
                np.trace(m).real, abs=1e-10
            )

    def test_matches_characteristic_polynomial_roots(self):
        """Eigenvalues agree with quartic roots found from the characteristic
        polynomial (independent of the Hermitian eigensolver)."""
        rng = np.random.default_rng(9)
        for _ in range(N_RANDOM):
            m = random_hermitian(rng)
            vals = np.linalg.eigvalsh(m)
            roots = np.sort(np.roots(charpoly_coefficients(m)).real)
            assert np.allclose(vals, roots, atol=1e-8)

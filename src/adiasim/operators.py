"""Pauli operators, two-qubit embeddings and the Pauli vectors of states.

Sign convention used throughout the package: the computational basis is
ordered ``|00>, |01>, |10>, |11>`` and the Z operator is

    Z = [[-1, 0], [0, +1]]

so that ``Z|0> = -|0>`` and ``Z|1> = +|1>``.  With this choice a positive
longitudinal field ``(z/2) Z`` makes ``|1>`` the excited state, and the
ground state of a two-qubit longitudinal Hamiltonian is ``|00>``.
X and Y keep their standard matrix forms, hence

    sigma_minus = |0><1| = [[0, 1], [0, 0]]

lowers the qubit toward ``|0>``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "I2",
    "X",
    "Y",
    "Z",
    "SIGMA_MINUS",
    "SIGMA_PLUS",
    "PAULI_BASIS_LABELS",
    "PAULI_BASIS",
    "pauli_2q",
    "embed_1q",
    "CHANNEL_OPERATORS",
    "pauli_vector",
]

I2 = np.eye(2, dtype=complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)

# Lowering operator toward |0>: sigma_minus |1> = |0>.
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.conj().T

_PAULI_1Q = {"I": I2, "X": X, "Y": Y, "Z": Z}

def pauli_2q(label: str) -> np.ndarray:
    """Return the two-qubit Pauli product for a two-letter ``label``.

    The first letter acts on qubit 1 (left tensor factor), the second on
    qubit 2, e.g. ``pauli_2q("ZI") = kron(Z, I)``.  Each letter is one of
    I, X, Y and Z.
    """
    if len(label) != 2 or not set(label) <= set(_PAULI_1Q):
        raise ValueError(f"unknown two-qubit Pauli label {label!r}")
    return np.kron(_PAULI_1Q[label[0]], _PAULI_1Q[label[1]])


# The 16 two-qubit Paulis, II first: the basis of a Pauli vector, r_k = <P_k>.
PAULI_BASIS_LABELS = tuple(a + b for a in "IXYZ" for b in "IXYZ")
PAULI_BASIS = np.stack([pauli_2q(label) for label in PAULI_BASIS_LABELS])
# <psi|P_k|psi> = sum_ij P_k[i, j] rho_ij with rho_ij = conj(psi_i) psi_j is
# real: the 16 (Re, Im) pairs of rho's entries times this (32, 16) matrix.
# Row-major, for which OpenBLAS reads a one-state stack as a row of a longer one.
_READ = np.stack([PAULI_BASIS.real, -PAULI_BASIS.imag], axis=-1).reshape(16, 32).T.copy()
# States converted at a time by pauli_vector, which bounds its working
# memory: a (512, 32) @ (32, 16) product, which OpenBLAS runs on one thread.
_BLOCK_ROWS = 512


def pauli_vector(psi: np.ndarray) -> np.ndarray:
    """The Pauli vectors r_k = <psi|P_k|psi> over PAULI_BASIS of a (..., 4)
    state stack, a real (..., 16) array."""
    psi = np.asarray(psi)
    flat = psi.reshape(-1, 4)
    # Column-major, so that r.T, the (16, n) layout of level weights, is no copy.
    r = np.empty((len(PAULI_BASIS), len(flat))).T
    for k in range(0, len(flat), _BLOCK_ROWS):
        block = flat[k:k + _BLOCK_ROWS]
        rho = np.multiply(block.conj()[:, :, None], block[:, None, :], dtype=complex)
        r[k:k + len(block)] = rho.reshape(len(block), -1).view(float) @ _READ
    return r.reshape(psi.shape[:-1] + (len(PAULI_BASIS),))


def embed_1q(op: np.ndarray, qubit: int) -> np.ndarray:
    """Embed a single-qubit operator into the two-qubit space.

    ``qubit`` is 1-based: 1 means the left tensor factor, 2 the right.
    """
    op = np.asarray(op, dtype=complex)
    if op.shape != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got shape {op.shape}")
    if qubit == 1:
        return np.kron(op, I2)
    if qubit == 2:
        return np.kron(I2, op)
    raise ValueError(f"qubit index must be 1 or 2, got {qubit}")


# The noise channels sigma_minus, sigma_plus and Z embedded on qubit 1 (row
# 0) and on qubit 2 (row 1): a (2, 3, 4, 4) stack.
CHANNEL_OPERATORS = np.stack([[embed_1q(op, q) for op in (SIGMA_MINUS, SIGMA_PLUS, Z)]
                              for q in (1, 2)])

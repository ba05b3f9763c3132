"""Pauli correlators, shot sampling, energy reconstruction, frame rotation.

Whole trajectories are measured as (n, 10) arrays, one row per sample and
one column per entry of ``CORRELATOR_LABELS``: the eight recorded
correlators {XI, IX, YI, IY, ZI, IZ, XX, YY} plus the cross terms XY and
YX, which are needed to rotate two-qubit correlators between drive frames.
They are read from the trajectory's Pauli vectors, which hold every <P>
(``operators.pauli_vector`` gives those of pure states).  Shot count 0
means exact values; in sampled mode one random stream draws every count of
a stack.

The energy estimator deliberately uses only the six sweep terms P in
{ZI, IZ, XI, IX, XX, YY}, each weighted by its coefficient Tr(P H(s))/4 in
the schedule's H(s), excluding the static ZZ term: the estimate
reconstructs the controlled part of the Hamiltonian from measured
correlators.  H(s) = h0 + s*h1 is affine, so the coefficients are
w0 + s*w1, read from the schedule's h0 and h1.
"""

from __future__ import annotations

import numpy as np

from .dynamics import DRIFT_LIMIT
from .operators import PAULI_BASIS, PAULI_BASIS_LABELS, PAULI_LABELS_2Q
from .schedule import ProtocolSchedule, sweep_points

__all__ = ["measure_correlators", "energy_terms", "rotate_correlators", "CorrelatorOutOfRange",
           "CROSS_LABELS", "CORRELATOR_LABELS", "ENERGY_TERMS"]

CROSS_LABELS = ("XY", "YX")
CORRELATOR_LABELS = PAULI_LABELS_2Q + CROSS_LABELS
# Estimator contribution keys, in the order of the Paulis they weigh.
ENERGY_TERMS = ("z1", "z2", "x1", "x2", "xx", "yy")

_INDEX = {label: k for k, label in enumerate(CORRELATOR_LABELS)}
_COLUMNS = [PAULI_BASIS_LABELS.index(label) for label in CORRELATOR_LABELS]
_ENERGY_COLUMNS = [_INDEX[label] for label in ("ZI", "IZ", "XI", "IX", "XX", "YY")]
# (X-like, Y-like) label pairs that mix under a Z rotation of qubit 2.
_ROTATED_PAIRS = (("IX", "IY"), ("XX", "XY"), ("YX", "YY"))


class CorrelatorOutOfRange(ValueError):
    """Raised when an exact correlator lies outside [-1, 1] beyond the drift tolerance."""


def _check_range(values: np.ndarray) -> None:
    """Raise CorrelatorOutOfRange for an exact correlator outside [-1, 1].

    It may exceed the range by the norm drift that the propagators accept
    (about 2*DRIFT_LIMIT); a NaN fails too.
    """
    bad = np.argwhere(~(np.abs(values) <= 1.0 + 3.0 * DRIFT_LIMIT))
    if bad.size:
        row, col = bad[0]
        raise CorrelatorOutOfRange(f"correlator {CORRELATOR_LABELS[col]} = "
                                   f"{values[row, col]} outside [-1, 1] range")


def _sample(exact: np.ndarray, shots: int, seed) -> np.ndarray:
    """Mean of ``shots`` +-1 outcomes per value, all from ``np.random.default_rng(seed)``.

    Each shot is +1 with probability (1 + <P>)/2.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    p_plus = np.clip(0.5 * (1.0 + exact), 0.0, 1.0)
    n_plus = np.random.default_rng(seed).binomial(shots, p_plus)
    return (2.0 * n_plus - shots) / shots


def measure_correlators(r: np.ndarray, shots: int = 0, seed=None) -> np.ndarray:
    """Correlators of an (n, 16) stack of Pauli vectors, an (n, 10) array.

    Columns follow ``CORRELATOR_LABELS``; shots = 0 gives exact values.  In
    sampled mode all n x 10 counts come from one ``binomial`` call on
    ``np.random.default_rng(seed)``, in row-major order.  The exact values
    are range-checked in both modes, before any sampling.
    """
    r = np.asarray(r)
    if r.ndim != 2 or r.shape[1] != len(PAULI_BASIS):
        raise ValueError(f"r must be an (n, 16) stack of Pauli vectors, got shape {r.shape}")
    values = r[:, _COLUMNS]
    _check_range(values)
    return _sample(values, shots, seed) if shots else values


def energy_terms(values: np.ndarray, schedule: ProtocolSchedule, s) -> np.ndarray:
    """The six estimator terms of (n, 10) correlators at n sweep points s, an (n, 6) array.

    Columns follow ``ENERGY_TERMS``; the energy is the row sum.  Raises
    TimeOutOfRange for an s outside [0, 1].
    """
    ops = PAULI_BASIS[_COLUMNS][_ENERGY_COLUMNS]
    w0, w1 = (np.einsum("pij,ji->p", ops, h).real / 4.0 for h in (schedule.h0, schedule.h1))
    return (w0 + sweep_points(s)[:, None] * w1) * values[:, _ENERGY_COLUMNS]


def rotate_correlators(values: np.ndarray, theta) -> np.ndarray:
    """Rotate qubit 2's frame of (n, 10) correlators about Z by ``theta`` (one per row).

    <X>' = cos(theta)<X> + sin(theta)<Y> and <Y>' = -sin(theta)<X> +
    cos(theta)<Y> for qubit 2, the driven qubit of fig1; terms with I or Z on
    qubit 2 are unchanged.
    """
    c, s = np.cos(theta), np.sin(theta)
    rotated = np.array(values, dtype=float)
    for x_lab, y_lab in _ROTATED_PAIRS:
        vx, vy = values[:, _INDEX[x_lab]], values[:, _INDEX[y_lab]]
        rotated[:, _INDEX[x_lab]] = c * vx + s * vy
        rotated[:, _INDEX[y_lab]] = -s * vx + c * vy
    return rotated

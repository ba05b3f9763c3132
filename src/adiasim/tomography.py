"""Pauli correlators, shot sampling, energy reconstruction, frame rotation.

A ``Tomogram`` holds the eight recorded correlators
{XI, IX, YI, IY, ZI, IZ, XX, YY} at one sample time, plus the optional
cross terms XY and YX which are needed to rotate two-qubit correlators
between drive frames.  Shot count 0 means exact expectation values.

Whole trajectories are measured as arrays with one column per entry of
``CORRELATOR_LABELS``; the per-sample functions are written on top of them.
In sampled mode one random stream draws every count of a state stack.

The energy estimator deliberately uses only the six sweep terms P in
{ZI, IZ, XI, IX, XX, YY}, each weighted by its coefficient Tr(P H(s))/4 in
the schedule's H(s), excluding the static ZZ term: the estimate
reconstructs the controlled part of the Hamiltonian from measured
correlators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import BadIndex
from .operators import PAULI_LABELS_2Q, pauli_2q
from .schedule import ProtocolSchedule

__all__ = ["MissingTerm", "Tomogram", "EnergyEstimate", "expectation", "sample_expectation",
           "measure_correlators", "measure_tomogram", "energy_terms", "energy_from_correlators",
           "rotate_correlators", "rotate_frame", "CROSS_LABELS", "CORRELATOR_LABELS", "ENERGY_TERMS"]

CROSS_LABELS = ("XY", "YX")
CORRELATOR_LABELS = PAULI_LABELS_2Q + CROSS_LABELS
# Estimator contribution keys, in the order of the Paulis they weigh.
ENERGY_TERMS = ("z1", "z2", "x1", "x2", "xx", "yy")

_INDEX = {label: k for k, label in enumerate(CORRELATOR_LABELS)}
_OPS = np.stack([pauli_2q(label) for label in CORRELATOR_LABELS])
_ENERGY_COLUMNS = [_INDEX[label] for label in ("ZI", "IZ", "XI", "IX", "XX", "YY")]


class MissingTerm(KeyError):
    """Raised when a tomogram lacks a correlator required by an operation."""


def _noise_floor(shots: int) -> float:
    """How far a correlator may stray beyond its exact value: sampled
    correlators may legitimately sit a few standard errors away."""
    return 1e-9 if shots == 0 else 3.0 / np.sqrt(shots)


def _check_range(labels, values: np.ndarray, shots: int) -> None:
    """Raise ValueError for a correlator (columns: ``labels``) outside [-1, 1]."""
    eps = _noise_floor(shots)
    bad = np.argwhere(np.abs(values) > 1.0 + eps)
    if bad.size:
        label, value = labels[bad[0][-1]], values[tuple(bad[0])]
        raise ValueError(f"correlator {label} = {value} outside [-1, 1] range")


@dataclass(frozen=True)
class Tomogram:
    """Correlator snapshot at one time.

    values must contain all eight standard labels; XY/YX are optional and
    enable exact frame rotation of the two-qubit transverse correlators.
    """

    time: float
    values: dict[str, float]
    shots: int = 0

    def __post_init__(self) -> None:
        missing = [lab for lab in PAULI_LABELS_2Q if lab not in self.values]
        if missing:
            raise MissingTerm(f"tomogram lacks terms {missing}")
        _check_range(list(self.values), np.array(list(self.values.values())), self.shots)

    def __getitem__(self, label: str) -> float:
        try:
            return self.values[label]
        except KeyError:
            raise MissingTerm(f"tomogram lacks term {label!r}") from None

    def get(self, label: str, default: float | None = None) -> float | None:
        return self.values.get(label, default)

    def _row(self) -> np.ndarray:
        """The values as a (1, 10) correlator array; absent cross terms read 0."""
        return np.array([[self.values.get(label, 0.0) for label in CORRELATOR_LABELS]])


def _exact(states: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Real part of <P> for every state of a stack and every operator of ``ops``."""
    states = np.asarray(states, dtype=complex)
    if states.ndim == 2 and states.shape[1] == 4:
        return np.einsum("ni,pij,nj->np", states.conj(), ops, states).real
    if states.ndim == 3 and states.shape[1:] == (4, 4):
        return np.einsum("pij,nji->np", ops, states).real
    raise ValueError(f"states must be an (n, 4) or (n, 4, 4) stack, got {states.shape}")


def _sample(exact: np.ndarray, shots: int, seed) -> np.ndarray:
    """Mean of ``shots`` +-1 outcomes per value, all from ``np.random.default_rng(seed)``.

    Each shot is +1 with probability (1 + <P>)/2.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    p_plus = np.clip(0.5 * (1.0 + exact), 0.0, 1.0)
    n_plus = np.random.default_rng(seed).binomial(shots, p_plus)
    return (2.0 * n_plus - shots) / shots


def expectation(state: np.ndarray, label: str) -> float:
    """Exact expectation of a two-qubit Pauli product in a 4-vector or 4x4 density matrix."""
    return float(_exact(np.asarray(state)[None], pauli_2q(label)[None])[0, 0])


def sample_expectation(state: np.ndarray, label: str, shots: int, rng_seed) -> float:
    """Shot-sampled expectation: mean of ``shots`` simulated +-1 outcomes.

    ``rng_seed`` may be an integer seed or a numpy Generator; results are
    deterministic given either.
    """
    return float(_sample(np.array([expectation(state, label)]), shots, rng_seed)[0])


def measure_correlators(states: np.ndarray, shots: int = 0, seed=None) -> np.ndarray:
    """Correlators of a pure (n, 4) or mixed (n, 4, 4) state stack, an (n, 10) array.

    Columns follow ``CORRELATOR_LABELS``; shots = 0 gives exact values.  In
    sampled mode all n x 10 counts come from one ``binomial`` call on
    ``np.random.default_rng(seed)``, in row-major order.
    """
    values = _exact(states, _OPS)
    if shots:
        values = _sample(values, shots, seed)
    _check_range(CORRELATOR_LABELS, values, shots)
    return values


def measure_tomogram(state: np.ndarray, t: float, shots: int = 0,
                     rng_seed=None, include_cross: bool = True) -> Tomogram:
    """Build a tomogram of ``state`` at time ``t``.

    shots = 0 gives exact values.  In sampled mode the terms are drawn
    from one stream of the given seed (see ``measure_correlators``).
    """
    row = measure_correlators(np.asarray(state)[None], shots, rng_seed)[0]
    labels = CORRELATOR_LABELS if include_cross else PAULI_LABELS_2Q
    return Tomogram(time=t, values=dict(zip(labels, row.tolist())), shots=shots)


@dataclass(frozen=True)
class EnergyEstimate:
    """Estimated E/h [MHz] at one time with its per-term breakdown.

    contributions keys: z1, z2, x1, x2, xx, yy — the six estimator terms
    with their schedule prefactors applied.  energy is their sum.
    """

    time: float
    energy: float
    contributions: dict[str, float] = field(repr=False)

    def __post_init__(self) -> None:
        total = sum(self.contributions.values())
        if abs(total - self.energy) > 1e-9:
            raise ValueError("energy does not match the sum of its contributions")


def energy_terms(values: np.ndarray, schedule: ProtocolSchedule, times) -> np.ndarray:
    """The six estimator terms of (n, 10) correlators at n times, an (n, 6) array.

    Columns follow ``ENERGY_TERMS``; the energy is the row sum.
    """
    weights = np.einsum("pij,nji->np", _OPS[_ENERGY_COLUMNS], schedule.hamiltonians(times))
    return weights.real / 4.0 * values[:, _ENERGY_COLUMNS]


def energy_from_correlators(tom: Tomogram, schedule: ProtocolSchedule,
                            t: float | None = None) -> EnergyEstimate:
    """Reconstruct E/h from the six controlled-term correlators.

    ``t`` defaults to the tomogram's own time.
    """
    t_eval = tom.time if t is None else t
    terms = energy_terms(tom._row(), schedule, [t_eval])[0]
    contributions = dict(zip(ENERGY_TERMS, terms.tolist()))
    return EnergyEstimate(time=t_eval, energy=sum(contributions.values()),
                          contributions=contributions)


def _rotated_pairs(qubit: int) -> list[tuple[str, str]]:
    """(X-like, Y-like) label pairs that mix under a Z rotation of ``qubit``."""
    if qubit == 1:
        return [("XI", "YI"), ("XX", "YX"), ("XY", "YY")]
    if qubit == 2:
        return [("IX", "IY"), ("XX", "XY"), ("YX", "YY")]
    raise BadIndex(f"qubit index must be 1 or 2, got {qubit}")


def rotate_correlators(values: np.ndarray, qubit: int, theta) -> np.ndarray:
    """Rotate one qubit's frame of (n, 10) correlators about Z by ``theta`` (one per row).

    <X>' = cos(theta)<X> + sin(theta)<Y> and <Y>' = -sin(theta)<X> +
    cos(theta)<Y> for the chosen qubit; Z terms are unchanged.
    """
    c, s = np.cos(theta), np.sin(theta)
    rotated = np.array(values, dtype=float)
    for x_lab, y_lab in _rotated_pairs(qubit):
        vx, vy = values[:, _INDEX[x_lab]], values[:, _INDEX[y_lab]]
        rotated[:, _INDEX[x_lab]] = c * vx + s * vy
        rotated[:, _INDEX[y_lab]] = -s * vx + c * vy
    return rotated


def rotate_frame(tom: Tomogram, qubit: int, theta: float) -> Tomogram:
    """Rotate one qubit's frame of a tomogram by ``theta`` about Z (see ``rotate_correlators``).

    Two-qubit transverse correlators mix with the XY/YX cross terms: those
    must be present unless XX and YY are both zero within the noise floor.
    """
    for x_lab, y_lab in _rotated_pairs(qubit):
        present = [lab for lab in (x_lab, y_lab) if lab in tom.values]
        if len(present) == 1 and abs(tom.values[present[0]]) > _noise_floor(tom.shots):
            raise MissingTerm(f"rotating qubit {qubit} needs both {x_lab} and {y_lab}; "
                              f"tomogram has a nonzero {present[0]} only")
    row = rotate_correlators(tom._row(), qubit, theta)[0]
    rotated = dict(zip(CORRELATOR_LABELS, row.tolist()))
    values = {label: rotated.get(label, value) for label, value in tom.values.items()}
    return Tomogram(time=tom.time, values=values, shots=tom.shots)

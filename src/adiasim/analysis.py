"""Instantaneous spectra, level tracking, gap/slope extraction, LZ formula.

Everything here works in the sweep parameter s in [0, 1] of H(s), never
with a duration: a run of duration t_ad crosses at t = s_c*t_ad, and a
slope in s [MHz] over t_ad is its slope in time [MHz/us].

Levels are numbered 1..4.  Two labelings coexist:

* sorted levels  — ascending eigenvalue at each s (curves never cross);
* tracked levels — continuity labels assigned by maximal overlap between
  eigenvectors at consecutive grid points, seeded by the ascending order
  at the first one (curves may cross; these are the adiabatically-continued
  branches).

A sweep shape is diagonalised once: ``tracked_levels`` returns its
``TrackedLevels``, the tracked energies on the tracker's own grid and the
tracked energies and eigenvectors at a trajectory's sample points.
``pauli_fidelity`` reads a stack of Pauli vectors (those of a Lindblad run,
or ``operators.pauli_vector`` of pure states) against the ``level_weights``
of one level's vectors.  Sorted level k at row i is tracked column
``argsort(energies[i])[k - 1]``, so a one-row read gives its population.
The crossing of interest in the sweep protocol involves the middle pair,
sorted levels (2, 3), the one pair the crossing analysis reads:
``min_gap`` takes its coarse minimum from the same tracked levels, sorted,
and refines it on H(s) itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .operators import pauli_vector
from .schedule import ProtocolSchedule

__all__ = [
    "DegenerateTracking",
    "NoInteriorMinimum",
    "WindowOutOfRange",
    "ZeroSlope",
    "TrackedLevels",
    "tracked_levels",
    "min_gap",
    "diabatic_slope",
    "lz_probability",
    "level_weights",
    "pauli_fidelity",
    "crossing_report",
]

_TIE_TOL = 1e-9
# Levels are tracked on at least this many steps: across a few long steps
# the overlaps of successive eigenbases can tie.
_MIN_TRACKING_STEPS = 100
_PERMS = np.array(list(itertools.permutations(range(4))))
# The uniform grid in s whose points in the slope fit window are the fit's,
# and the width in s of that window.
_GRID = np.linspace(0.0, 1.0, 1001)
_SLOPE_WINDOW = 0.10


class DegenerateTracking(RuntimeError):
    """Raised when continuity labeling is ambiguous (tied overlaps)."""


class NoInteriorMinimum(ValueError):
    """Raised when a gap curve attains its minimum at a grid endpoint."""


class WindowOutOfRange(ValueError):
    """Raised when a fit window extends beyond s in [0, 1] or holds no
    crossing of the bare levels."""


class ZeroSlope(ValueError):
    """Raised when the LZ formula is evaluated with a vanishing slope."""


def _tracked_eigensystem(schedule, s: np.ndarray):
    """eigh along ``s`` with continuity labels seeded at the first point.

    All steps at once: tracked vectors are sorted ones permuted, so each
    step's assignment is the best total ``|vecs[i]^H vecs[i+1]|`` of the
    sorted eigenbases over the 24 permutations, and these compose into the
    labels.  Each vector keeps eigh's phase: every reader of a tracked
    vector is phase-invariant.  Returns the tracked energies and the tracked
    vectors (see tracked_levels).
    """
    sorted_e, vecs = np.linalg.eigh(schedule.hamiltonian(s))
    overlap = np.abs(vecs[:-1].conj().swapaxes(1, 2) @ vecs[1:])
    best = np.argmax(overlap[:, np.arange(4), _PERMS].sum(axis=2), axis=1)
    labels = _continued_labels(_PERMS[best])
    top2 = np.sort(overlap, axis=2)[:, :, -2:]
    tied = top2[:, :, 1] - top2[:, :, 0] < _TIE_TOL
    if tied.any():
        i = int(np.argmax(tied.any(axis=1)))
        k = int(np.argmax(tied[i, labels[i]]))
        raise DegenerateTracking(
            f"ambiguous level continuation at s = {s[i + 1]:.6f}: "
            f"two overlaps of tracked level {k + 1} tie at {top2[i, labels[i, k], 1]:.6f}"
        )
    return (np.take_along_axis(sorted_e, labels, axis=1),
            np.take_along_axis(vecs, labels[:, None, :], axis=2))


def _continued_labels(perms: np.ndarray) -> np.ndarray:
    """The (n+1, 4) labels of n step permutations: row 0 is 0..3 and row i
    is perms[i-1][row i-1], composed by pointer doubling.

    After the round of span w, row i holds the composition of the up to
    2w steps ending at row i, so ceil(log2(n)) rounds of one
    take_along_axis each give every row its whole chain.
    """
    labels = np.vstack([np.arange(4), perms])
    span = 1
    while span < len(perms):
        labels[span:] = np.take_along_axis(labels[span:], labels[:-span], axis=1)
        span *= 2
    return labels


@dataclass(frozen=True)
class TrackedLevels:
    """The levels of one sweep shape, from one tracked eigensystem.

    grid          : (m,) the tracker's points in s
    grid_energies : (m, 4) tracked energies there
    energies      : (n, 4) tracked energies at the sample points
    vectors       : (n, 4, 4) tracked eigenvectors at the sample points,
                    ``vectors[i][:, k]`` the one of ``energies[i, k]``
    """

    grid: np.ndarray
    grid_energies: np.ndarray
    energies: np.ndarray
    vectors: np.ndarray


def tracked_levels(schedule, s: np.ndarray) -> TrackedLevels:
    """The levels of ``schedule`` tracked through the uniform points ``s``.

    Energy column k follows the level that was k-th lowest at ``s[0]``.
    ``schedule`` needs ``hamiltonian(s)`` for an array of s (any
    ProtocolSchedule qualifies).  The levels are tracked on a grid r times
    finer than ``s``, with at least _MIN_TRACKING_STEPS steps, that holds
    every point exactly as its r-th point.  Raises ValueError for fewer than
    two points, and DegenerateTracking when the label continuation is
    ambiguous at some step.
    """
    if len(s) < 2:
        raise ValueError(f"tracked_levels needs at least two points s, got {len(s)}")
    r = math.ceil(_MIN_TRACKING_STEPS / (len(s) - 1))
    fine = np.linspace(s[0], s[-1], r * (len(s) - 1) + 1)
    fine[::r] = s
    energies, vectors = _tracked_eigensystem(schedule, fine)
    return TrackedLevels(fine, energies, energies[::r], vectors[::r])


def _middle_gap(schedule, s: float) -> tuple[float, float, float]:
    """E3 - E2 at ``s`` and its first and second derivatives in s.

    For H(s) = h0 + s*h1 the Hellmann-Feynman theorem gives dE_k/ds =
    <k|h1|k>, and second-order perturbation theory d^2E_k/ds^2 =
    2 sum_{m != k} |<m|h1|k>|^2 / (E_k - E_m), so one eigh yields all
    three.  The curvature is not finite where a level of the pair is
    degenerate with another.
    """
    energies, vecs = np.linalg.eigh(schedule.hamiltonian(s))
    coupling = vecs.conj().T @ schedule.h1 @ vecs
    slopes = coupling.diagonal().real
    spacing = energies[:, None] - energies
    np.fill_diagonal(spacing, np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        curvatures = 2.0 * (np.abs(coupling) ** 2 / spacing).sum(axis=1)
    return (float(energies[2] - energies[1]), float(slopes[2] - slopes[1]),
            float(curvatures[2] - curvatures[1]))


def min_gap(schedule, levels: TrackedLevels) -> tuple[float, float]:
    """Minimum separation of the middle sorted levels (2, 3).

    ``schedule`` needs ``hamiltonian(s)`` and the s-derivative ``h1`` of H
    (any ProtocolSchedule qualifies), and ``levels`` are its tracked levels
    (``tracked_levels``).  Returns ``(a, s_c)``: the gap minimum [MHz] and
    where it lies in s.  The coarse minimum is that of the sorted levels on
    the tracker's grid; Newton steps on the Hellmann-Feynman gap derivative,
    inside a bracket that starts as the two grid cells around it and
    shrinks by the sign of the derivative at every point, then fix s_c to
    float resolution.  A step that leaves the bracket, or a curvature that
    is not finite and positive, is replaced by bisection.  Raises
    NoInteriorMinimum when the coarse minimum sits on a grid endpoint,
    i.e. the gap is monotonic over the grid or its minimum lies within one
    cell of an end.
    """
    grid, sorted_e = levels.grid, np.sort(levels.grid_energies, axis=1)
    idx = int(np.argmin(sorted_e[:, 2] - sorted_e[:, 1]))
    if idx == 0 or idx == len(grid) - 1:
        raise NoInteriorMinimum(
            f"gap of sorted levels (2, 3) is minimal at the grid edge "
            f"s = {grid[idx]:.6f}; no interior avoided crossing"
        )
    lo, hi = float(grid[idx - 1]), float(grid[idx + 1])
    s_c = 0.5 * (lo + hi)
    while True:
        gap, slope, curvature = _middle_gap(schedule, s_c)
        if slope > 0.0:
            hi = s_c
        else:
            lo = s_c
        # Written so that a NaN curvature fails the test too.
        if 0.0 < curvature < math.inf:
            step = s_c - slope / curvature
            if step == s_c:
                return gap, s_c
            if lo < step < hi:
                s_c = step
                continue
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        s_c = mid
    # Bisection has closed the bracket: lo and hi are adjacent floats.
    return (gap if mid == s_c else _middle_gap(schedule, mid)[0]), mid


def diabatic_slope(schedule: ProtocolSchedule, s_c: float) -> float:
    """Slope magnitude |d(eps1 - eps2)/ds| [MHz] of the bare crossing levels.

    With every two-qubit coupling removed (j = 0 and zz = 0) H is a sum of
    single-qubit terms with splittings eps_i(s) = sqrt(z_i**2 (1-s)**2 +
    x_i**2 s**2), and the continuity-labeled middle pair differs by
    +-(eps1 - eps2), a signed quantity that passes through zero at the bare
    crossing.  A line is fitted to eps1 - eps2 on the about 100 points of a
    uniform 1001-point grid in s that lie in a window of width 0.1 centered
    on ``s_c``.  The zz term
    must go too: it opens its own tiny avoided crossing, which would bend the
    difference through the crossing and make the slope depend on the window.
    Raises WindowOutOfRange when eps1 - eps2 keeps one sign over the window:
    the bare levels do not cross there, and a gap minimum at ``s_c`` is no
    Landau-Zener crossing.
    """
    half = 0.5 * _SLOPE_WINDOW
    s_min, s_max = s_c - half, s_c + half
    if s_min < 0.0 or s_max > 1.0:
        raise WindowOutOfRange(
            f"fit window [{s_min:.4f}, {s_max:.4f}] exceeds the protocol "
            f"interval s in [0, 1]"
        )
    s = _GRID[(_GRID >= s_min) & (_GRID <= s_max)]
    eps1 = np.hypot(schedule.z1 * (1.0 - s), schedule.x1 * s)
    eps2 = np.hypot(schedule.z2 * (1.0 - s), schedule.x2 * s)
    diff = eps1 - eps2
    if diff.min() > 0.0 or diff.max() < 0.0:
        raise WindowOutOfRange(
            f"bare levels do not cross in the fit window [{s_min:.4f}, {s_max:.4f}]: "
            f"eps1 - eps2 stays in [{diff.min():.4g}, {diff.max():.4g}] MHz"
        )
    return float(abs(np.polyfit(s, diff, 1)[0]))


def lz_probability(a: float, alpha: float) -> tuple[float, float]:
    """Dimensionless LZ exponent and diabatic-transition probability.

    For a minimum gap ``a`` [MHz] and a bare-level-difference slope
    ``alpha`` [MHz/us], in these units

        Gamma = pi * a**2 / (2 * |alpha|),     P_diabatic = exp(-2*pi*Gamma).

    (The exponent collects the 2*pi-per-MHz angular-frequency factors of
    both a and alpha; a 0.22 MHz gap swept at 10.3 MHz per 15 us gives
    Gamma = 0.1107 and P = 0.4987.)
    """
    if a < 0.0:
        raise ValueError(f"gap must be nonnegative, got {a}")
    if alpha == 0.0:
        raise ZeroSlope("slope alpha must be nonzero")
    gamma = math.pi * a * a / (2.0 * abs(alpha))
    return gamma, math.exp(-2.0 * math.pi * gamma)


def level_weights(vectors: np.ndarray, level: int) -> np.ndarray:
    """Weights <v|P_k|v> of one tracked level at every point, a (16, n) array.

    ``vectors`` are the (n, 4, 4) tracked eigenvectors and ``level`` a
    tracked label, 1..4; row k belongs to Pauli k.  ``pauli_fidelity``
    reads Pauli-vector stacks against them.
    """
    if not 1 <= level <= 4:
        raise ValueError(f"level must be in 1..4, got {level}")
    return np.ascontiguousarray(pauli_vector(vectors[:, :, level - 1]).T)


def pauli_fidelity(r: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Tr(rho |v><v|) = sum_k r_k <v|P_k|v> / 4 of (n, 16) Pauli vectors r at
    every point, from the (16, n) ``level_weights`` of the level v: those of a
    pure state psi give |<v|psi>|**2."""
    # The sum runs over k in order, whatever the shapes, so a population read
    # from one row has the bits it has in a stack (einsum and numpy's
    # reductions reorder a sum along a contiguous axis).
    total = r[:, 0] * weights[0]
    for k in range(1, 16):
        total += r[:, k] * weights[k]
    return total / 4.0


def crossing_report(schedule: ProtocolSchedule, levels: TrackedLevels) -> tuple[float, float, float]:
    """Crossing analysis: ``(a, s_c, slope)`` from min_gap and diabatic_slope.

    ``levels`` are the schedule's tracked levels.  The LZ prediction of a
    run of duration t_ad is ``lz_probability(a, slope / t_ad)``.
    """
    a, s_c = min_gap(schedule, levels)
    return a, s_c, diabatic_slope(schedule, s_c)

"""Instantaneous spectra, level tracking, gap/slope extraction, LZ formula.

Levels are numbered 1..4.  Two labelings coexist:

* sorted levels  — ascending eigenvalue at each time (curves never cross);
* tracked levels — continuity labels assigned by maximal overlap between
  eigenvectors at consecutive grid times, seeded by the ascending order
  at t = 0 (curves may cross; these are the adiabatically-continued
  branches).

``tracked_levels`` returns the tracked energies and eigenvectors at a
trajectory's sample times as two arrays; ``passage_fidelity`` reads a state
stack against those vectors.  The crossing of interest in the sweep
protocol involves the middle pair, sorted levels (2, 3), the one pair the
crossing analysis reads.  It reads H(s) = h0 + s*h1 directly and tracks no
levels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .schedule import ProtocolSchedule

__all__ = [
    "DegenerateTracking",
    "NoInteriorMinimum",
    "WindowOutOfRange",
    "ZeroSlope",
    "CrossingReport",
    "tracked_levels",
    "min_gap",
    "diabatic_slope",
    "lz_probability",
    "passage_fidelity",
    "crossing_report",
    "level_populations",
]

_TIE_TOL = 1e-9
# Levels are tracked on at least this many steps: across a few long steps
# the overlaps of successive eigenbases can tie.
_MIN_TRACKING_STEPS = 100
_PERMS = np.array(list(itertools.permutations(range(4))))


class DegenerateTracking(RuntimeError):
    """Raised when continuity labeling is ambiguous (tied overlaps)."""


class NoInteriorMinimum(ValueError):
    """Raised when a gap curve attains its minimum at a grid endpoint."""


class WindowOutOfRange(ValueError):
    """Raised when a fit window extends beyond the protocol interval, holds
    fewer than two grid points, or holds no crossing of the bare levels."""


class ZeroSlope(ValueError):
    """Raised when the LZ formula is evaluated with a vanishing slope."""


def _tracked_eigensystem(schedule, times: np.ndarray):
    """eigh along ``times`` with continuity labels seeded at the first time.

    All steps at once: tracked vectors are sorted ones permuted and phased,
    so each step's assignment is the best total ``|vecs[i]^H vecs[i+1]|``
    of the sorted eigenbases over the 24 permutations, and these compose
    into the labels.  A tracked vector's phase is the running product of
    ``conj(r)/|r|`` over its raw overlaps r, which makes its overlap with
    its predecessor real and positive.  Returns the sorted energies, the
    tracked energies and the tracked vectors (see tracked_levels).
    """
    sorted_e, vecs = np.linalg.eigh(schedule.hamiltonians(times))
    raw = vecs[:-1].conj().swapaxes(1, 2) @ vecs[1:]
    overlap = np.abs(raw)
    best = np.argmax(overlap[:, np.arange(4), _PERMS].sum(axis=2), axis=1)
    labels = np.tile(np.arange(4), (len(times), 1))
    for i, perm in enumerate(_PERMS[best], start=1):
        labels[i] = perm[labels[i - 1]]
    top2 = np.sort(overlap, axis=2)[:, :, -2:]
    tied = top2[:, :, 1] - top2[:, :, 0] < _TIE_TOL
    if tied.any():
        i = int(np.argmax(tied.any(axis=1)))
        k = int(np.argmax(tied[i, labels[i]]))
        raise DegenerateTracking(
            f"ambiguous level continuation at t = {times[i + 1]:.6f} us: "
            f"two overlaps of tracked level {k + 1} tie at {top2[i, labels[i, k], 1]:.6f}"
        )
    r = raw[np.arange(len(raw))[:, None], labels[:-1], labels[1:]]
    unit = np.divide(r.conj(), np.abs(r), out=np.ones_like(r), where=r != 0.0)
    phase = np.cumprod(np.vstack([np.ones(4), unit]), axis=0)
    phase /= np.abs(phase)
    tracked_e = np.take_along_axis(sorted_e, labels, axis=1)
    tracked_v = np.take_along_axis(vecs, labels[:, None, :], axis=2) * phase[:, None, :]
    return sorted_e, tracked_e, tracked_v


def tracked_levels(schedule, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tracked energies (n, 4) and eigenvectors (n, 4, 4) at uniform ``times``.

    Energy column k follows the level that was k-th lowest at ``times[0]``
    and ``vectors[i][:, k]`` is its eigenvector, phased continuously from
    eigh's at ``times[0]``.  ``schedule`` needs the stacked
    ``hamiltonians(times)`` (any ProtocolSchedule qualifies).  The levels
    are tracked on a grid r times finer than ``times``, with at least
    _MIN_TRACKING_STEPS steps, that holds every time exactly as its r-th
    point.  Raises DegenerateTracking when the label continuation is
    ambiguous at some step.
    """
    r = math.ceil(_MIN_TRACKING_STEPS / (len(times) - 1))
    fine = np.linspace(times[0], times[-1], r * (len(times) - 1) + 1)
    fine[::r] = times
    _, energies, vectors = _tracked_eigensystem(schedule, fine)
    return energies[::r], vectors[::r]


def _middle_gap(schedule, t: float) -> tuple[float, float]:
    """E3 - E2 at time ``t`` and its derivative in s = t/t_ad.

    For H(s) = h0 + s*h1 the Hellmann-Feynman theorem gives dE_k/ds =
    <k|h1|k>, so one eigh yields the gap and its slope.
    """
    energies, vecs = np.linalg.eigh(schedule.hamiltonian(t))
    slopes = np.einsum("ik,ij,jk->k", vecs.conj(), schedule.h1, vecs).real
    return float(energies[2] - energies[1]), float(slopes[2] - slopes[1])


def min_gap(schedule, n_grid: int = 1001) -> tuple[float, float]:
    """Minimum separation of the middle sorted levels (2, 3).

    ``schedule`` needs ``t_ad``, ``hamiltonians(times)``, ``hamiltonian(t)``
    and the s-derivative ``h1`` of H (any ProtocolSchedule qualifies).
    Returns ``(a, t_c)``: the gap minimum [MHz] and its time [us].  One
    stacked eigvalsh on a uniform grid of ``n_grid`` times finds the coarse
    minimum; bisection on the sign of the Hellmann-Feynman gap derivative
    inside the two bracketing grid cells then fixes t_c to float resolution.
    Raises NoInteriorMinimum when the coarse minimum sits on a grid
    endpoint, i.e. the gap is monotonic over the grid (always so for fewer
    than three grid points).
    """
    times = np.linspace(0.0, schedule.t_ad, n_grid)
    levels = np.linalg.eigvalsh(schedule.hamiltonians(times))
    idx = int(np.argmin(levels[:, 2] - levels[:, 1]))
    if idx == 0 or idx == n_grid - 1:
        raise NoInteriorMinimum(
            f"gap of sorted levels (2, 3) is minimal at the grid edge "
            f"t = {times[idx]:.6f} us; no interior avoided crossing"
        )
    lo, hi = float(times[idx - 1]), float(times[idx + 1])
    t_c = 0.5 * (lo + hi)
    while lo < t_c < hi:
        if _middle_gap(schedule, t_c)[1] > 0.0:
            hi = t_c
        else:
            lo = t_c
        t_c = 0.5 * (lo + hi)
    return _middle_gap(schedule, t_c)[0], t_c


def diabatic_slope(schedule: ProtocolSchedule, t_c: float,
                   window_fraction: float = 0.10, n_grid: int = 1001) -> float:
    """Slope magnitude [MHz/us] of the bare crossing-level difference.

    With every two-qubit coupling removed (j = 0 and zz = 0) H is a sum of
    single-qubit terms with splittings eps_i(s) = sqrt(z_i**2 (1-s)**2 +
    x_i**2 s**2), and the continuity-labeled middle pair differs by
    +-(eps1 - eps2), a signed quantity that passes through zero at the bare
    crossing.  A line is fitted to eps1 - eps2 on the points of a uniform
    ``n_grid`` grid that lie in a window centered on ``t_c`` of total
    width ``window_fraction * t_ad``.  The zz term must go too: it opens
    its own tiny avoided crossing, which would bend the difference through
    the crossing and make the slope depend on the window.  Raises
    WindowOutOfRange when eps1 - eps2 keeps one sign over the window: the
    bare levels do not cross there, and a gap minimum at ``t_c`` is no
    Landau-Zener crossing.
    """
    if not 0.0 < window_fraction:
        raise ValueError(f"window_fraction must be positive, got {window_fraction}")
    half = 0.5 * window_fraction * schedule.t_ad
    t_min, t_max = t_c - half, t_c + half
    if t_min < 0.0 or t_max > schedule.t_ad:
        raise WindowOutOfRange(
            f"fit window [{t_min:.4f}, {t_max:.4f}] us exceeds the protocol "
            f"interval [0, {schedule.t_ad}] us"
        )
    times = np.linspace(0.0, schedule.t_ad, n_grid)
    times = times[(times >= t_min) & (times <= t_max)]
    if len(times) < 2:
        raise WindowOutOfRange(
            f"fit window [{t_min:.4f}, {t_max:.4f}] us contains fewer than "
            f"two grid points; increase n_grid"
        )
    s = times / schedule.t_ad
    eps1 = np.hypot(schedule.z1 * (1.0 - s), schedule.x1 * s)
    eps2 = np.hypot(schedule.z2 * (1.0 - s), schedule.x2 * s)
    diff = eps1 - eps2
    if diff.min() > 0.0 or diff.max() < 0.0:
        raise WindowOutOfRange(
            f"bare levels do not cross in the fit window [{t_min:.4f}, {t_max:.4f}] us: "
            f"eps1 - eps2 stays in [{diff.min():.4g}, {diff.max():.4g}] MHz"
        )
    return float(abs(np.polyfit(times, diff, 1)[0]))


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


def passage_fidelity(states: np.ndarray, vectors: np.ndarray, level: int) -> np.ndarray:
    """Overlap of a state stack with one adiabatically-continued level.

    ``states`` is an (n, 4) stack of pure states or an (n, 4, 4) stack of
    density matrices, and ``vectors`` the (n, 4, 4) tracked eigenvectors at
    the same times (from ``tracked_levels``).  Returns
    ``|<v_level(t)|psi(t)>|**2`` (or ``Tr(rho |v><v|)``) at every time;
    ``level`` is a tracked label, 1..4.
    """
    if not 1 <= level <= 4:
        raise ValueError(f"level must be in 1..4, got {level}")
    v = vectors[:, :, level - 1]
    if states.ndim == 3:
        return np.real(np.einsum("ij,ijk,ik->i", v.conj(), states, v))
    return np.abs(np.einsum("ij,ij->i", v.conj(), states)) ** 2


def level_populations(state: np.ndarray, schedule: ProtocolSchedule,
                      t: float) -> np.ndarray:
    """Populations of the four sorted instantaneous levels at time ``t``."""
    _, vecs = np.linalg.eigh(schedule.hamiltonian(t))
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        return np.abs(vecs.conj().T @ state) ** 2
    return np.real(np.diag(vecs.conj().T @ state @ vecs))


@dataclass(frozen=True)
class CrossingReport:
    """Summary of one avoided crossing of a sweep protocol.

    a          : minimum gap [MHz]
    t_c        : crossing time [us]
    alpha      : bare-level-difference slope magnitude [MHz/us]
    gamma      : LZ exponent (dimensionless)
    p_diabatic : diabatic transition probability
    """

    a: float
    t_c: float
    alpha: float
    gamma: float
    p_diabatic: float

    def __post_init__(self) -> None:
        if self.a < 0.0 or self.gamma < 0.0:
            raise ValueError("gap and exponent must be nonnegative")
        if not 0.0 <= self.p_diabatic <= 1.0:
            raise ValueError("diabatic probability must lie in [0, 1]")


def crossing_report(schedule: ProtocolSchedule) -> CrossingReport:
    """Full crossing analysis: gap, crossing time, slope, LZ prediction."""
    a, t_c = min_gap(schedule)
    alpha = diabatic_slope(schedule, t_c)
    gamma, p_diab = lz_probability(a, alpha)
    return CrossingReport(a=a, t_c=t_c, alpha=alpha, gamma=gamma, p_diabatic=p_diab)

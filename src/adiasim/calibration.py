"""Exchange-coupling calibration: chevron maps and parameter fits.

A parametric modulation at frequency f_TC near the qubit-qubit detuning
drives |01> <-> |10> swaps.  In the two-level subspace the excited-target
population follows the generalized Rabi formula

    P_10(t, delta) = j**2 / (j**2 + delta**2)
                     * sin(pi * sqrt(j**2 + delta**2) * t)**2

with delta = f_TC - f_res [MHz], t [us].  Scanning f_TC and t yields the
chevron pattern; the oscillation frequency per column,
Omega = sqrt(j**2 + delta**2), has its minimum j at resonance, which is
what ``fit_rabi`` extracts.  Drive-amplitude dependencies are modeled by
odd (coupling) and even (dispersive shift) polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InsufficientSpan",
    "DegenerateBasis",
    "ChevronMap",
    "CouplingModel",
    "chevron_map",
    "swap_population",
    "oscillation_frequency",
    "fit_rabi",
    "fit_dispersive",
    "fit_coupling",
]

# Zero-padding factor of oscillation_frequency's Fourier transform.
_PAD_FACTOR = 8


class InsufficientSpan(ValueError):
    """Raised when Rabi data does not bracket the resonance."""


class DegenerateBasis(ValueError):
    """Raised when amplitude-fit data cannot distinguish the basis terms."""


def swap_population(j: float, delta, t):
    """P_10 after driving for ``t`` us at detuning ``delta`` MHz.

    ``delta`` and ``t`` may be arrays; the result has their broadcast shape.
    """
    omega_sq = j * j + np.square(delta)
    # omega_sq is 0 only where j is, and then so is the contrast.
    contrast = j * j / np.where(omega_sq == 0.0, 1.0, omega_sq)
    return contrast * np.sin(np.pi * np.sqrt(omega_sq) * t) ** 2


@dataclass(frozen=True)
class ChevronMap:
    """|10>-population grid over modulation frequency and drive time.

    f_tc        : (n_f,) modulation-frequency axis [MHz]; absolute when a
                  nonzero center was given, detuning otherwise
    times       : (n_t,) drive times [us]
    populations : (n_f, n_t) P_10 values in [0, 1]
    """

    f_tc: np.ndarray
    times: np.ndarray
    populations: np.ndarray

    def __post_init__(self) -> None:
        if np.any(self.populations < -1e-9) or np.any(self.populations > 1.0 + 1e-9):
            raise ValueError("populations must lie in [0, 1]")


def chevron_map(j: float, detuning_range: tuple[float, float],
                t_range: tuple[float, float], grid: tuple[int, int],
                f_center: float = 0.0) -> ChevronMap:
    """Closed-form chevron pattern on a uniform (frequency x time) grid.

    ``grid`` is (n_frequencies, n_times).  The frequency axis spans
    ``f_center + detuning_range``; time starts at ``t_range[0]`` (usually
    0) and ends at ``t_range[1]`` us.
    """
    if j <= 0.0:
        raise ValueError(f"coupling j must be positive, got {j}")
    n_f, n_t = grid
    if n_f < 1 or n_t < 2:
        raise ValueError(f"grid must be at least (1, 2), got {grid}")
    detunings = np.linspace(detuning_range[0], detuning_range[1], n_f)
    times = np.linspace(t_range[0], t_range[1], n_t)
    populations = swap_population(j, detunings[:, None], times[None, :])
    return ChevronMap(f_tc=f_center + detunings, times=times, populations=populations)


def oscillation_frequency(times: np.ndarray, values: np.ndarray) -> float | np.ndarray:
    """Dominant oscillation frequency [MHz] of a uniformly sampled record.

    Discrete Fourier transform of the mean-subtracted record, zero-padded to
    eight times its length for grid refinement, followed by quadratic
    interpolation of the log-magnitude around the peak bin.  ``values`` is
    one record (a float is returned) or an (n, len(times)) stack of records
    on the same time axis (an (n,) array is returned, each entry equal to
    that record's own call).
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.ndim not in (1, 2) or values.shape[-1] != len(times) or len(times) < 4:
        raise ValueError("need at least 4 samples with matching time axis")
    dt = times[1] - times[0]
    if not np.allclose(np.diff(times), dt, rtol=1e-9, atol=1e-12):
        raise ValueError("time axis must be uniform")
    records = values.reshape(-1, len(times))
    data = records - records.mean(axis=1, keepdims=True)
    n_fft = _PAD_FACTOR * len(times)
    spectrum = np.abs(np.fft.rfft(data, n=n_fft, axis=1))
    freqs = np.fft.rfftfreq(n_fft, d=dt)
    peak = np.argmax(spectrum[:, 1:], axis=1) + 1
    # The bins around the peak; a peak in the last bin is not interpolated.
    interior = peak < spectrum.shape[1] - 1
    around = np.minimum(peak, spectrum.shape[1] - 2)[:, None] + np.arange(-1, 2)
    lm, l0, lp = np.log(np.take_along_axis(spectrum, around, axis=1) + 1e-300).T
    denom = lm - 2.0 * l0 + lp
    shift = np.divide(0.5 * (lm - lp), denom, out=np.zeros_like(denom), where=denom != 0.0)
    shift = np.where(interior, np.clip(shift, -0.5, 0.5), 0.0)
    omega = freqs[peak] + shift * (freqs[1] - freqs[0])
    return float(omega[0]) if values.ndim == 1 else omega


def _rabi_objective(f_points: np.ndarray, omegas: np.ndarray, f_res):
    """Best-fit j^2 and squared error for a resonance candidate f_res, or
    for each of an array of them at once."""
    det_sq = (f_points - np.asarray(f_res)[..., None]) ** 2
    j_sq = np.maximum(np.mean(omegas**2 - det_sq, axis=-1), 0.0)
    return j_sq, np.sum((np.sqrt(j_sq[..., None] + det_sq) - omegas) ** 2, axis=-1)


def _golden_section(f, a: float, b: float, tol: float) -> tuple[float, float]:
    """Golden-section minimum ``(x, f(x))`` of a unimodal ``f`` on [a, b], to within ``tol``."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)


def fit_rabi(observed) -> tuple[float, float, float]:
    """Fit Omega(f_TC) = sqrt(j^2 + (f_TC - f_res)^2) to observed pairs.

    ``observed`` is a sequence of (f_TC [MHz], Omega [MHz]) pairs, at least
    three, bracketing the resonance.  The resonance is located by a coarse
    scan over the data span followed by golden-section refinement; at each
    candidate the optimal j^2 is closed-form (the model is linear in j^2
    after squaring).  Returns (j, f_res, residual) with residual the L2
    norm of the Omega-space misfit.  Raises InsufficientSpan when the
    fitted resonance does not lie strictly inside the data span.
    """
    pairs = [(float(f), float(w)) for f, w in observed]
    if len(pairs) < 3:
        raise ValueError(f"need at least 3 points, got {len(pairs)}")
    f_pts = np.array([p[0] for p in pairs])
    w_pts = np.array([p[1] for p in pairs])
    lo, hi = float(np.min(f_pts)), float(np.max(f_pts))
    if lo == hi:
        raise DegenerateBasis("all points share one modulation frequency")

    tol = 1e-10 * max(1.0, abs(lo), abs(hi))
    candidates = np.linspace(lo, hi, 401)
    best = int(np.argmin(_rabi_objective(f_pts, w_pts, candidates)[1]))
    error = lambda fr: _rabi_objective(f_pts, w_pts, fr)[1]
    f_res, _ = _golden_section(error, candidates[max(best - 1, 0)],
                               candidates[min(best + 1, len(candidates) - 1)], tol)
    j_sq, err = _rabi_objective(f_pts, w_pts, f_res)
    # The refinement localizes the minimum only to within ``tol``; a fit
    # closer than that to either span edge is indistinguishable from an
    # unbracketed minimum.
    if f_res <= lo + 10.0 * tol or f_res >= hi - 10.0 * tol:
        raise InsufficientSpan(
            f"fitted resonance {f_res:.6f} MHz lies at/outside the data span "
            f"[{lo}, {hi}] MHz; points do not bracket the minimum"
        )
    return math.sqrt(j_sq), float(f_res), math.sqrt(err)


def _even_odd_fit(amplitudes, values, powers: tuple[int, int]) -> tuple[float, float, float]:
    amps = np.asarray(amplitudes, dtype=float)
    vals = np.asarray(values, dtype=float)
    if amps.shape != vals.shape or amps.ndim != 1:
        raise ValueError("amplitudes and values must be 1-D and equal length")
    distinct = {round(abs(a), 15) for a in amps if a != 0.0}
    if len(distinct) < 2:
        raise DegenerateBasis(
            "need data at >= 2 distinct nonzero |amplitude| values to "
            f"separate the A^{powers[0]} and A^{powers[1]} terms"
        )
    basis = np.column_stack([amps ** powers[0], amps ** powers[1]])
    coeff, *_ = np.linalg.lstsq(basis, vals, rcond=None)
    residual = float(np.linalg.norm(basis @ coeff - vals))
    return float(coeff[0]), float(coeff[1]), residual


def fit_dispersive(amplitudes, shifts) -> tuple[float, float, float]:
    """Fit frequency shifts to c2*A**2 + c4*A**4 (even, zero at A = 0).

    Returns (c2, c4, residual).
    """
    return _even_odd_fit(amplitudes, shifts, (2, 4))


def fit_coupling(amplitudes, j_values) -> tuple[float, float, float]:
    """Fit couplings to b1*A + b3*A**3 (odd, zero at A = 0).

    Returns (b1, b3, residual).
    """
    return _even_odd_fit(amplitudes, j_values, (1, 3))


@dataclass(frozen=True)
class CouplingModel:
    """Amplitude dependence of the coupling and of the qubit frequencies.

    b1, b3 : odd coupling polynomial, j(A) = b1*A + b3*A**3 [MHz]
    c2, c4 : per-qubit even dispersive shifts, f_i - f_i0 = c2*A**2 +
             c4*A**4 [MHz]; scalars broadcast to both qubits
    """

    b1: float
    b3: float
    c2: tuple[float, float] = (0.0, 0.0)
    c4: tuple[float, float] = (0.0, 0.0)

    def __init__(self, b1: float, b3: float, c2=0.0, c4=0.0):
        object.__setattr__(self, "b1", float(b1))
        object.__setattr__(self, "b3", float(b3))
        pair = lambda v: (float(v), float(v)) if np.isscalar(v) else tuple(float(x) for x in v)
        object.__setattr__(self, "c2", pair(c2))
        object.__setattr__(self, "c4", pair(c4))

    def coupling(self, amplitude: float) -> float:
        """j(A) [MHz]; odd in A and zero at A = 0."""
        return self.b1 * amplitude + self.b3 * amplitude**3

    def dispersive_shift(self, amplitude: float, qubit: int) -> float:
        """Frequency shift of one qubit at drive amplitude A [MHz]."""
        if qubit not in (1, 2):
            raise ValueError(f"qubit index must be 1 or 2, got {qubit}")
        a_sq = amplitude * amplitude
        return self.c2[qubit - 1] * a_sq + self.c4[qubit - 1] * a_sq * a_sq

    def resonance_shift(self, amplitude: float) -> float:
        """Shift of the swap resonance f1 - f2 at drive amplitude A [MHz]."""
        return self.dispersive_shift(amplitude, 1) - self.dispersive_shift(amplitude, 2)

"""Zero-protocol-time extrapolation of measured energy contributions.

Decoherence damage grows with the protocol duration, so an observable
measured at the end of several protocols of different duration t_ad can be
extrapolated back to t_ad = 0.  Each controlled energy contribution at the
end of the sweep (the XI, IX, XX and YY terms of the estimator) is fitted
by a second-order polynomial in t_ad and evaluated at zero; the mitigated
energy is the sum of the extrapolated contributions.

Every run sweeps the same H(s) and only its duration differs, so each
run's end row is weighed with H(1).  The ZI and IZ coefficients of H(s)
vanish there, which is why only the four transverse/coupling terms enter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .schedule import ProtocolSchedule
from .tomography import CORRELATOR_LABELS, ENERGY_TERMS, energy_terms

__all__ = [
    "DegenerateAbscissae",
    "MitigatedEnergy",
    "extrapolate_quadratic",
    "mitigate_energy",
]

_END_TERMS = ("x1", "x2", "xx", "yy")


class DegenerateAbscissae(ValueError):
    """Raised when fewer than three distinct abscissae are supplied."""


def extrapolate_quadratic(points: Sequence[tuple[float, float]]) -> tuple[float, np.ndarray, float]:
    """Least-squares quadratic fit, evaluated at zero abscissa.

    ``points`` is a sequence of (t, value) pairs with at least three
    distinct t.  Returns ``(value_at_zero, coefficients, residual)`` where
    coefficients are (c0, c1, c2) of v(t) = c0 + c1*t + c2*t**2 and
    residual is the L2 norm of the fit residuals (zero to machine
    precision for exactly three points).  The fit is solved on abscissae
    rescaled to [0, 1] for conditioning.
    """
    pts = [(float(t), float(v)) for t, v in points]
    t_arr = np.array([p[0] for p in pts])
    v_arr = np.array([p[1] for p in pts])
    if len(set(t_arr.tolist())) < 3:
        raise DegenerateAbscissae(
            f"need at least 3 distinct abscissae, got {sorted(set(t_arr.tolist()))}"
        )
    t_max = float(np.max(np.abs(t_arr)))
    u = t_arr / t_max
    basis = np.column_stack([np.ones_like(u), u, u * u])
    coeff_u, *_ = np.linalg.lstsq(basis, v_arr, rcond=None)
    residual = float(np.linalg.norm(basis @ coeff_u - v_arr))
    coeffs = np.array([coeff_u[0], coeff_u[1] / t_max, coeff_u[2] / t_max**2])
    return float(coeffs[0]), coeffs, residual


@dataclass(frozen=True)
class MitigatedEnergy:
    """Extrapolation result for one initial state.

    contributions : per-term value at t_ad = 0 (keys x1, x2, xx, yy)
    energy        : their sum [MHz]
    residuals     : per-term fit residual (L2)
    measured      : per-t_ad unmitigated end-of-protocol energies [MHz]
    warning       : set when the runs straddle the adiabatic/diabatic
                    boundary, which breaks the smooth-in-t_ad assumption
    """

    energy: float
    contributions: dict[str, float]
    residuals: dict[str, float] = field(repr=False)
    measured: dict[float, float] = field(repr=False)
    warning: str | None = None

    def __post_init__(self) -> None:
        total = sum(self.contributions.values())
        if abs(total - self.energy) > 1e-9:
            raise ValueError("energy does not match the sum of its contributions")


def mitigate_energy(schedule: ProtocolSchedule, t_ads: Sequence[float], end_values: np.ndarray,
                    passage_fidelities: Mapping[float, float] | None = None) -> MitigatedEnergy:
    """Extrapolate end-of-protocol energy contributions to zero duration.

    ``schedule`` is the sweep shape shared by every run, ``t_ads`` the
    run durations [us], and row k of ``end_values`` holds the (10,)
    correlators, in ``CORRELATOR_LABELS`` order, measured at the end of the
    run of duration ``t_ads[k]``.  Each energy term is extrapolated on its
    own, which keeps term-level diagnostics; because the fit is linear in
    the data, their sum equals the extrapolated total energy.

    ``passage_fidelities`` (t_ad -> end fidelity with the adiabatically-
    continued level) is optional; when the runs straddle the 0.5 boundary
    a warning is attached, since mixing diabatic and adiabatic runs in one
    extrapolation is unreliable.
    """
    if not t_ads:
        raise ValueError("no runs supplied")
    end_values = np.asarray(end_values, dtype=float)
    if end_values.shape != (len(t_ads), len(CORRELATOR_LABELS)):
        raise ValueError(
            f"end_values must be a ({len(t_ads)}, {len(CORRELATOR_LABELS)}) array, "
            f"one correlator row per duration; got shape {end_values.shape}"
        )
    terms = energy_terms(end_values, schedule, np.ones(len(t_ads)))
    measured = dict(zip(t_ads, terms.sum(axis=1).tolist()))

    contributions: dict[str, float] = {}
    residuals: dict[str, float] = {}
    for term in _END_TERMS:
        pts = list(zip(t_ads, terms[:, ENERGY_TERMS.index(term)]))
        contributions[term], _, residuals[term] = extrapolate_quadratic(pts)
    energy = sum(contributions.values())

    warning = None
    if passage_fidelities:
        fids = [passage_fidelities[t_ad] for t_ad in t_ads if t_ad in passage_fidelities]
        if fids and min(fids) < 0.5 <= max(fids):
            warning = (
                "runs straddle the diabatic/adiabatic boundary (end passage "
                "fidelities span 0.5); zero-time extrapolation mixes regimes"
            )
    return MitigatedEnergy(energy=energy, contributions=contributions,
                           residuals=residuals, measured=measured, warning=warning)

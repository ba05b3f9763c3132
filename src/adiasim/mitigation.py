"""Zero-protocol-time extrapolation of measured energy contributions.

Decoherence damage grows with the protocol duration, so an observable
measured at the end of several protocols of different duration t_ad can be
extrapolated back to t_ad = 0.  Each controlled energy contribution at the
end of the sweep (the XI, IX, XX and YY terms of the estimator, named in
``END_TERMS``) is fitted by a second-order polynomial in t_ad and evaluated
at zero; the mitigated energy is the sum of the extrapolated contributions.
All terms are fitted by one least-squares solve with one column each.

Each run's end row holds the six estimator terms of its last sample, at
s = 1, as the sweep loop weighed them for its trace.  The ZI and IZ
coefficients of H(s) vanish there, which is why only the four
transverse/coupling terms enter.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .tomography import ENERGY_TERMS

__all__ = [
    "DegenerateAbscissae",
    "END_TERMS",
    "extrapolate_quadratic",
    "mitigate_energy",
]

END_TERMS = ("x1", "x2", "xx", "yy")
_END_COLUMNS = [ENERGY_TERMS.index(term) for term in END_TERMS]


class DegenerateAbscissae(ValueError):
    """Raised when fewer than three distinct abscissae are supplied."""


def extrapolate_quadratic(t: Sequence[float], values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares quadratic fits in ``t``, evaluated at zero abscissa.

    ``t`` holds n abscissae, at least three of them distinct, and ``values``
    is an (n,) array or an (n, k) array whose k columns are fitted at once.
    Returns ``(at_zero, residuals)``, each of shape () or (k,): the fitted
    c0 of v(t) = c0 + c1*t + c2*t**2, and the L2 norm of the fit residuals
    (zero to machine precision for exactly three points).  One lstsq solves
    every column on abscissae scaled by their largest magnitude, for conditioning;
    the norm is a ``hypot`` reduction, which neither under- nor overflows in extreme units.
    """
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    distinct = sorted(set(t.tolist()))  # np.unique would import numpy.ma
    if len(distinct) < 3:
        raise DegenerateAbscissae(f"need at least 3 distinct abscissae, got {distinct}")
    u = t / np.max(np.abs(t))
    basis = np.column_stack([np.ones_like(u), u, u * u])
    coeffs, *_ = np.linalg.lstsq(basis, values, rcond=None)
    return coeffs[0], np.hypot.reduce(basis @ coeffs - values, axis=0)


def mitigate_energy(t_ads: Sequence[float],
                    end_terms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extrapolate end-of-protocol energy contributions to zero duration.

    ``t_ads`` holds the run durations [us], and row k of ``end_terms`` the
    (6,) estimator terms, in ``ENERGY_TERMS`` order, at the end of the run
    of duration ``t_ads[k]``.  Returns ``(measured, per_term,
    residuals)``: the (n,) unmitigated end energies [MHz] in ``t_ads``
    order, and the (4,) values at t_ad = 0 and fit residuals of the terms
    in ``END_TERMS`` order.  Each term is extrapolated on its own, which
    keeps term-level diagnostics; because the fit is linear in the data,
    ``per_term.sum()`` is the extrapolated total energy.
    """
    if len(t_ads) == 0:
        raise ValueError("no runs supplied")
    end_terms = np.asarray(end_terms, dtype=float)
    if end_terms.shape != (len(t_ads), len(ENERGY_TERMS)):
        raise ValueError(
            f"end_terms must be a ({len(t_ads)}, {len(ENERGY_TERMS)}) array, "
            f"one row of energy terms per duration; got shape {end_terms.shape}"
        )
    per_term, residuals = extrapolate_quadratic(t_ads, end_terms[:, _END_COLUMNS])
    return end_terms.sum(axis=1), per_term, residuals

"""Unit tests for zero-duration extrapolation of energy contributions."""

import math

import numpy as np
import pytest

from adiasim.mitigation import (
    END_TERMS,
    DegenerateAbscissae,
    extrapolate_quadratic,
    mitigate_energy,
)
from adiasim.schedule import ProtocolSchedule
from adiasim.tomography import CORRELATOR_LABELS, ENERGY_TERMS, energy_terms

N_RANDOM = 120

FIG4_KW = dict(z1=2.5, z2=1.5, x1=1.0, x2=7.3, j_final=1.3, zz=0.2)
T_AD_GRID = (5.0, 10.0, 20.0, 30.0)


def make_row(values: dict) -> np.ndarray:
    """A (10,) correlator row: the given labels, every other term 0."""
    return np.array([values.get(label, 0.0) for label in CORRELATOR_LABELS])


SCHEDULE = ProtocolSchedule(**FIG4_KW)


def end_terms(rows: np.ndarray) -> np.ndarray:
    """The (n, 6) estimator terms of (n, 10) correlator rows at the end of the sweep, s = 1."""
    return energy_terms(rows, SCHEDULE, np.ones(len(rows)))


class TestExtrapolateQuadratic:
    def test_exact_parabola(self):
        value, residual = extrapolate_quadratic([1, 2, 3], [2.0, 5.0, 10.0])
        assert value == pytest.approx(1.0, abs=1e-12)
        assert residual == pytest.approx(0.0, abs=1e-10)

    def test_constant_data(self):
        value, residual = extrapolate_quadratic([5, 10, 20, 30], [3.3] * 4)
        assert value == pytest.approx(3.3, abs=1e-12)
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_exact_on_quadratics(self):
        """Every column of an (n, k) fit is exact on its own random quadratic."""
        rng = np.random.default_rng(61)
        for _ in range(N_RANDOM):
            c = rng.normal(size=(3, 4))
            n_pts = int(rng.integers(3, 8))
            ts = rng.uniform(0.5, 30.0, size=n_pts)
            while len(set(np.round(ts, 12))) < 3:
                ts = rng.uniform(0.5, 30.0, size=n_pts)
            values = c[0] + np.outer(ts, c[1]) + np.outer(ts * ts, c[2])
            at_zero, residuals = extrapolate_quadratic(ts, values)
            scale = max(1.0, float(np.abs(c).max()))
            assert at_zero.shape == residuals.shape == (4,)
            assert np.max(np.abs(at_zero - c[0])) <= 1e-9 * scale
            assert np.max(residuals) <= 1e-8 * scale

    def test_columns_equal_single_fits(self):
        """An (n, 4) fit gives the four (n,) fits of its columns."""
        rng = np.random.default_rng(66)
        for n_pts in (3, 4, 7):
            ts = rng.uniform(1.0, 30.0, size=n_pts)
            values = rng.normal(size=(n_pts, 4))
            at_zero, residuals = extrapolate_quadratic(ts, values)
            for k in range(4):
                value, residual = extrapolate_quadratic(ts, values[:, k])
                assert abs(at_zero[k] - value) <= 1e-12
                assert abs(residuals[k] - residual) <= 1e-12

    def test_order_independent(self):
        ts = np.array([5.0, 10.0, 20.0, 30.0])
        values = np.column_stack([[1.2, 0.8, 0.5, 0.1], [0.3, -0.2, 0.4, 0.9]])
        a = extrapolate_quadratic(ts, values)[0]
        for perm in ([3, 2, 1, 0], [2, 0, 3, 1]):
            b = extrapolate_quadratic(ts[perm], values[perm])[0]
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_least_squares_on_noisy_data(self):
        rng = np.random.default_rng(62)
        ts = np.linspace(1.0, 30.0, 40)
        truth = 2.0 - 0.1 * ts + 0.002 * ts**2
        noisy = truth + rng.normal(scale=1e-3, size=ts.size)
        value, residual = extrapolate_quadratic(ts, noisy)
        assert value == pytest.approx(2.0, abs=5e-3)
        assert residual > 0.0

    def test_requires_three_distinct_abscissae(self):
        with pytest.raises(DegenerateAbscissae):
            extrapolate_quadratic([1.0, 2.0], [0.0, 1.0])
        with pytest.raises(DegenerateAbscissae):
            extrapolate_quadratic([1.0, 1.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0])
        with pytest.raises(DegenerateAbscissae):
            extrapolate_quadratic([1.0, 1.0, 2.0, 2.0], np.zeros((4, 4)))


class TestMitigateEnergy:
    def test_noise_free_runs_change_nothing(self):
        """Identical correlators at every duration extrapolate to themselves."""
        values = {"XI": 0.3, "IX": -0.4, "XX": 0.2, "YY": 0.1}
        terms = end_terms(np.array([make_row(values)] * len(T_AD_GRID)))
        measured, per_term, _ = mitigate_energy(T_AD_GRID, terms)
        single = terms[0].sum()
        assert per_term.sum() == pytest.approx(single, abs=1e-9)
        assert measured[0] == pytest.approx(single, abs=1e-12)

    def test_recovers_synthetic_quadratic_decay(self):
        """Correlators decaying quadratically in duration extrapolate back to
        their zero-duration values exactly."""
        zero_values = {"XI": 0.5, "IX": -0.8, "XX": 0.3, "YY": 0.25}
        decay = {"XI": 0.01, "IX": 0.02, "XX": 0.005, "YY": 0.004}
        rows = np.array([
            make_row({k: zero_values[k] * (1.0 - decay[k] * t_ad + 1e-4 * t_ad**2)
                      for k in zero_values})
            for t_ad in T_AD_GRID
        ])
        measured, per_term, residuals = mitigate_energy(T_AD_GRID, end_terms(rows))
        sch0 = SCHEDULE
        expected = [0.5 * sch0.x1 * zero_values["XI"], 0.5 * sch0.x2 * zero_values["IX"],
                    0.25 * sch0.j_final * zero_values["XX"], 0.25 * sch0.j_final * zero_values["YY"]]
        assert END_TERMS == ("x1", "x2", "xx", "yy")
        assert measured.shape == (len(T_AD_GRID),)
        assert per_term.shape == residuals.shape == (4,)
        assert np.max(np.abs(per_term - expected)) <= 1e-9

    def test_contributions_sum_to_energy(self):
        """The fit is linear in the data: the per-term values sum to the
        extrapolation of the measured total energy."""
        rng = np.random.default_rng(64)
        for _ in range(25):
            rows = np.array([
                make_row({k: rng.uniform(-0.9, 0.9) for k in ("XI", "IX", "XX", "YY")})
                for _ in T_AD_GRID
            ])
            measured, per_term, _ = mitigate_energy(T_AD_GRID, end_terms(rows))
            total, _ = extrapolate_quadratic(T_AD_GRID, measured)
            assert per_term.sum() == pytest.approx(total, abs=1e-9)

    def test_rows_must_match_schedules(self):
        """One row of all six energy terms per duration, or ValueError."""
        n = len(T_AD_GRID)
        width = len(ENERGY_TERMS)
        for shape in ((n - 1, width), (n + 1, width), (n, width - 2), (n, width + 1), (width,)):
            with pytest.raises(ValueError, match="one row of energy terms per duration"):
                mitigate_energy(T_AD_GRID, np.zeros(shape))
        with pytest.raises(ValueError, match="no runs"):
            mitigate_energy([], np.zeros((0, width)))

    def test_soft_property_on_convex_decay(self):
        """For convexly decaying magnitudes the extrapolated value tends to
        sit at or above the largest measurement.  This is reported, not
        asserted, because quadratic fits can undershoot on non-convex data."""
        rows = np.array([make_row({"IX": 0.9 * math.exp(-t_ad / 20.0)}) for t_ad in T_AD_GRID])
        measured, per_term, _ = mitigate_energy(T_AD_GRID, end_terms(rows))
        energy = per_term.sum()
        largest = np.max(np.abs(measured))
        print(f"soft check: |extrapolated| = {abs(energy):.6f}, "
              f"largest measured = {largest:.6f}, "
              f"holds = {abs(energy) >= largest}")

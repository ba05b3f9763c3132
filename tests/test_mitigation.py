"""Unit tests for zero-duration extrapolation of energy contributions."""

import math

import numpy as np
import pytest

from adiasim.mitigation import (
    DegenerateAbscissae,
    MitigatedEnergy,
    extrapolate_quadratic,
    mitigate_energy,
)
from adiasim.schedule import ProtocolSchedule
from adiasim.tomography import CORRELATOR_LABELS, energy_terms

N_RANDOM = 120

FIG4_KW = dict(z1=2.5, z2=1.5, x1=1.0, x2=7.3, j_final=1.3, zz=0.2)
T_AD_GRID = (5.0, 10.0, 20.0, 30.0)


def make_row(values: dict) -> np.ndarray:
    """A (10,) correlator row: the given labels, every other term 0."""
    return np.array([values.get(label, 0.0) for label in CORRELATOR_LABELS])


SCHEDULE = ProtocolSchedule(**FIG4_KW)


class TestExtrapolateQuadratic:
    def test_exact_parabola(self):
        value, coeffs, residual = extrapolate_quadratic([(1, 2.0), (2, 5.0), (3, 10.0)])
        assert value == pytest.approx(1.0, abs=1e-12)
        assert coeffs == pytest.approx([1.0, 0.0, 1.0], abs=1e-10)
        assert residual == pytest.approx(0.0, abs=1e-10)

    def test_constant_data(self):
        value, coeffs, residual = extrapolate_quadratic(
            [(5, 3.3), (10, 3.3), (20, 3.3), (30, 3.3)])
        assert value == pytest.approx(3.3, abs=1e-12)
        assert coeffs == pytest.approx([3.3, 0.0, 0.0], abs=1e-12)
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_exact_on_quadratics(self):
        rng = np.random.default_rng(61)
        for _ in range(N_RANDOM):
            c0, c1, c2 = rng.normal(size=3)
            n_pts = int(rng.integers(3, 8))
            ts = rng.uniform(0.5, 30.0, size=n_pts)
            while len(set(np.round(ts, 12))) < 3:
                ts = rng.uniform(0.5, 30.0, size=n_pts)
            pts = [(t, c0 + c1 * t + c2 * t * t) for t in ts]
            value, coeffs, residual = extrapolate_quadratic(pts)
            scale = max(1.0, abs(c0), abs(c1), abs(c2))
            assert abs(value - c0) <= 1e-9 * scale
            assert np.allclose(coeffs, [c0, c1, c2], atol=1e-8 * scale)
            assert residual <= 1e-8 * scale

    def test_order_independent(self):
        pts = [(5.0, 1.2), (10.0, 0.8), (20.0, 0.5), (30.0, 0.1)]
        a = extrapolate_quadratic(pts)[0]
        b = extrapolate_quadratic(list(reversed(pts)))[0]
        c = extrapolate_quadratic([pts[2], pts[0], pts[3], pts[1]])[0]
        assert a == pytest.approx(b, abs=1e-12)
        assert a == pytest.approx(c, abs=1e-12)

    def test_least_squares_on_noisy_data(self):
        rng = np.random.default_rng(62)
        ts = np.linspace(1.0, 30.0, 40)
        truth = 2.0 - 0.1 * ts + 0.002 * ts**2
        noisy = truth + rng.normal(scale=1e-3, size=ts.size)
        value, _, residual = extrapolate_quadratic(list(zip(ts, noisy)))
        assert value == pytest.approx(2.0, abs=5e-3)
        assert residual > 0.0

    def test_requires_three_distinct_abscissae(self):
        with pytest.raises(DegenerateAbscissae):
            extrapolate_quadratic([(1.0, 0.0), (2.0, 1.0)])
        with pytest.raises(DegenerateAbscissae):
            extrapolate_quadratic([(1.0, 0.0), (1.0, 1.0), (1.0, 2.0), (2.0, 3.0)])


class TestMitigateEnergy:
    def test_noise_free_runs_change_nothing(self):
        """Identical correlators at every duration extrapolate to themselves."""
        values = {"XI": 0.3, "IX": -0.4, "XX": 0.2, "YY": 0.1}
        rows = np.array([make_row(values)] * len(T_AD_GRID))
        result = mitigate_energy(SCHEDULE, T_AD_GRID, rows)
        single = energy_terms(rows[:1], SCHEDULE, [1.0]).sum()
        assert result.energy == pytest.approx(single, abs=1e-9)
        assert result.measured[5.0] == pytest.approx(single, abs=1e-12)

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
        result = mitigate_energy(SCHEDULE, T_AD_GRID, rows)
        sch0 = SCHEDULE
        expected = (
            0.5 * sch0.x1 * zero_values["XI"]
            + 0.5 * sch0.x2 * zero_values["IX"]
            + 0.25 * sch0.j_final * (zero_values["XX"] + zero_values["YY"])
        )
        assert result.energy == pytest.approx(expected, abs=1e-9)
        assert set(result.contributions) == {"x1", "x2", "xx", "yy"}

    def test_contributions_sum_to_energy(self):
        rng = np.random.default_rng(64)
        for _ in range(25):
            rows = np.array([
                make_row({k: rng.uniform(-0.9, 0.9) for k in ("XI", "IX", "XX", "YY")})
                for _ in T_AD_GRID
            ])
            result = mitigate_energy(SCHEDULE, T_AD_GRID, rows)
            assert result.energy == pytest.approx(
                sum(result.contributions.values()), abs=1e-9)

    def test_rows_must_match_schedules(self):
        """One row of all ten correlators per duration, or ValueError."""
        n = len(T_AD_GRID)
        width = len(CORRELATOR_LABELS)
        for shape in ((n - 1, width), (n + 1, width), (n, width - 2), (n, width + 1), (width,)):
            with pytest.raises(ValueError, match="one correlator row per duration"):
                mitigate_energy(SCHEDULE, T_AD_GRID, np.zeros(shape))
        with pytest.raises(ValueError, match="no runs"):
            mitigate_energy(SCHEDULE, [], np.zeros((0, width)))

    def test_regime_change_warning(self):
        rows = np.array([make_row({"IX": 0.1})] * len(T_AD_GRID))
        fids = {5.0: 0.30, 10.0: 0.49, 20.0: 0.76, 30.0: 0.88}
        flagged = mitigate_energy(SCHEDULE, T_AD_GRID, rows, passage_fidelities=fids)
        assert flagged.warning is not None
        assert "0.5" in flagged.warning
        all_adiabatic = {t: 0.9 for t in T_AD_GRID}
        clean = mitigate_energy(SCHEDULE, T_AD_GRID, rows, passage_fidelities=all_adiabatic)
        assert clean.warning is None
        assert mitigate_energy(SCHEDULE, T_AD_GRID, rows).warning is None

    def test_sum_invariant_enforced(self):
        with pytest.raises(ValueError):
            MitigatedEnergy(energy=1.0, contributions={"x1": 0.0},
                            residuals={}, measured={}, warning=None)

    def test_soft_property_on_convex_decay(self):
        """For convexly decaying magnitudes the extrapolated value tends to
        sit at or above the largest measurement.  This is reported, not
        asserted, because quadratic fits can undershoot on non-convex data."""
        rows = np.array([make_row({"IX": 0.9 * math.exp(-t_ad / 20.0)}) for t_ad in T_AD_GRID])
        result = mitigate_energy(SCHEDULE, T_AD_GRID, rows)
        largest = max(abs(v) for v in result.measured.values())
        print(f"soft check: |extrapolated| = {abs(result.energy):.6f}, "
              f"largest measured = {largest:.6f}, "
              f"holds = {abs(result.energy) >= largest}")

"""Unit tests for chevron maps, Rabi fits, and amplitude-polynomial fits."""

import math

import numpy as np
import pytest

from adiasim.calibration import (
    ChevronMap,
    CouplingModel,
    DegenerateBasis,
    InsufficientSpan,
    chevron_map,
    fit_coupling,
    fit_dispersive,
    fit_rabi,
    oscillation_frequency,
    swap_population,
)
from adiasim.calibration import _rabi_objective

N_RANDOM = 100


def rabi_pairs(j: float, f_res: float, f_points) -> list:
    """Noiseless generalized-Rabi observations Omega = sqrt(j^2 + delta^2)."""
    return [(f, math.hypot(j, f - f_res)) for f in f_points]


class TestSwapPopulation:
    @pytest.mark.parametrize("j", [0.5, 1.0, 1.3, 4.0])
    def test_resonant_half_period_is_complete_swap(self, j):
        assert swap_population(j, 0.0, 1.0 / (2.0 * j)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_time_is_zero(self):
        assert swap_population(1.3, 0.7, 0.0) == 0.0

    def test_detuned_half_period(self):
        # Omega = sqrt(1 + 1) = sqrt(2) MHz; at its half period t = 0.3536 us
        # the sin^2 factor is ~1 and the contrast caps the transfer at
        # j^2 / (j^2 + delta^2) = 1/2.
        assert swap_population(1.0, 1.0, 0.3536) == pytest.approx(0.5, abs=1e-4)

    def test_zero_coupling_never_transfers(self):
        assert swap_population(0.0, 2.0, 0.7) == 0.0
        assert swap_population(0.0, 0.0, 0.7) == 0.0

    def test_bounded_by_contrast(self):
        rng = np.random.default_rng(11)
        for _ in range(N_RANDOM):
            j = rng.uniform(0.1, 5.0)
            delta = rng.uniform(-5.0, 5.0)
            t = rng.uniform(0.0, 10.0)
            p = swap_population(j, delta, t)
            contrast = j * j / (j * j + delta * delta)
            assert 0.0 <= p <= contrast + 1e-12

    def test_full_period_returns_to_zero(self):
        rng = np.random.default_rng(12)
        for _ in range(N_RANDOM):
            j = rng.uniform(0.1, 4.0)
            delta = rng.uniform(-3.0, 3.0)
            period = 1.0 / math.hypot(j, delta)
            assert swap_population(j, delta, period) == pytest.approx(0.0, abs=1e-12)


class TestChevronMap:
    def test_grid_shape_and_axes(self):
        cm = chevron_map(1.3, (-4.0, 4.0), (0.0, 2.0), grid=(17, 41))
        assert cm.f_tc.shape == (17,)
        assert cm.times.shape == (41,)
        assert cm.populations.shape == (17, 41)
        assert cm.f_tc[0] == pytest.approx(-4.0)
        assert cm.f_tc[-1] == pytest.approx(4.0)
        assert cm.times[0] == 0.0
        assert cm.times[-1] == pytest.approx(2.0)

    def test_matches_scalar_formula(self):
        cm = chevron_map(0.9, (-2.5, 2.5), (0.0, 3.0), grid=(9, 25))
        for i, f in enumerate(cm.f_tc):
            for k, t in enumerate(cm.times):
                assert cm.populations[i, k] == pytest.approx(
                    swap_population(0.9, f, t), abs=1e-12)

    def test_absolute_frequency_axis(self):
        cm = chevron_map(1.0, (-1.0, 1.0), (0.0, 1.0), grid=(5, 11),
                         f_center=1097.0)
        assert cm.f_tc[0] == pytest.approx(1096.0)
        assert cm.f_tc[-1] == pytest.approx(1098.0)
        assert cm.f_tc[2] == pytest.approx(1097.0)
        # Populations depend only on the detuning, not the absolute center.
        base = chevron_map(1.0, (-1.0, 1.0), (0.0, 1.0), grid=(5, 11))
        np.testing.assert_allclose(cm.populations, base.populations, atol=1e-15)

    def test_populations_within_unit_interval(self):
        cm = chevron_map(2.2, (-6.0, 6.0), (0.0, 4.0), grid=(31, 101))
        assert np.all(cm.populations >= -1e-9)
        assert np.all(cm.populations <= 1.0 + 1e-9)

    def test_resonant_column_reaches_unity(self):
        j = 1.25
        # Odd frequency count puts a grid point exactly on resonance, and the
        # time grid lands exactly on the half period 1/(2j) = 0.4 us.
        cm = chevron_map(j, (-3.0, 3.0), (0.0, 0.8), grid=(7, 5))
        mid = 3
        assert cm.f_tc[mid] == pytest.approx(0.0, abs=1e-12)
        assert cm.populations[mid].max() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonpositive_coupling(self):
        with pytest.raises(ValueError, match="positive"):
            chevron_map(0.0, (-1.0, 1.0), (0.0, 1.0), grid=(5, 11))
        with pytest.raises(ValueError, match="positive"):
            chevron_map(-1.3, (-1.0, 1.0), (0.0, 1.0), grid=(5, 11))

    def test_rejects_degenerate_grid(self):
        with pytest.raises(ValueError, match="grid"):
            chevron_map(1.0, (-1.0, 1.0), (0.0, 1.0), grid=(0, 11))
        with pytest.raises(ValueError, match="grid"):
            chevron_map(1.0, (-1.0, 1.0), (0.0, 1.0), grid=(5, 1))

    def test_constructor_rejects_out_of_range_population(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ChevronMap(f_tc=np.array([0.0]), times=np.array([0.0, 1.0]),
                       populations=np.array([[0.0, 1.5]]))


class TestOscillationFrequency:
    def test_recovers_synthetic_cosines(self):
        times = np.linspace(0.0, 8.0, 161)
        rng = np.random.default_rng(21)
        for _ in range(N_RANDOM):
            freq = rng.uniform(0.8, 3.0)
            amp = rng.uniform(0.2, 1.0)
            offset = rng.uniform(-1.0, 1.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            values = offset + amp * np.cos(2.0 * np.pi * freq * times + phase)
            est = oscillation_frequency(times, values)
            assert est == pytest.approx(freq, rel=1e-2)

    def test_swap_record_yields_generalized_rabi_frequency(self):
        # P(t) = contrast * sin^2(pi Omega t) oscillates at Omega, not Omega/2.
        j, delta = 1.3, 0.9
        omega = math.hypot(j, delta)
        times = np.linspace(0.0, 6.0, 241)
        values = np.array([swap_population(j, delta, t) for t in times])
        assert oscillation_frequency(times, values) == pytest.approx(omega, rel=1e-2)

    def test_invariant_under_offset_and_scale(self):
        times = np.linspace(0.0, 8.0, 161)
        values = np.cos(2.0 * np.pi * 1.7 * times)
        base = oscillation_frequency(times, values)
        shifted = oscillation_frequency(times, 5.0 + 0.1 * values)
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_rejects_short_records(self):
        with pytest.raises(ValueError, match="at least 4"):
            oscillation_frequency(np.array([0.0, 0.1, 0.2]), np.zeros(3))

    def test_rejects_nonuniform_time_axis(self):
        times = np.array([0.0, 0.1, 0.25, 0.3, 0.4, 0.5])
        with pytest.raises(ValueError, match="uniform"):
            oscillation_frequency(times, np.cos(times))

    def test_stack_of_records_equals_each_record(self):
        """A chevron's columns in one call give each column's own call, bit for bit."""
        cmap = chevron_map(2.0, (-6.0, 6.0), (0.0, 8.0), (41, 161), f_center=1097.0)
        batched = oscillation_frequency(cmap.times, cmap.populations)
        single = [oscillation_frequency(cmap.times, record) for record in cmap.populations]
        assert batched.shape == (41,)
        assert all(isinstance(value, float) for value in single)
        assert np.array_equal(batched, single)

    def test_stack_must_match_time_axis(self):
        times = np.linspace(0.0, 1.0, 8)
        with pytest.raises(ValueError, match="matching time axis"):
            oscillation_frequency(times, np.zeros((3, 7)))
        with pytest.raises(ValueError, match="matching time axis"):
            oscillation_frequency(times, np.zeros((2, 3, 8)))


class TestFitRabi:
    def test_round_trip_noiseless_hyperbola(self):
        f_points = np.linspace(1092.0, 1102.0, 21)
        j, f_res, residual = fit_rabi(rabi_pairs(2.0, 1097.0, f_points))
        assert j == pytest.approx(2.0, abs=1e-6)
        assert f_res == pytest.approx(1097.0, abs=1e-6)
        assert residual == pytest.approx(0.0, abs=1e-6)

    def test_translation_covariance(self):
        f_points = np.linspace(-5.0, 5.0, 15)
        j0, f0, _ = fit_rabi(rabi_pairs(1.4, 0.3, f_points))
        shift = 250.0
        j1, f1, _ = fit_rabi(rabi_pairs(1.4, 0.3 + shift, f_points + shift))
        assert j1 == pytest.approx(j0, abs=1e-6)
        assert f1 - f0 == pytest.approx(shift, abs=1e-6)

    def test_single_sided_data_raises(self):
        f_points = np.linspace(1100.0, 1110.0, 9)  # all above the resonance
        with pytest.raises(InsufficientSpan):
            fit_rabi(rabi_pairs(2.0, 1097.0, f_points))

    def test_requires_three_points(self):
        with pytest.raises(ValueError, match="3 points"):
            fit_rabi([(0.0, 1.0), (1.0, 1.5)])

    def test_identical_frequencies_raise(self):
        with pytest.raises(DegenerateBasis):
            fit_rabi([(5.0, 1.0), (5.0, 1.2), (5.0, 1.4)])

    def test_random_round_trips(self):
        rng = np.random.default_rng(31)
        for _ in range(N_RANDOM):
            j = rng.uniform(0.3, 4.0)
            f_res = rng.uniform(-50.0, 50.0)
            half_span = rng.uniform(2.0, 8.0) * j
            f_points = f_res + np.linspace(-half_span, half_span, 13)
            j_fit, f_fit, residual = fit_rabi(rabi_pairs(j, f_res, f_points))
            assert j_fit == pytest.approx(j, abs=1e-6)
            assert f_fit == pytest.approx(f_res, abs=1e-6)
            assert residual < 1e-6

    def test_candidate_scan_matches_one_candidate_at_a_time(self):
        """The broadcast errors of the coarse scan are those of the formula
        evaluated for one candidate at a time, so the scan picks the same one."""
        rng = np.random.default_rng(33)
        f_points = np.linspace(1091.0, 1103.0, 41)
        omegas = np.hypot(2.0, f_points - 1097.3) + rng.normal(0.0, 0.01, f_points.size)
        candidates = np.linspace(f_points[0], f_points[-1], 401)
        _, errors = _rabi_objective(f_points, omegas, candidates)

        def one(f_res):
            det_sq = (f_points - f_res) ** 2
            j_sq = max(float(np.mean(omegas**2 - det_sq)), 0.0)
            return float(np.sum((np.sqrt(j_sq + det_sq) - omegas) ** 2))

        reference = [one(f_res) for f_res in candidates]
        assert np.array_equal(errors, reference)
        assert np.argmin(errors) == np.argmin(reference)

    def test_noisy_data_keeps_residual(self):
        rng = np.random.default_rng(32)
        f_points = np.linspace(1090.0, 1104.0, 25)
        pairs = [(f, w + rng.normal(0.0, 0.02))
                 for f, w in rabi_pairs(2.0, 1097.0, f_points)]
        j, f_res, residual = fit_rabi(pairs)
        assert j == pytest.approx(2.0, abs=0.05)
        assert f_res == pytest.approx(1097.0, abs=0.1)
        assert residual > 0.0


class TestFitDispersive:
    def test_pure_quadratic(self):
        amps = np.array([0.1, 0.2, 0.3, 0.4])
        c2, c4, residual = fit_dispersive(amps, -0.1 * amps**2)
        assert c2 == pytest.approx(-0.1, abs=1e-12)
        assert c4 == pytest.approx(0.0, abs=1e-12)
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_quartic_round_trip(self):
        amps = np.array([0.2, 0.4, 0.6, 0.8, 1.0])
        shifts = -0.05 * amps**2 - 0.02 * amps**4
        c2, c4, residual = fit_dispersive(amps, shifts)
        assert c2 == pytest.approx(-0.05, abs=1e-9)
        assert c4 == pytest.approx(-0.02, abs=1e-9)
        assert residual < 1e-9

    def test_zero_amplitude_datum_contributes_residual_only(self):
        amps = np.array([0.0, 0.5, 1.0])
        shifts = np.array([0.03, -0.05 * 0.25, -0.05])
        c2, c4, residual = fit_dispersive(amps, shifts)
        # The model is pinned to zero shift at A = 0, so the stray 0.03 at
        # A = 0 is pure misfit and the nonzero-amplitude points still fit.
        assert c2 == pytest.approx(-0.05, abs=1e-9)
        assert c4 == pytest.approx(0.0, abs=1e-9)
        assert residual == pytest.approx(0.03, abs=1e-9)

    def test_random_round_trips(self):
        rng = np.random.default_rng(41)
        for _ in range(N_RANDOM):
            c2, c4 = rng.uniform(-0.5, 0.5, size=2)
            amps = rng.uniform(0.1, 1.0, size=rng.integers(3, 8))
            amps[0] *= 2.0  # guarantee two distinct magnitudes
            c2_fit, c4_fit, residual = fit_dispersive(
                amps, c2 * amps**2 + c4 * amps**4)
            assert c2_fit == pytest.approx(c2, abs=1e-8)
            assert c4_fit == pytest.approx(c4, abs=1e-8)
            assert residual < 1e-9

    def test_single_magnitude_is_degenerate(self):
        with pytest.raises(DegenerateBasis):
            fit_dispersive(np.array([0.5, -0.5]), np.array([0.01, 0.01]))
        with pytest.raises(DegenerateBasis):
            fit_dispersive(np.array([0.0, 0.7]), np.array([0.0, 0.02]))


class TestFitCoupling:
    def test_pure_linear(self):
        amps = np.array([0.1, 0.3, 0.5])
        b1, b3, residual = fit_coupling(amps, 3.0 * amps)
        assert b1 == pytest.approx(3.0, abs=1e-12)
        assert b3 == pytest.approx(0.0, abs=1e-12)
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_cubic_round_trip(self):
        amps = np.array([0.2, 0.4, 0.6, 0.8, 1.0])
        b1, b3, residual = fit_coupling(amps, 2.0 * amps + 0.5 * amps**3)
        assert b1 == pytest.approx(2.0, abs=1e-9)
        assert b3 == pytest.approx(0.5, abs=1e-9)
        assert residual < 1e-9

    def test_fitted_model_is_odd(self):
        amps = np.array([-0.8, -0.4, 0.3, 0.6, 0.9])
        b1, b3, _ = fit_coupling(amps, 1.7 * amps + 0.4 * amps**3)
        model = lambda a: b1 * a + b3 * a**3
        for a in (0.25, 0.5, 0.75):
            assert model(-a) == pytest.approx(-model(a), abs=1e-12)
        assert model(0.0) == 0.0

    def test_random_round_trips(self):
        rng = np.random.default_rng(51)
        for _ in range(N_RANDOM):
            b1 = rng.uniform(0.5, 4.0)
            b3 = rng.uniform(-1.0, 2.0)
            amps = rng.uniform(0.1, 1.0, size=rng.integers(3, 8))
            amps[0] *= 2.0
            b1_fit, b3_fit, residual = fit_coupling(amps, b1 * amps + b3 * amps**3)
            assert b1_fit == pytest.approx(b1, abs=1e-8)
            assert b3_fit == pytest.approx(b3, abs=1e-8)
            assert residual < 1e-9

    def test_single_magnitude_is_degenerate(self):
        with pytest.raises(DegenerateBasis):
            fit_coupling(np.array([0.5, 0.5]), np.array([1.0, 1.0]))


class TestCouplingModel:
    def test_coupling_polynomial(self):
        model = CouplingModel(b1=2.2, b3=1.5)
        assert model.coupling(0.0) == 0.0
        assert model.coupling(0.5) == pytest.approx(2.2 * 0.5 + 1.5 * 0.125)
        assert model.coupling(-0.5) == pytest.approx(-model.coupling(0.5))

    def test_dispersive_shift_even_and_per_qubit(self):
        model = CouplingModel(b1=1.0, b3=0.0, c2=(-0.05, -0.012), c4=(0.0, -0.003))
        for a in (0.3, 0.7, 1.0):
            assert model.dispersive_shift(a, 1) == model.dispersive_shift(-a, 1)
            assert model.dispersive_shift(a, 2) == model.dispersive_shift(-a, 2)
        assert model.dispersive_shift(0.0, 1) == 0.0
        assert model.dispersive_shift(1.0, 1) == pytest.approx(-0.05)
        assert model.dispersive_shift(1.0, 2) == pytest.approx(-0.015)

    def test_scalar_coefficients_broadcast(self):
        model = CouplingModel(b1=1.0, b3=0.0, c2=-0.04, c4=0.01)
        assert model.c2 == (-0.04, -0.04)
        assert model.c4 == (0.01, 0.01)
        assert model.resonance_shift(0.9) == pytest.approx(0.0, abs=1e-15)

    def test_qubit_index_validation(self):
        model = CouplingModel(b1=1.0, b3=0.0)
        with pytest.raises(ValueError, match="qubit index"):
            model.dispersive_shift(0.5, 0)
        with pytest.raises(ValueError, match="qubit index"):
            model.dispersive_shift(0.5, 3)

    def test_resonance_shift_is_shift_difference(self):
        model = CouplingModel(b1=2.2, b3=1.5, c2=(-0.05, -0.012), c4=(0.0, -0.003))
        for a in (0.2, 0.6, 1.0):
            expected = (model.dispersive_shift(a, 1)
                        - model.dispersive_shift(a, 2))
            assert model.resonance_shift(a) == pytest.approx(expected, abs=1e-15)

    def test_model_round_trips_through_fits(self):
        model = CouplingModel(b1=2.2, b3=1.5, c2=(-0.05, -0.012))
        amps = np.linspace(0.1, 1.0, 10)
        b1, b3, _ = fit_coupling(amps, [model.coupling(a) for a in amps])
        assert b1 == pytest.approx(model.b1, abs=1e-9)
        assert b3 == pytest.approx(model.b3, abs=1e-9)
        c2, c4, _ = fit_dispersive(
            amps, [model.dispersive_shift(a, 1) for a in amps])
        assert c2 == pytest.approx(model.c2[0], abs=1e-9)
        assert c4 == pytest.approx(model.c4[0], abs=1e-9)


class TestPipelineProperties:
    def test_chevron_visibility_matches_contrast(self):
        # For each (j, delta) the column is contrast * sin^2(pi Omega t); a
        # least-squares fit against the known sin^2 shape recovers the
        # visibility, which must equal j^2 / (j^2 + delta^2).
        rng = np.random.default_rng(61)
        for _ in range(20):
            j = rng.uniform(0.3, 3.0)
            delta = rng.uniform(-4.0, 4.0)
            omega = math.hypot(j, delta)
            times = np.linspace(0.0, 2.0 / omega, 257)
            column = np.array([swap_population(j, delta, t) for t in times])
            shape = np.sin(np.pi * omega * times) ** 2
            visibility = float(shape @ column / (shape @ shape))
            assert visibility == pytest.approx(j * j / (j * j + delta * delta),
                                               abs=1e-10)

    def test_chevron_to_rabi_pipeline_recovers_coupling(self):
        j_true = 1.4
        cm = chevron_map(j_true, (-4.0, 4.0), (0.0, 4.0), grid=(21, 161),
                         f_center=1097.0)
        pairs = []
        for i in range(len(cm.f_tc)):
            omega = oscillation_frequency(cm.times, cm.populations[i])
            pairs.append((cm.f_tc[i], omega))
        j_fit, f_res, _ = fit_rabi(pairs)
        assert j_fit == pytest.approx(j_true, rel=0.01)
        assert f_res == pytest.approx(1097.0, abs=0.1)

    def test_resonance_tracks_dispersive_shift(self):
        # Shifting both qubit frequencies by their dispersive-model
        # predictions moves the swap resonance by the difference of the
        # shifts.
        model = CouplingModel(b1=2.2, b3=1.5, c2=(-0.05, -0.012), c4=(0.0, -0.003))
        f_res0 = 1097.0
        f_points = np.linspace(-8.0, 8.0, 17)
        amplitude = 0.8
        j_drive = model.coupling(amplitude)
        predicted = model.resonance_shift(amplitude)
        _, fit0, _ = fit_rabi(rabi_pairs(j_drive, f_res0, f_res0 + f_points))
        _, fit1, _ = fit_rabi(rabi_pairs(
            j_drive, f_res0 + predicted, f_res0 + predicted + f_points))
        assert fit1 - fit0 == pytest.approx(predicted, abs=1e-6)
        assert predicted == pytest.approx(
            model.dispersive_shift(amplitude, 1)
            - model.dispersive_shift(amplitude, 2), abs=1e-15)

"""Unit tests for correlator measurement, energy estimation, frame rotation."""

import math

import numpy as np
import pytest

from adiasim.config import validate_config
from adiasim.dynamics import BadIndex, NoiseModel, basis_state, propagate_lindblad, propagate_unitary
from adiasim.operators import PAULI_LABELS_2Q, pauli_2q
from adiasim.scenarios import _measure, _measurement_seed
from adiasim.schedule import ProtocolSchedule
from adiasim.tomography import (
    CORRELATOR_LABELS,
    CROSS_LABELS,
    ENERGY_TERMS,
    EnergyEstimate,
    MissingTerm,
    Tomogram,
    energy_from_correlators,
    energy_terms,
    expectation,
    measure_correlators,
    measure_tomogram,
    rotate_frame,
    sample_expectation,
)

N_RANDOM = 100

FIG3_SCHEDULE = ProtocolSchedule(z1=2.5, z2=1.5, x1=2.0, x2=4.1, j_final=1.7,
                                 zz=0.2, t_ad=30.0)
FIG4_SCHEDULE = ProtocolSchedule(z1=2.5, z2=1.5, x1=1.0, x2=7.3, j_final=1.3,
                                 zz=0.2, t_ad=10.0)
PSI0 = (basis_state("01") + 1j * basis_state("10")) / math.sqrt(2)


def random_pure_state(rng: np.random.Generator) -> np.ndarray:
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    return psi / np.linalg.norm(psi)


def random_schedule(rng: np.random.Generator) -> ProtocolSchedule:
    return ProtocolSchedule(
        z1=rng.uniform(-5, 5), z2=rng.uniform(-5, 5),
        x1=rng.uniform(-8, 8), x2=rng.uniform(-8, 8),
        j_final=rng.uniform(-3, 3), zz=0.0, t_ad=rng.uniform(1.0, 40.0),
    )


class TestExpectation:
    def test_ground_state_zi(self):
        assert expectation(basis_state("00"), "ZI") == pytest.approx(-1.0)
        assert expectation(basis_state("00"), "IZ") == pytest.approx(-1.0)

    def test_bell_state_xx(self):
        bell = (basis_state("01") + basis_state("10")) / math.sqrt(2)
        assert expectation(bell, "XX") == pytest.approx(1.0)
        assert expectation(bell, "YY") == pytest.approx(1.0)

    def test_maximally_mixed(self):
        rho = np.eye(4, dtype=complex) / 4.0
        for label in PAULI_LABELS_2Q:
            assert expectation(rho, label) == pytest.approx(0.0, abs=1e-12)

    def test_pure_equals_projector(self):
        rng = np.random.default_rng(31)
        for _ in range(N_RANDOM):
            psi = random_pure_state(rng)
            rho = np.outer(psi, psi.conj())
            label = PAULI_LABELS_2Q[rng.integers(len(PAULI_LABELS_2Q))]
            assert expectation(psi, label) == pytest.approx(
                expectation(rho, label), abs=1e-12)

    def test_result_is_real_and_bounded(self):
        rng = np.random.default_rng(32)
        for _ in range(N_RANDOM):
            psi = random_pure_state(rng)
            for label in PAULI_LABELS_2Q:
                val = expectation(psi, label)
                assert isinstance(val, float)
                assert -1.0 - 1e-12 <= val <= 1.0 + 1e-12


class TestSampling:
    def test_eigenstate_is_exact_for_any_shots(self):
        for shots in (1, 10, 1000):
            val = sample_expectation(basis_state("00"), "ZI", shots, rng_seed=0)
            assert val == -1.0

    def test_zero_expectation_spread(self):
        """A <P>=0 state sampled with 10000 shots lands within +-0.05
        (5 sigma) for at least 99% of seeds."""
        plus = (basis_state("00") + basis_state("01")) / math.sqrt(2)  # <IZ>=0
        hits = sum(
            abs(sample_expectation(plus, "IZ", 10_000, rng_seed=seed)) <= 0.05
            for seed in range(200)
        )
        assert hits >= 198

    def test_estimator_is_unbiased(self):
        """Averaged over many seeds the estimator converges to the exact
        expectation within 3 standard errors."""
        rng = np.random.default_rng(33)
        psi = random_pure_state(rng)
        label = "IX"
        exact = expectation(psi, label)
        shots = 100
        n_seeds = 1000
        draws = [sample_expectation(psi, label, shots, rng_seed=k)
                 for k in range(n_seeds)]
        sigma = math.sqrt((1.0 - exact**2) / shots)
        assert abs(np.mean(draws) - exact) <= 3.0 * sigma / math.sqrt(n_seeds)

    def test_deterministic_given_seed(self):
        psi = (basis_state("00") + 1j * basis_state("11")) / math.sqrt(2)
        a = sample_expectation(psi, "XX", 500, rng_seed=42)
        b = sample_expectation(psi, "XX", 500, rng_seed=42)
        assert a == b
        c = sample_expectation(psi, "XX", 500, rng_seed=43)
        assert a != c  # overwhelmingly likely for 500 shots

    def test_requires_positive_shots(self):
        with pytest.raises(ValueError):
            sample_expectation(basis_state("00"), "ZI", 0, rng_seed=0)


class TestTomogram:
    def test_contains_all_standard_terms(self):
        tom = measure_tomogram(basis_state("00"), 0.0)
        for label in PAULI_LABELS_2Q:
            assert label in tom.values
        for label in CROSS_LABELS:
            assert label in tom.values
        assert tom.shots == 0
        assert tom.time == 0.0

    def test_exact_mode_matches_expectation(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            psi = random_pure_state(rng)
            tom = measure_tomogram(psi, 1.0)
            for label in PAULI_LABELS_2Q:
                assert tom[label] == pytest.approx(expectation(psi, label), abs=1e-12)

    def test_missing_term_raises(self):
        tom = measure_tomogram(basis_state("00"), 0.0, include_cross=False)
        with pytest.raises(MissingTerm):
            tom["XY"]
        assert tom.get("XY") is None

    def test_sampled_mode_bounds(self):
        rng = np.random.default_rng(35)
        for seed in range(30):
            psi = random_pure_state(rng)
            tom = measure_tomogram(psi, 2.0, shots=400, rng_seed=seed)
            assert tom.shots == 400
            eps = 3.0 / math.sqrt(400)
            for label in PAULI_LABELS_2Q:
                assert -1 - eps <= tom[label] <= 1 + eps
                # sampled values also stay within the statistical envelope
                # of the exact value for these seeds
                assert abs(tom[label] - expectation(psi, label)) <= 5 * eps

    def test_sampled_terms_use_independent_streams(self):
        """Two terms with identical exact expectations should not produce
        identical sampling noise."""
        psi = (basis_state("00") + basis_state("11")) / math.sqrt(2)
        tom = measure_tomogram(psi, 0.0, shots=400, rng_seed=7)
        assert tom["XX"] != tom["YY"] or tom["ZI"] != tom["IZ"]

    def test_sampled_reproducible(self):
        psi = (basis_state("01") + basis_state("10")) / math.sqrt(2)
        a = measure_tomogram(psi, 0.0, shots=300, rng_seed=11)
        b = measure_tomogram(psi, 0.0, shots=300, rng_seed=11)
        assert a.values == b.values

    def test_construction_rejects_out_of_range(self):
        values = {label: 0.0 for label in PAULI_LABELS_2Q}
        values["XI"] = 1.5
        with pytest.raises(ValueError):
            Tomogram(time=0.0, values=values, shots=0)

    def test_construction_requires_all_terms(self):
        values = {label: 0.0 for label in PAULI_LABELS_2Q[:-1]}
        with pytest.raises(MissingTerm):
            Tomogram(time=0.0, values=values, shots=0)


def reference_energy(values: dict, sch: ProtocolSchedule, t: float) -> dict:
    """The six estimator terms written out from the schedule's parameters."""
    s = t / sch.t_ad
    j = s * sch.j_final
    return {
        "z1": (1.0 - s) * 0.5 * sch.z1 * values["ZI"],
        "z2": (1.0 - s) * 0.5 * sch.z2 * values["IZ"],
        "x1": s * 0.5 * sch.x1 * values["XI"],
        "x2": s * 0.5 * sch.x2 * values["IX"],
        "xx": j * 0.25 * values["XX"],
        "yy": j * 0.25 * values["YY"],
    }


class TestCorrelatorArrays:
    OPS = [pauli_2q(label) for label in CORRELATOR_LABELS]

    def test_pure_trajectory_matches_per_state_loop(self):
        traj = propagate_unitary(FIG4_SCHEDULE, PSI0, 0.01, 50)
        values = measure_correlators(traj.states)
        assert values.shape == (51, len(CORRELATOR_LABELS))
        loop = [[np.vdot(psi, op @ psi).real for op in self.OPS] for psi in traj.states]
        assert np.max(np.abs(values - loop)) <= 1e-12

    def test_mixed_trajectory_matches_per_state_loop(self):
        noise = NoiseModel(t1=5.0, t2=4.0, n_th=0.05)
        traj = propagate_lindblad(FIG4_SCHEDULE, PSI0, noise, 0.01, 50)
        values = measure_correlators(traj.states)
        loop = [[np.trace(op @ rho).real for op in self.OPS] for rho in traj.states]
        assert np.max(np.abs(values - loop)) <= 1e-12

    @pytest.mark.parametrize("mixed", [False, True])
    def test_range_check(self, mixed):
        states = np.stack([basis_state("00"), PSI0])
        if mixed:
            states = np.einsum("ni,nj->nij", states, states.conj())
        with pytest.raises(ValueError, match="outside"):
            measure_correlators(1.01 * states)

    def test_rejects_non_stack(self):
        with pytest.raises(ValueError, match="stack"):
            measure_correlators(PSI0)

    def test_sampled_columns_are_one_binomial_draw_per_stream(self):
        """A trajectory's n x 10 counts come from one binomial call on the
        generator of its stream key, in row-major order."""
        config, errors = validate_config("[scenario]\nname = fig4\n\n"
                                         "[simulation]\nshots = 500\nseed = 17\n")
        assert errors == []
        traj = propagate_unitary(FIG4_SCHEDULE, PSI0, 0.01, 20)
        columns = _measure(config, traj.states, 2, 1)
        p_plus = np.clip(0.5 * (1.0 + measure_correlators(traj.states)), 0.0, 1.0)
        assert p_plus.shape == (21, len(CORRELATOR_LABELS))
        counts = np.random.default_rng(_measurement_seed(config, 2, 1)).binomial(500, p_plus)
        assert np.array_equal(columns, (2.0 * counts - 500) / 500)

    @pytest.mark.parametrize("sch", [FIG4_SCHEDULE, FIG3_SCHEDULE], ids=["fig4", "fig3b"])
    def test_energy_terms_match_reference_formula(self, sch):
        traj = propagate_unitary(sch, PSI0, 0.01, 40)
        values = measure_correlators(traj.states)
        terms = energy_terms(values, sch, traj.times)
        for row, t, term_row in zip(values, traj.times, terms):
            reference = reference_energy(dict(zip(CORRELATOR_LABELS, row)), sch, t)
            assert np.max(np.abs(term_row - [reference[k] for k in ENERGY_TERMS])) <= 1e-12
            assert abs(term_row.sum() - sum(reference.values())) <= 1e-12


class TestEnergyEstimate:
    def test_initial_product_state_energy(self):
        tom = measure_tomogram(basis_state("00"), 0.0)
        est = energy_from_correlators(tom, FIG3_SCHEDULE)
        assert est.energy == pytest.approx(-2.0)

    def test_contributions_sum_to_energy(self):
        rng = np.random.default_rng(36)
        for _ in range(N_RANDOM):
            sch = random_schedule(rng)
            t = rng.uniform(0, sch.t_ad)
            psi = random_pure_state(rng)
            est = energy_from_correlators(measure_tomogram(psi, t), sch)
            assert est.energy == pytest.approx(sum(est.contributions.values()),
                                               abs=1e-9)
            assert set(est.contributions) == {"z1", "z2", "x1", "x2", "xx", "yy"}

    def test_eigenstate_reproduces_eigenvalue_when_zz_zero(self):
        rng = np.random.default_rng(37)
        for _ in range(N_RANDOM):
            sch = random_schedule(rng)  # zz = 0
            t = rng.uniform(0, sch.t_ad)
            vals, vecs = np.linalg.eigh(sch.hamiltonian(t))
            k = rng.integers(4)
            est = energy_from_correlators(measure_tomogram(vecs[:, k], t), sch)
            assert est.energy == pytest.approx(vals[k], abs=1e-6)

    def test_zz_term_excluded(self):
        """The estimator reconstructs only the six driven terms, so a ZZ
        offset shifts the true eigenvalue but not the estimate."""
        with_zz = FIG3_SCHEDULE
        without = FIG3_SCHEDULE.with_(zz=0.0)
        psi = basis_state("00")
        tom = measure_tomogram(psi, 0.0)
        e_with = energy_from_correlators(tom, with_zz).energy
        e_without = energy_from_correlators(tom, without).energy
        assert e_with == pytest.approx(e_without)
        true_with = (psi.conj() @ with_zz.hamiltonian(0.0) @ psi).real
        assert abs(true_with - e_with) == pytest.approx(0.05)  # zz/4

    def test_explicit_time_argument(self):
        tom = measure_tomogram(basis_state("00"), 0.0)
        est = energy_from_correlators(tom, FIG3_SCHEDULE, t=FIG3_SCHEDULE.t_ad)
        # At t = t_ad the z-terms have zero weight and |00> has no x signal.
        assert est.energy == pytest.approx(0.0, abs=1e-12)

    def test_sum_invariant_enforced(self):
        with pytest.raises(ValueError):
            EnergyEstimate(time=0.0, energy=1.0, contributions={"z1": 0.0})


class TestRotateFrame:
    def test_zero_angle_identity(self):
        rng = np.random.default_rng(38)
        psi = random_pure_state(rng)
        tom = measure_tomogram(psi, 3.0)
        rot = rotate_frame(tom, 2, 0.0)
        for label, value in tom.values.items():
            assert rot[label] == pytest.approx(value, abs=1e-15)

    def test_quarter_turn(self):
        rng = np.random.default_rng(39)
        psi = random_pure_state(rng)
        tom = measure_tomogram(psi, 0.0)
        rot = rotate_frame(tom, 2, math.pi / 2)
        assert rot["IX"] == pytest.approx(tom["IY"], abs=1e-12)
        assert rot["IY"] == pytest.approx(-tom["IX"], abs=1e-12)
        assert rot["IZ"] == pytest.approx(tom["IZ"], abs=1e-15)
        assert rot["XX"] == pytest.approx(tom["XY"], abs=1e-12)
        assert rot["XY"] == pytest.approx(-tom["XX"], abs=1e-12)

    def test_preserves_transverse_norm(self):
        rng = np.random.default_rng(40)
        for _ in range(N_RANDOM):
            psi = random_pure_state(rng)
            tom = measure_tomogram(psi, 0.0)
            theta = rng.uniform(-10, 10)
            qubit = int(rng.integers(1, 3))
            rot = rotate_frame(tom, qubit, theta)
            if qubit == 1:
                pairs = [("XI", "YI"), ("XX", "YX"), ("XY", "YY")]
            else:
                pairs = [("IX", "IY"), ("XX", "XY"), ("YX", "YY")]
            for a, b in pairs:
                before = tom[a] ** 2 + tom[b] ** 2
                after = rot[a] ** 2 + rot[b] ** 2
                assert after == pytest.approx(before, abs=1e-12)

    def test_rotation_composes(self):
        rng = np.random.default_rng(41)
        psi = random_pure_state(rng)
        tom = measure_tomogram(psi, 0.0)
        once = rotate_frame(rotate_frame(tom, 1, 0.3), 1, 0.4)
        combined = rotate_frame(tom, 1, 0.7)
        for label in PAULI_LABELS_2Q:
            assert once[label] == pytest.approx(combined[label], abs=1e-12)

    def test_matches_physically_rotated_state(self):
        """Rotating the tomogram equals measuring the state conjugated by
        exp(-i theta Z/2) on that qubit."""
        rng = np.random.default_rng(42)
        for _ in range(20):
            psi = random_pure_state(rng)
            theta = rng.uniform(-math.pi, math.pi)
            rot_tom = rotate_frame(measure_tomogram(psi, 0.0), 2, theta)
            u1q = np.diag([np.exp(1j * theta / 2), np.exp(-1j * theta / 2)])
            u = np.kron(np.eye(2), u1q)
            direct = measure_tomogram(u @ psi, 0.0)
            for label in PAULI_LABELS_2Q:
                assert rot_tom[label] == pytest.approx(direct[label], abs=1e-10)

    def test_bad_qubit_index(self):
        tom = measure_tomogram(basis_state("00"), 0.0)
        with pytest.raises(BadIndex):
            rotate_frame(tom, 0, 0.1)

    def test_missing_partner_raises(self):
        """Rotating a tomogram without the cross terms fails only when a
        nonzero correlator actually needs its rotation partner."""
        bell = (basis_state("00") + basis_state("11")) / math.sqrt(2)
        tom = measure_tomogram(bell, 0.0, include_cross=False)
        assert abs(tom["XX"]) > 0.5
        with pytest.raises(MissingTerm):
            rotate_frame(tom, 1, 0.3)
        # A state with no transverse two-qubit signal rotates fine.
        tom0 = measure_tomogram(basis_state("00"), 0.0, include_cross=False)
        rotate_frame(tom0, 1, 0.3)

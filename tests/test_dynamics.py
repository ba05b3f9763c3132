"""Unit tests for unitary and Lindblad propagation."""

import math

import numpy as np
import pytest

from adiasim import dynamics, operators
from adiasim.dynamics import (
    BASIS_LABELS,
    BadIndex,
    NoiseModel,
    StepTooLarge,
    UnphysicalNoise,
    _pauli_generator,
    _poly_matmul,
    _rk4_step,
    _sample_grid,
    basis_state,
    collapse_operators,
    propagate_lindblad,
    propagate_unitary,
)
from adiasim.operators import (
    PAULI_BASIS,
    PAULI_BASIS_LABELS,
    SIGMA_MINUS,
    SIGMA_PLUS,
    Z,
    embed_1q,
    pauli_2q,
)
from adiasim.schedule import ProtocolSchedule
from adiasim.tomography import CORRELATOR_LABELS, ENERGY_TERMS, energy_terms, measure_correlators
from step_loop import reference_pure

FIG3B = ProtocolSchedule(z1=2.5, z2=1.5, x1=2.0, x2=4.1, j_final=1.7, zz=0.2)
FIG4_KW = dict(z1=2.5, z2=1.5, x1=1.0, x2=7.3, j_final=1.3, zz=0.2)
FIG4 = ProtocolSchedule(**FIG4_KW)
ZERO_FIELD = ProtocolSchedule(z1=0.0, z2=0.0, x1=0.0, x2=0.0)
DEFAULT_NOISE = NoiseModel(t1=50.0, t2=40.0, n_th=0.01)


def random_pure_state(rng: np.random.Generator) -> np.ndarray:
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    return psi / np.linalg.norm(psi)


def in_time(schedule, t_ad):
    """H(t) of a sweep of duration t_ad, evaluated as H(s = t/t_ad)."""
    return lambda t: schedule.hamiltonian(t / t_ad)


def lindblad_rhs(ham, lops, rho):
    """-2 pi i [H, rho] + sum_L (L rho L+ - {L+ L, rho} / 2), as 4x4 matrices."""
    out = -2.0j * math.pi * (ham @ rho - rho @ ham)
    for lop in lops:
        ldl = lop.conj().T @ lop
        out += lop @ rho @ lop.conj().T - 0.5 * (ldl @ rho + rho @ ldl)
    return out


def pauli_vector(rho):
    """r_k = Tr(P_k rho) over the Pauli basis, for one rho or a stack."""
    return np.einsum("kij,...ji->...k", PAULI_BASIS, rho).real


def density_matrix(r):
    """rho = sum_k r_k P_k / 4, for one Pauli vector or a stack."""
    return np.einsum("...k,kij->...ij", r, PAULI_BASIS) / 4.0


def column(label):
    """Index of a two-qubit Pauli in a Pauli vector."""
    return PAULI_BASIS_LABELS.index(label)


def reference_lindblad(schedule, t_ad, rho0, noise, dt, n_samples):
    """Sampled states of the step-by-step RK4 loop on rho."""
    times, steps, h = _sample_grid(t_ad, dt, n_samples)
    lops = collapse_operators(noise)

    ham = in_time(schedule, t_ad)
    rho = np.asarray(rho0, dtype=complex)
    states = [rho]
    for t0 in times[:-1]:
        for step in range(steps):
            t = t0 + step * h
            h_mid = ham(t + 0.5 * h)
            k1 = lindblad_rhs(ham(t), lops, rho)
            k2 = lindblad_rhs(h_mid, lops, rho + 0.5 * h * k1)
            k3 = lindblad_rhs(h_mid, lops, rho + 0.5 * h * k2)
            k4 = lindblad_rhs(ham(t + h), lops, rho + h * k3)
            rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(rho)
    return np.array(states)


def channel_operators(qubit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sigma-, sigma+, sigma_z) of one qubit, read off the collapse operators
    of a noise model whose decay, excitation and dephasing rates are 2, 1 and
    1/2, so that the operators carry the factors sqrt(2), 1 and 1/2."""
    ops = collapse_operators(NoiseModel(t1=1.0, t2=1.0, n_th=1.0))
    assert len(ops) == 6
    down, up, dephasing = ops[3 * (qubit - 1):3 * qubit]
    return down / math.sqrt(2.0), up, 2.0 * dephasing


class TestBasisAndOperators:
    def test_basis_states(self):
        for idx, label in enumerate(BASIS_LABELS):
            vec = basis_state(label)
            assert vec[idx] == 1.0 and np.linalg.norm(vec) == 1.0

    def test_basis_state_rejects_unknown(self):
        with pytest.raises(BadIndex):
            basis_state("02")

    @pytest.mark.parametrize("qubit", [1, 2])
    def test_ladder_commutator(self, qubit):
        lower, raise_, sz = channel_operators(qubit)
        assert np.allclose(raise_ @ lower - lower @ raise_, sz)
        assert np.allclose(sz, embed_1q(Z, qubit))

    def test_lowering_action(self):
        lower2, _, _ = channel_operators(2)
        assert np.allclose(lower2 @ basis_state("01"), basis_state("00"))
        assert np.allclose(lower2 @ basis_state("00"), 0.0)
        lower1, _, _ = channel_operators(1)
        assert np.allclose(lower1 @ basis_state("11"), basis_state("01"))


class TestNoiseModel:
    def test_defaults_are_trivial(self):
        noise = NoiseModel()
        assert noise.t1 == noise.t2 == (math.inf, math.inf)
        assert noise.n_th == (0.0, 0.0)
        assert collapse_operators(noise) == []

    def test_scalar_broadcast(self):
        noise = NoiseModel(t1=50.0, t2=40.0, n_th=0.01)
        assert noise.t1 == (50.0, 50.0)
        assert noise.t2 == (40.0, 40.0)
        assert noise.n_th == (0.01, 0.01)

    def test_per_qubit_values(self):
        noise = NoiseModel(t1=(50.0, 60.0), t2=(40.0, 30.0))
        assert noise.t1 == (50.0, 60.0)
        assert noise.t2 == (40.0, 30.0)

    def test_rejects_t2_beyond_2t1(self):
        with pytest.raises(UnphysicalNoise):
            NoiseModel(t1=10.0, t2=21.0)

    def test_rejects_nonpositive_times(self):
        # A NaN time would drop every channel and an infinite n_th would make
        # every step diverge, so both are rejected with the nonpositive ones.
        for kwargs in (dict(t1=0.0), dict(t1=50.0, t2=-1.0), dict(n_th=-0.1),
                       dict(t1=math.nan), dict(t2=math.nan), dict(t1=50.0, n_th=math.inf)):
            with pytest.raises(UnphysicalNoise):
                NoiseModel(**kwargs)

    def test_collapse_rates(self):
        """Decay sqrt((1+n)/T1), excitation sqrt(n/T1), dephasing
        sqrt(1/(2*Tphi)) with 1/Tphi = 1/T2 - 1/(2*T1)."""
        t1, t2, nth = 50.0, 40.0, 0.01
        ops = collapse_operators(NoiseModel(t1=t1, t2=t2, n_th=nth))
        assert len(ops) == 6  # decay, excitation, dephasing per qubit
        lower1, raise1, sz1 = (embed_1q(op, 1) for op in (SIGMA_MINUS, SIGMA_PLUS, Z))
        rate_down = math.sqrt((1 + nth) / t1)
        rate_up = math.sqrt(nth / t1)
        rate_phi = math.sqrt(0.5 * (1 / t2 - 0.5 / t1))
        found = [op for op in ops if np.allclose(op, rate_down * lower1)]
        assert len(found) == 1
        assert any(np.allclose(op, rate_up * raise1) for op in ops)
        assert any(np.allclose(op, rate_phi * sz1) for op in ops)

    def test_no_dephasing_channel_at_t2_equals_2t1(self):
        ops = collapse_operators(NoiseModel(t1=50.0, t2=100.0, n_th=0.0))
        assert len(ops) == 2  # only the two decay channels

    def test_t1_only_channels(self):
        # No T2 given means no dephasing beyond the T1-induced part, and
        # n_th = 0 leaves no thermal excitation: one decay channel per qubit.
        ops = collapse_operators(NoiseModel(t1=50.0))
        assert len(ops) == 2
        ops = collapse_operators(NoiseModel(t1=50.0, n_th=0.01))
        assert len(ops) == 4


class TestUnitaryPropagation:
    def test_sample_grid(self):
        traj = propagate_unitary(ZERO_FIELD, 10.0, basis_state("00"), n_samples=25)
        assert traj.times.shape == (26,)
        assert traj.times[0] == 0.0 and traj.times[-1] == 10.0
        assert np.allclose(np.diff(traj.times), 10.0 / 25)
        assert traj.states.shape == (26, 4)
        assert traj.states.dtype == complex

    def test_norm_preserved_on_long_sweep(self):
        traj = propagate_unitary(FIG3B, 30.0, basis_state("01"), n_samples=40)
        assert traj.max_drift < 1e-6

    def test_requires_normalized_state(self):
        with pytest.raises(ValueError):
            propagate_unitary(ZERO_FIELD, 10.0, 2.0 * basis_state("00"))

    def test_requires_state_vector(self):
        """A 2x2 matrix has four entries but is no two-qubit state."""
        rho = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match=r"shape \(4,\), got \(2, 2\)"):
            propagate_unitary(FIG3B, 1.0, rho, 0.01, 2)
        with pytest.raises(ValueError, match=r"shape \(4,\), got \(2, 2\)"):
            propagate_lindblad(FIG3B, 1.0, rho, NoiseModel(t1=50.0, t2=40.0), 0.01, 2)

    def test_rejects_coarse_step(self):
        with pytest.raises(ValueError):
            propagate_unitary(ZERO_FIELD, 10.0, basis_state("00"), dt=0.2)

    def test_coarse_step_bound_is_relative(self):
        """dt <= t_ad/100 reads the same in any unit of time: a step 10 times
        the bound fails however short the sweep, and dt = t_ad/100 passes
        for every preset duration, in microseconds or scaled by 1e+-290."""
        with pytest.raises(ValueError, match="too coarse"):
            _sample_grid(1e-14, 1e-15, 1)
        with pytest.raises(ValueError, match="too coarse"):
            propagate_unitary(FIG4, 1e-300, basis_state("01"), dt=1e-16, n_samples=1)
        for t_ad in (5.0, 8.0, 10.0, 20.0, 30.0):
            for scale in (1e-290, 1.0, 1e290):
                assert _sample_grid(t_ad * scale, t_ad * scale / 100.0, 1)[1] == 100

    def test_step_too_large_on_stiff_problem(self):
        stiff = ProtocolSchedule(z1=400.0, z2=1.0, x1=1.0, x2=1.0)
        with pytest.raises(StepTooLarge):
            propagate_unitary(stiff, 1.0, basis_state("00"), dt=0.01, n_samples=20)

    def test_ix_conserved_when_h_commutes_with_it(self):
        """With no Z fields, H(s) = s (x/2) IX commutes with IX, so <IX> of
        any initial state stays put while the sweep turns the rest."""
        sweep = ProtocolSchedule(z1=0.0, z2=0.0, x1=0.0, x2=4.1)
        ix = pauli_2q("IX")
        rng = np.random.default_rng(21)
        for _ in range(5):
            psi0 = random_pure_state(rng)
            traj = propagate_unitary(sweep, 10.0, psi0, n_samples=20)
            v0 = (psi0.conj() @ ix @ psi0).real
            for psi in traj.states:
                v = (psi.conj() @ ix @ psi).real
                assert abs(v - v0) <= 1e-6

    def test_single_qubit_rabi_closed_form(self):
        """H = s (x/2) IX turns qubit 2 by 2 pi x int_0^t s dt' = pi x t^2/t_ad:
        the analytic <IZ>(t) = -cos(pi x t^2/t_ad) checks both the propagator
        and the 2 pi frequency convention."""
        x, t_ad = 2.7, 2.0
        sweep = ProtocolSchedule(z1=0.0, z2=0.0, x1=0.0, x2=x)
        traj = propagate_unitary(sweep, t_ad, basis_state("00"), n_samples=100)
        iz = measure_correlators(operators.pauli_vector(traj.states))[:, CORRELATOR_LABELS.index("IZ")]
        assert iz == pytest.approx(-np.cos(np.pi * x * traj.times**2 / t_ad), abs=1e-7)

    def test_exchange_oscillation_closed_form(self):
        """H = s (j/4)(XX+YY) swaps |01> and |10> through the angle
        pi j t^2/(2 t_ad)."""
        j, t_ad = 1.3, 3.0
        sweep = ProtocolSchedule(z1=0.0, z2=0.0, x1=0.0, x2=0.0, j_final=j)
        traj = propagate_unitary(sweep, t_ad, basis_state("01"), n_samples=120)
        for t, psi in zip(traj.times, traj.states):
            p10 = abs(psi[2]) ** 2
            assert p10 == pytest.approx(math.sin(math.pi * j * t**2 / (2 * t_ad)) ** 2, abs=1e-7)

    def test_halving_dt_settles_fidelity(self):
        """At the default step the result is converged: halving dt moves the
        (normalized) final-state fidelity by less than 1e-8."""
        a = propagate_unitary(FIG4, 10.0, basis_state("01"), dt=0.002, n_samples=10).states[-1]
        b = propagate_unitary(FIG4, 10.0, basis_state("01"), dt=0.001, n_samples=10).states[-1]
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        assert 1.0 - abs(np.vdot(a, b)) ** 2 < 1e-8

    def test_convergence_order_is_fourth(self):
        """Errors of the dt and dt/2 runs, measured against a dt/4 reference,
        shrink by ~2^4."""
        psi0 = basis_state("01")
        ref = propagate_unitary(FIG4, 5.0, psi0, dt=0.0005, n_samples=4).states[-1]
        err1 = np.linalg.norm(
            propagate_unitary(FIG4, 5.0, psi0, dt=0.002, n_samples=4).states[-1] - ref)
        err2 = np.linalg.norm(
            propagate_unitary(FIG4, 5.0, psi0, dt=0.001, n_samples=4).states[-1] - ref)
        order = math.log2(err1 / err2)
        assert 3.5 <= order <= 4.5


class TestLindbladPropagation:
    def test_pure_input_becomes_projector(self):
        traj = propagate_lindblad(ZERO_FIELD, 10.0, basis_state("01"), NoiseModel(),
                                  n_samples=4)
        r0 = traj.states[0]
        assert np.allclose(r0, pauli_vector(np.outer(basis_state("01"), basis_state("01"))))

    def test_first_sample_is_the_pauli_vector_of_psi0(self):
        """A run starts from operators.pauli_vector of each initial state, bit for bit."""
        psi0 = np.array([random_pure_state(np.random.default_rng(seed)) for seed in range(3)])
        for start in (psi0, psi0[1]):
            traj = propagate_lindblad(FIG4, 5.0, start, DEFAULT_NOISE, n_samples=4)
            assert np.array_equal(traj.states[0], operators.pauli_vector(start))

    def test_rejects_bad_density_matrix(self):
        """A trace-1 density matrix is no stack of normalized states: the
        rows of I/4 have norm 1/4, and three rows of |00><00| are zero."""
        for rho in (np.eye(4) / 4, np.outer(basis_state("00"), basis_state("00"))):
            with pytest.raises(ValueError, match="norm"):
                propagate_lindblad(ZERO_FIELD, 10.0, rho, NoiseModel(), n_samples=4)

    def test_identity_is_the_stack_of_basis_states(self):
        stacked = propagate_lindblad(FIG4, 1.0, np.eye(4), DEFAULT_NOISE, n_samples=4)
        for j, label in enumerate(BASIS_LABELS):
            alone = propagate_lindblad(FIG4, 1.0, basis_state(label), DEFAULT_NOISE,
                                       n_samples=4)
            assert np.array_equal(stacked.states[:, j], alone.states)

    def test_states_are_real_pauli_vectors(self):
        """States are (n+1, 16) real r, and r_II = Tr rho stays 1 exactly:
        RK4 conserves the trace, a linear invariant, bit for bit."""
        traj = propagate_lindblad(FIG4, 5.0, basis_state("11"), DEFAULT_NOISE, n_samples=30)
        assert traj.states.shape == (31, 16)
        assert traj.states.dtype == np.float64
        assert np.all(traj.states[:, column("II")] == 1.0)
        assert np.all(traj.drifts == 0.0)

    def test_trace_and_hermiticity_preserved(self):
        traj = propagate_lindblad(FIG3B, 6.0, basis_state("11"), DEFAULT_NOISE, n_samples=12)
        for r in traj.states:
            rho = density_matrix(r)
            assert r[column("II")] == pytest.approx(1.0, abs=1e-9)
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-9
            assert np.min(np.linalg.eigvalsh(rho)) > -1e-9

    def test_states_are_exactly_hermitian(self):
        """The states are real Pauli vectors, so rho = sum_k r_k P_k / 4 is
        Hermitian bit for bit."""
        noise = NoiseModel(t1=(20.0, 30.0), t2=(15.0, 40.0), n_th=(0.02, 0.05))
        for label in BASIS_LABELS:
            r = propagate_lindblad(FIG4, 5.0, basis_state(label), noise, n_samples=30).states
            assert r.dtype == np.float64, label
            rho = density_matrix(r)
            assert np.array_equal(rho, rho.conj().swapaxes(1, 2)), label

    def test_pauli_generator_matches_master_equation(self):
        """T @ r(rho) is the Pauli vector of -2 pi i [H, rho] + D(rho)."""
        rng = np.random.default_rng(16)
        lops = collapse_operators(NoiseModel(t1=(20.0, 30.0), t2=(15.0, 40.0),
                                             n_th=(0.02, 0.05)))
        for ham in (FIG4.hamiltonian(0.3), FIG3B.hamiltonian(1.0)):
            gen = _pauli_generator(ham, lops)
            assert gen.dtype == float
            for _ in range(5):
                a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                rho = a + a.conj().T
                expected = pauli_vector(lindblad_rhs(ham, lops, rho))
                assert np.max(np.abs(gen @ pauli_vector(rho) - expected)) <= 1e-12

    def test_pauli_generator_adds_operators_in_order(self):
        """The dissipator's terms are added one operator at a time, in the
        order of the collapse operators, so G0 is the sum that a loop over
        them gives, bit for bit."""
        lops = collapse_operators(NoiseModel(t1=(20.0, 30.0), t2=(15.0, 40.0),
                                             n_th=(0.02, 0.05)))
        assert len(lops) == 6
        for ham in (FIG4.h0, FIG4.h1, FIG3B.hamiltonian(0.4)):
            images = -2.0j * math.pi * (ham @ PAULI_BASIS - PAULI_BASIS @ ham)
            for lop in lops:
                ldl = lop.conj().T @ lop
                images += (lop @ PAULI_BASIS @ lop.conj().T
                           - 0.5 * (ldl @ PAULI_BASIS + PAULI_BASIS @ ldl))
            expected = np.einsum("qij,rji->qr", PAULI_BASIS, images).real / 4.0
            assert np.array_equal(_pauli_generator(ham, lops), expected)

    def test_t1_decay_closed_form(self):
        """Free decay of the excited qubit follows exp(-t/T1): the rate is a
        true inverse time, with no 2 pi factor."""
        t1 = 8.0
        noise = NoiseModel(t1=t1, t2=2 * t1, n_th=0.0)
        traj = propagate_lindblad(ZERO_FIELD, 10.0, basis_state("01"), noise, n_samples=20)
        for t, r in zip(traj.times, traj.states):
            expected = math.exp(-t / t1)
            # P(qubit 2 excited) = (1 + <IZ>) / 2, and qubit 1 stays in |0>.
            assert 0.5 * (1.0 + r[column("IZ")]) == pytest.approx(expected, rel=1e-4)

    def test_pure_dephasing_closed_form(self):
        """With only dephasing, coherences decay as exp(-t/T2) while the
        populations stay constant to 1e-10."""
        t2 = 7.0
        noise = NoiseModel(t1=(math.inf, math.inf), t2=(t2, t2), n_th=0.0)
        plus = (basis_state("00") + basis_state("01")) / math.sqrt(2)
        traj = propagate_lindblad(ZERO_FIELD, 10.0, plus, noise, n_samples=20)
        diagonal = [column(label) for label in ("II", "IZ", "ZI", "ZZ")]
        for t, r in zip(traj.times, traj.states):
            # The populations are the Z-type components of r; the coherence
            # Re rho[0, 1] of |00> and |01> is (<IX> - <ZX>) / 4.
            assert np.allclose(r[diagonal], traj.states[0, diagonal], atol=1e-10)
            coherence = 0.25 * (r[column("IX")] - r[column("ZX")])
            assert coherence == pytest.approx(0.5 * math.exp(-t / t2), rel=1e-6)

    def test_thermal_steady_state(self):
        """With thermal excitation the qubit relaxes to excited-state
        population n_th / (1 + 2 n_th)."""
        nth = 0.05
        noise = NoiseModel(t1=1.0, t2=2.0, n_th=nth)
        traj = propagate_lindblad(ZERO_FIELD, 10.0, basis_state("00"), noise,
                                  dt=0.002, n_samples=10)
        r_end = traj.states[-1]
        expected = nth / (1 + 2 * nth)
        p1 = 0.5 * (1.0 + r_end[column("ZI")])  # qubit 1 excited marginal
        p2 = 0.5 * (1.0 + r_end[column("IZ")])  # qubit 2 excited marginal
        assert p1 == pytest.approx(expected, abs=1e-4)
        assert p2 == pytest.approx(expected, abs=1e-4)

    def test_matches_unitary_when_noise_off(self):
        pure = propagate_unitary(FIG4, 5.0, basis_state("01"), n_samples=10)
        mixed = propagate_lindblad(FIG4, 5.0, basis_state("01"), NoiseModel(),
                                   n_samples=10)
        # The two integrators discretize different equations, so they agree
        # only to the step error, not exactly.
        for psi, r in zip(pure.states, mixed.states):
            r_pure = pauli_vector(np.outer(psi, psi.conj()))
            assert np.allclose(r_pure, r, atol=1e-5)
            # <psi|rho|psi> = sum_k r_k <psi|P_k|psi> / 4
            assert r @ r_pure / 4.0 == pytest.approx(1.0, abs=1e-6)

    def test_contributions_fade_with_longer_protocols(self):
        """With noise on, the end-of-sweep magnitude of every energy
        contribution of the |11>-initialized run shrinks as the protocol
        gets longer (more time to decohere)."""
        magnitudes = []
        for t_ad in (5.0, 10.0, 20.0, 30.0):
            traj = propagate_lindblad(FIG4, t_ad, basis_state("11"), DEFAULT_NOISE,
                                      n_samples=10)
            terms = energy_terms(measure_correlators(traj.states[-1][None]), FIG4, [1.0])[0]
            magnitudes.append(dict(zip(ENERGY_TERMS, np.abs(terms))))
        for key in magnitudes[0]:
            seq = [m[key] for m in magnitudes]
            assert all(b <= a + 1e-12 for a, b in zip(seq, seq[1:])), key


class TestAgainstStepLoop:
    """The interval-map propagator against the per-step RK4 loop."""

    @pytest.mark.parametrize("schedule", [FIG4], ids=["linear"])
    def test_unitary(self, schedule):
        psi0 = basis_state("01")
        traj = propagate_unitary(schedule, 5.0, psi0, dt=0.002, n_samples=10)
        ref = reference_pure(in_time(schedule, 5.0), 5.0, psi0, 0.002, 10)
        assert np.max(np.abs(traj.states - ref)) <= 1e-12

    def test_lindblad(self):
        noise = NoiseModel(t1=(20.0, 30.0), t2=(15.0, 40.0), n_th=(0.02, 0.05))
        psi0 = basis_state("11")
        traj = propagate_lindblad(FIG4, 3.0, psi0, noise, dt=0.002, n_samples=6)
        ref = reference_lindblad(FIG4, 3.0, np.outer(psi0, psi0.conj()), noise, 0.002, 6)
        assert np.max(np.abs(traj.states - pauli_vector(ref))) <= 1e-12

    @pytest.mark.parametrize("steps", [1, 2, 3, 4, 5, 9, 17, 50])
    @pytest.mark.parametrize("noise", [None, DEFAULT_NOISE], ids=["unitary", "lindblad"])
    def test_steps_per_interval(self, noise, steps):
        """Every split of an interval into blocks of 4 steps: one block of
        fewer than 4, exactly one block, and a lead block of 1, 1, 1 and 2
        steps before 1, 2, 4 and 12 full blocks."""
        n_samples = -(-100 // steps)
        t_ad = 1.0
        dt = t_ad / (n_samples * steps)
        assert _sample_grid(t_ad, dt, n_samples)[1] == steps
        psi0 = random_pure_state(np.random.default_rng(steps))
        if noise is None:
            traj = propagate_unitary(FIG4, t_ad, psi0, dt, n_samples)
            ref = reference_pure(in_time(FIG4, t_ad), t_ad, psi0, dt, n_samples)
        else:
            traj = propagate_lindblad(FIG4, t_ad, psi0, noise, dt, n_samples)
            ref = pauli_vector(reference_lindblad(FIG4, t_ad, np.outer(psi0, psi0.conj()), noise,
                                                  dt, n_samples))
        assert np.max(np.abs(traj.states - ref)) <= 1e-12

    def test_near_the_stability_edge(self):
        """Near RK4's stability edge: table1's schedule with x2 = 50,
        dt = 0.01 and 20 samples, where h ||G1||_2 = 3.3 > 1, so every block
        is one step.  Against the step loop its Pauli vectors agree to
        1.1e-9 (|11>) and 4.2e-10 (|00>) at t_ad = 3, as one step matrix per
        step did before blocks (1.1e-9 and 4.3e-10); blocks of 4 steps
        would give 6.6e-8 and 1.2e-7."""
        schedule = ProtocolSchedule(z1=2.5, z2=1.5, x1=1.0, x2=50.0, j_final=1.3, zz=0.2)
        for label in ("00", "11"):
            psi0 = basis_state(label)
            for t_ad in (1.0, 2.0, 3.0):
                traj = propagate_lindblad(schedule, t_ad, psi0, DEFAULT_NOISE, 0.01, 20)
                ref = reference_lindblad(schedule, t_ad, np.outer(psi0, psi0.conj()),
                                         DEFAULT_NOISE, 0.01, 20)
                assert np.max(np.abs(traj.states - pauli_vector(ref))) <= 1e-8, (label, t_ad)

    def test_interval_spanning_several_batches(self, monkeypatch):
        psi0 = basis_state("10")
        ref = reference_pure(in_time(FIG4, 2.0), 2.0, psi0, 0.002, 3)
        # 334 steps per interval, 84 blocks: a lead, then batches of 30 8x8
        # blocks, the map and 29, 29 or 25 full blocks.
        monkeypatch.setattr(dynamics, "_BUILD_MULADDS", build_bound(30, 8))
        traj = propagate_unitary(FIG4, 2.0, psi0, dt=0.002, n_samples=3)
        assert np.max(np.abs(traj.states - ref)) <= 1e-12
        noise = NoiseModel(t1=20.0, t2=15.0, n_th=0.02)
        # 75 steps per interval, 19 blocks: a lead, then batches of the map
        # and 4, 4, 4, 4 or 2 full 16x16 blocks.
        monkeypatch.setattr(dynamics, "_BUILD_MULADDS", build_bound(5, 16))
        mixed = propagate_lindblad(FIG4, 0.3, psi0, noise, dt=0.002, n_samples=2)
        ref_mixed = reference_lindblad(FIG4, 0.3, np.outer(psi0, psi0.conj()), noise, 0.002, 2)
        assert np.max(np.abs(mixed.states - pauli_vector(ref_mixed))) <= 1e-12

    @pytest.mark.parametrize("propagate, d", [
        (lambda: propagate_unitary(FIG4, 2.0, basis_state("01"), dt=0.002, n_samples=10), 8),
        (lambda: propagate_lindblad(FIG4, 2.0, basis_state("11"), DEFAULT_NOISE, dt=0.002,
                                    n_samples=10), 16),
    ], ids=["unitary", "lindblad"])
    def test_grouped_intervals_match_one_interval_per_batch(self, monkeypatch, propagate, d):
        """10 intervals of 100 steps, 25 blocks each, built one per batch and
        then in groups of 3, 3, 3 and 1, give the same states bit for bit."""
        runs = []
        for batch_blocks in (25, 75):
            monkeypatch.setattr(dynamics, "_BUILD_MULADDS", build_bound(batch_blocks, d))
            runs.append(propagate())
        assert np.array_equal(runs[0].states, runs[1].states)

    def test_states_sharing_one_schedule_match_independent_runs(self):
        """A (k, 4) stack is propagated in one call, and each row's states,
        drifts and times equal those of its own single-state call."""
        psi0 = np.array([random_pure_state(np.random.default_rng(seed)) for seed in range(3)])
        runs = {
            "unitary": lambda psi: propagate_unitary(FIG4, 5.0, psi, n_samples=10),
            "lindblad": lambda psi: propagate_lindblad(FIG4, 5.0, psi, DEFAULT_NOISE,
                                                       n_samples=10),
        }
        for kind, run in runs.items():
            stacked = run(psi0)
            width = 16 if kind == "lindblad" else 4
            assert stacked.states.shape == (11, 3, width), kind
            assert stacked.drifts.shape == (11, 3), kind
            for j, psi in enumerate(psi0):
                alone = run(psi)
                assert np.array_equal(stacked.states[:, j], alone.states), kind
                assert np.array_equal(stacked.drifts[:, j], alone.drifts), kind
                assert np.array_equal(stacked.times, alone.times), kind

    @pytest.mark.parametrize("psi0, match", [
        (np.ones((2, 2, 4)) / 2, r"shape \(4,\), got \(2, 2, 4\)"),
        (np.zeros((0, 4)), r"shape \(4,\), got \(0, 4\)"),
        (np.array([[1.0, 0, 0, 0], [0.6, 0.8, 0, 0], [0.5, 0.5, 0.5, 0.6]]), "norm"),
    ], ids=["three-dimensional", "empty", "one-unnormalized-row"])
    def test_rejects_bad_stack(self, psi0, match):
        for run in (lambda: propagate_unitary(FIG4, 1.0, psi0, n_samples=4),
                    lambda: propagate_lindblad(FIG4, 1.0, psi0, DEFAULT_NOISE, n_samples=4)):
            with pytest.raises(ValueError, match=match):
                run()

    def test_non_finite_state_raises(self):
        nan_field = ProtocolSchedule(z1=math.nan, z2=1.5, x1=1.0, x2=7.3)
        with pytest.raises(StepTooLarge, match="norm drift nan"):
            propagate_unitary(nan_field, 1.0, basis_state("00"), dt=0.005, n_samples=4)

    def test_non_finite_pauli_vector_raises(self):
        """A Lindblad run whose Pauli vectors overflow fails the guard, although
        their r_II, and with it the trace drift, stays exactly 1."""
        schedule = ProtocolSchedule(79.2929, 0.0051, 0.0, 1.077, -8.199, 388.9903)
        psi0 = np.stack([basis_state("00"), basis_state("11")])
        with pytest.raises(StepTooLarge, match="trace drift nan"):
            propagate_lindblad(schedule, 1.0, psi0, NoiseModel(5, 0.5), dt=0.005, n_samples=2)

    @pytest.mark.parametrize("t_ad, dt, at", [(1e-5, 1e-7, "3.33333e-08"),
                                              (1e300, 1e297, "3.33333e+297")],
                             ids=["short", "long"])
    def test_step_too_large_gives_the_time_to_six_significant_digits(self, t_ad, dt, at):
        """z1 = 1e300 fails at the first sample after t = 0, t_ad / 300: the
        time is neither rounded to 0.0000 nor written out in 300 digits."""
        schedule = ProtocolSchedule(**dict(FIG4_KW, z1=1e300))
        with pytest.raises(StepTooLarge, match="norm drift") as info:
            propagate_unitary(schedule, t_ad, basis_state("01"), dt=dt, n_samples=300)
        assert str(info.value).endswith(f" at t = {at} us; reduce dt")


class TestUnitScale:
    """Fields times k with every time divided by k give the same sweep: RK4
    sees only h*G, whatever unit the energies and times are in."""

    @staticmethod
    def run(k):
        schedule = ProtocolSchedule(**{key: k * value for key, value in FIG4_KW.items()})
        noise = NoiseModel(t1=50.0 / k, t2=40.0 / k, n_th=0.01)
        psi0 = np.array([basis_state("01"), random_pure_state(np.random.default_rng(6))])
        t_ad, dt = 5.0 / k, 0.002 / k
        return (propagate_unitary(schedule, t_ad, psi0, dt, n_samples=10),
                propagate_lindblad(schedule, t_ad, psi0, noise, dt, n_samples=10))

    @pytest.mark.parametrize("k", [1e-290, 1e-200, 1e-160, 1e160, 1e200, 1e290])
    def test_states_do_not_depend_on_the_unit_scale(self, k):
        for base, scaled in zip(self.run(1.0), self.run(k)):
            assert np.max(np.abs(scaled.states - base.states)) <= 1e-12
            assert np.allclose(scaled.times * k, base.times, rtol=1e-15, atol=0.0)


def complex_interval_maps(ham, t_ad, dt, n_samples):
    """Interval maps of -2 pi i H(t) as complex 4x4 products, one interval at a time."""
    times, steps, h = _sample_grid(t_ad, dt, n_samples)
    maps = []
    for t0 in times[:-1]:
        stage_times = t0 + np.arange(2 * steps + 1) * (0.5 * h)
        gens = -2.0j * math.pi * h * np.array([ham(t) for t in stage_times])
        step_matrices = np.eye(4) + _rk4_step(gens[:-2:2], gens[1::2], gens[2::2],
                                              mul=np.matmul)
        maps.append(allocating_ordered_product(step_matrices))
    return times, maps


class TestRealForm:
    """Pure states are propagated as [Re psi; Im psi] by real 8x8 maps and
    returned as complex amplitudes."""

    def test_states_match_complex_maps(self):
        psi0 = random_pure_state(np.random.default_rng(4))
        traj = propagate_unitary(FIG4, 3.0, psi0, dt=0.002, n_samples=12)
        times, maps = complex_interval_maps(in_time(FIG4, 3.0), 3.0, 0.002, 12)
        states = [psi0]
        for step in maps:
            states.append(step @ states[-1])
        assert traj.states.dtype == complex
        assert traj.states.shape == (13, 4)
        assert np.array_equal(traj.times, times)
        assert np.max(np.abs(traj.states - np.array(states))) <= 1e-12


def allocating_ordered_product(mats):
    """Pairwise time-ordered product along axis 0 with a new array per level."""
    while len(mats) > 1:
        n = len(mats)
        even = n - n % 2
        pairs = mats[1:even:2] @ mats[0:even:2]
        mats = np.concatenate([pairs, mats[even:]]) if even < n else pairs
    return mats[0]


def build_bound(batch_blocks, d, width=4):
    """The ``_BUILD_MULADDS`` for which a batch holds exactly ``batch_blocks``
    blocks of ``width`` steps, each built from 4*width + 1 coefficients."""
    return batch_blocks * (4 * width + 1) * d * d + 1


def block_offsets(steps, width):
    """Steps from an interval's start to each of its blocks': a lead block of
    the remainder, then full blocks of ``width``."""
    blocks = -(-steps // width)
    lead = steps - width * (blocks - 1)
    return lead, [lead + width * k for k in range(blocks - 1)]


def allocating_interval_maps(make_blocks, times, steps, h, width, batch_blocks):
    """Interval maps from freshly returned block stacks, in batches of at most
    ``batch_blocks`` blocks, the map so far first.  ``make_blocks(starts, c)``
    returns the starts.shape + (d, d) matrices of the blocks of c steps from
    the (r, M) ``starts``: each lead its own product, a batch's full blocks
    one."""
    starts = times[:-1]
    lead, offsets = block_offsets(steps, width)
    group = max(1, batch_blocks // (len(offsets) + 1))
    maps = []
    for k in range(0, len(starts), group):
        t0 = starts[k:k + group]
        carried = make_blocks(t0[:, None], lead)[:, 0]
        for first in range(0, len(offsets), batch_blocks - 1):
            block_starts = t0 + np.array(offsets[first:first + batch_blocks - 1])[:, None] * h
            built = make_blocks(block_starts.reshape(1, -1), width)
            full = built.reshape(block_starts.shape + built.shape[-2:])
            carried = allocating_ordered_product(np.concatenate([carried[None], full]))
        maps.append(carried)
    return np.concatenate(maps)


def applied_state_by_state(maps, x0):
    """The (n+1, k, d) states of each row of x0 carried through the maps, one
    matrix-vector product at a time."""
    states = [x0]
    for step in maps:
        states.append(np.array([step @ x for x in states[-1]]))
    return np.array(states)


def no_drift(states):
    return np.zeros(states.shape[:-1])


def near_identity_blocks(d, h, seed):
    """Blocks of c step matrices I + 0.05 cos(s B) of the step starts s, for a
    fixed random B, multiplied in time order."""
    base = np.random.default_rng(seed).normal(size=(d, d))

    def make(starts, c):
        out = np.eye(d) + 0.05 * np.cos(starts[..., None, None] * base)
        for j in range(1, c):
            out = (np.eye(d) + 0.05 * np.cos((starts + j * h)[..., None, None] * base)) @ out
        return out

    return make


class TestBufferedReduction:
    """The interval maps built in reused buffers against the reduction that
    allocates a new array per level and per batch, bit for bit."""

    @pytest.mark.parametrize("d, dtype", [(4, complex), (8, float), (16, float)],
                             ids=["complex4", "real8", "real16"])
    @pytest.mark.parametrize("group", [1, 3])
    def test_ordered_product_matches_allocating_reduction(self, d, dtype, group):
        rng = np.random.default_rng(d + group)
        for m in range(2, 18):
            mats = np.eye(d) + 0.1 * rng.normal(size=(m, group, d, d))
            if dtype == complex:
                mats = mats + 0.1j * rng.normal(size=(m, group, d, d))
            expected = allocating_ordered_product(mats)
            scratch = np.empty(((m + 1) // 2, group, d, d), dtype)
            out = np.empty((group, d, d), dtype)
            dynamics._ordered_product(mats.copy(), scratch, out)
            assert np.array_equal(out, expected), m

    # The maps are real: 8x8 for a pure state [Re psi; Im psi], 16x16 for a
    # Pauli vector.
    @pytest.mark.parametrize("d", [8, 16], ids=["real8", "real16"])
    @pytest.mark.parametrize("steps", [1, 2, 3, 5, 7, 12])
    def test_interval_maps_match_allocating_build(self, monkeypatch, d, steps):
        """Batches of the map and one block of up to 4 steps: groups of 2
        intervals of one block whose last group is short (7 intervals),
        intervals of a lead and one batch (5 and 7 steps), and of a lead and
        two batches (12 steps, 3 blocks).  The streamed states equal the
        allocating build's maps applied to each state in turn."""
        monkeypatch.setattr(dynamics, "_BUILD_MULADDS", build_bound(2, d))
        times = np.linspace(0.0, 1.0, 8)
        h = 1.0 / 7 / steps
        make = near_identity_blocks(d, h, seed=steps)

        def fill(starts, c, out):
            out[...] = make(starts, c)

        x0 = np.random.default_rng(steps).normal(size=(3, d))
        expected = applied_state_by_state(allocating_interval_maps(make, times, steps, h, 4, 2),
                                          x0)
        states, drifts = dynamics._propagate(fill, 4, times, steps, h, x0, no_drift, "test")
        assert states.dtype == float
        assert drifts.shape == (8, 3)
        assert np.array_equal(states, expected)

    @pytest.mark.parametrize("d", [8, 16], ids=["real8", "real16"])
    def test_later_batches_reduce_from_the_carried_map(self, monkeypatch, d):
        """Batches of the map and 3 blocks over 30 steps: a lead of 2 steps,
        then batches of 3, 3 and 1 full blocks, so that a later batch holds
        four matrices.  Its map is (f6 f5)(f4 M), not f6 (f5 f4) M: the
        states equal the allocating build's bit for bit, and differ from
        those of the product of each later batch's blocks multiplied onto
        the map."""
        monkeypatch.setattr(dynamics, "_BUILD_MULADDS", build_bound(4, d))
        steps = 30
        times = np.linspace(0.0, 1.0, 4)
        h = 1.0 / 3 / steps
        make = near_identity_blocks(d, h, seed=d)
        built = []  # each interval's (1, c, d, d) block stacks, in build order

        def fill(starts, c, out):
            out[...] = make(starts, c)
            built.append(out.copy())

        x0 = np.random.default_rng(d).normal(size=(2, d))
        expected = applied_state_by_state(allocating_interval_maps(make, times, steps, h, 4, 4),
                                          x0)
        states = dynamics._propagate(fill, 4, times, steps, h, x0, no_drift, "test")[0]
        assert np.array_equal(states, expected)
        # One interval per group: its lead and three batches of full blocks.
        assert [stack.shape[1] for stack in built[:4]] == [1, 3, 3, 1]
        batches = [np.concatenate(built[k:k + 4], axis=1)[0] for k in range(0, len(built), 4)]
        maps = [allocating_ordered_product(mats[4:7]) @ allocating_ordered_product(mats[:4])
                for mats in batches]
        maps = [mats[7] @ step for mats, step in zip(batches, maps)]
        assert not np.array_equal(states, applied_state_by_state(maps, x0))

    @pytest.mark.parametrize("noise", [None, DEFAULT_NOISE], ids=["schrodinger", "lindblad"])
    @pytest.mark.parametrize("t_ad, n_samples, steps", [(1.05, 15, 7), (1.02, 51, 2)])
    def test_schedule_maps_match_allocating_build(self, monkeypatch, noise, t_ad, n_samples,
                                                  steps):
        """The sweep's block matrices written into the maps and the block
        stack.  At dt = 0.01 on FIG4, h ||G1||_2 is 0.33 for the 8x8
        generator and 0.64 for the 16x16 one, so blocks hold 3 and 1 steps.
        In batches of the map and one block, 7 steps are a lead and 2 or 6
        batches; 2 steps are groups of 2 intervals with a short last one,
        and a lead and one batch."""
        d, width = (8, 3) if noise is None else (16, 1)
        batch_blocks = 2
        monkeypatch.setattr(dynamics, "_BUILD_MULADDS", build_bound(batch_blocks, d, width))
        streamed = dynamics._propagate
        seen = {}

        def spy(*args):
            seen["args"] = args
            seen["states"], drifts = streamed(*args)
            return seen["states"], drifts

        monkeypatch.setattr(dynamics, "_propagate", spy)
        psi0 = np.array([basis_state("01"), random_pure_state(np.random.default_rng(5))])
        if noise is None:
            propagate_unitary(FIG4, t_ad, psi0, 0.01, n_samples)
        else:
            propagate_lindblad(FIG4, t_ad, psi0, noise, 0.01, n_samples)
        fill, streamed_width, times, streamed_steps, h, x0 = seen["args"][:6]

        def make(starts, c):
            out = np.empty(starts.shape + (d, d))
            fill(starts, c, out)
            return out

        assert (streamed_steps, streamed_width) == (steps, width)
        maps = allocating_interval_maps(make, times, steps, h, width, batch_blocks)
        assert np.array_equal(seen["states"], applied_state_by_state(maps, x0))

    @pytest.mark.parametrize("run", [
        lambda: propagate_unitary(FIG3B, 30.0, np.eye(4)[1:], n_samples=300),
        lambda: propagate_unitary(FIG4, 5.0, basis_state("01"), n_samples=2),
        lambda: propagate_lindblad(FIG4, 30.0, np.eye(4)[[0, 3]], DEFAULT_NOISE, n_samples=300),
        lambda: propagate_lindblad(FIG4, 5.0, basis_state("11"), DEFAULT_NOISE, n_samples=2),
    ], ids=["unitary-groups", "unitary-long-intervals", "lindblad-groups",
            "lindblad-long-intervals"])
    def test_every_product_stays_under_the_thread_bound(self, monkeypatch, run):
        """Each matrix product of a propagation has M*K*N < 2^19
        multiply-adds, so OpenBLAS runs it on one thread; the block builds,
        (blocks, 17) @ (17, d^2), come within a factor 2 of that bound, in
        groups of intervals and in intervals of several batches alike."""
        products = []

        class SpyNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def matmul(a, b, **kwargs):
                products.append((a.shape[-2], a.shape[-1], b.shape[-1]))
                return np.matmul(a, b, **kwargs)

        monkeypatch.setattr(dynamics, "np", SpyNumpy())
        run()
        builds = [m * k * n for m, k, n in products if k == 17]
        assert builds and max(m * k * n for m, k, n in products) < 2**19
        assert max(builds) >= 2**18


class TestStepPolynomial:
    """The one RK4 step formula, ``_rk4_step``, on stacks of stage generators
    times h and on coefficient stacks in s."""

    @staticmethod
    def padded(*coefficients):
        """A (5, ...) coefficient stack in s, zero past the given coefficients."""
        stack = np.zeros((5,) + np.shape(coefficients[0]))
        stack[:len(coefficients)] = coefficients
        return stack

    @pytest.mark.parametrize("lam", [-1.5, 2.0, -40.0])
    def test_scalar_generator_gives_the_stability_polynomial(self, lam):
        """For a 1x1 generator lam, R - I = z + z^2/2 + z^3/6 + z^4/24, z = h*lam."""
        h = 0.01
        z = h * lam
        expected = z + z**2 / 2 + z**3 / 6 + z**4 / 24
        a = np.full((1, 1), z)
        assert _rk4_step(a, a, a, mul=np.matmul)[0, 0] == pytest.approx(expected, rel=1e-14)
        # A constant generator as a polynomial in s: only P_0 is not zero.
        p = self.padded(a)
        poly = _rk4_step(p, p, p, mul=_poly_matmul)
        assert poly[0, 0, 0] == pytest.approx(expected, rel=1e-14)
        assert np.all(poly[1:] == 0.0)

    @pytest.mark.parametrize("noise", [None, NoiseModel(t1=(20.0, 30.0), t2=(15.0, 40.0),
                                                        n_th=(0.02, 0.05))],
                             ids=["schrodinger", "lindblad"])
    def test_matches_steps_from_stage_generators(self, noise):
        """I + sum_k s^k P_k against the RK4 step built from the generators
        at the three stage times of a step from s."""
        t_ad = 5.0
        h = 0.002

        def generator(t):
            ham = FIG4.hamiltonian(t / t_ad)
            if noise is None:
                return dynamics._schrodinger_generator(ham)
            return _pauli_generator(ham, collapse_operators(noise))

        g0, g1 = generator(0.0), generator(t_ad) - generator(0.0)
        delta = h / t_ad
        stages = [self.padded(h * (g0 + c * delta * g1), h * g1) for c in (0.0, 0.5, 1.0)]
        poly = _rk4_step(*stages, mul=_poly_matmul)
        # Step starts: the last step ends at s = 1.
        s = np.random.default_rng(21).uniform(0.0, 1.0 - delta, size=20)
        powers = np.vander(s, 5, increasing=True)
        steps = np.einsum("nk,kij->nij", powers, poly)
        for s_n, step in zip(s, steps):
            t = s_n * t_ad
            a1, a2, a3 = generator(t), generator(t + 0.5 * h), generator(t + h)
            assert np.max(np.abs(step - _rk4_step(h * a1, h * a2, h * a3,
                                                  mul=np.matmul))) <= 1e-14


FIG1 = ProtocolSchedule(z1=0.0, z2=3.0, x1=0.0, x2=2.7)


class TestBlockPolynomials:
    """B_c(s) - I from ``_block_polynomials`` against the time-ordered product
    of its c ``_rk4_step`` matrices, at the presets' step sizes."""

    @pytest.mark.parametrize("noise", [None, DEFAULT_NOISE], ids=["real8", "real16"])
    @pytest.mark.parametrize("schedule, t_ad", [(FIG4, 5.0), (FIG4, 30.0), (FIG3B, 30.0),
                                                (FIG1, 10.0)],
                             ids=["fig4-5us", "fig4-30us", "fig3b-30us", "fig1-10us"])
    def test_blocks_match_products_of_steps(self, noise, schedule, t_ad):
        h = _sample_grid(t_ad, 0.002, 300)[2]
        if noise is None:
            g0, g1 = (dynamics._schrodinger_generator(ham) for ham in (schedule.h0, schedule.h1))
        else:
            g0 = _pauli_generator(schedule.h0, collapse_operators(noise))
            g1 = _pauli_generator(schedule.h1)
        d = len(g0)
        # Every preset takes blocks of 4: 4 h ||G1||_2 <= 1.
        assert 4 * h * np.linalg.norm(g1, 2) <= 1.0
        delta = h / t_ad
        polys = dynamics._block_polynomials(h * g0, h * g1, delta, 4)
        rng = np.random.default_rng(d)
        for c, poly in enumerate(polys, start=1):
            assert poly.shape == (4 * c + 1, d * d)
            # Block starts: the last block ends at s = 1.
            for s in rng.uniform(0.0, 1.0 - c * delta, size=20):
                powers = np.vander([s], 4 * c + 1, increasing=True)
                block = np.eye(d) + (powers @ poly).reshape(d, d)
                product = np.eye(d)
                for j in range(c):
                    a1, a2, a3 = (g0 + (s + (j + f) * delta) * g1 for f in (0.0, 0.5, 1.0))
                    step = _rk4_step(h * a1, h * a2, h * a3, mul=np.matmul)
                    product = (np.eye(d) + step) @ product
                assert np.max(np.abs(block - product)) <= 1e-14 * np.max(np.abs(product)), (c, s)

"""Unit tests for unitary and Lindblad propagation."""

import math

import numpy as np
import pytest

from adiasim import dynamics
from adiasim.dynamics import (
    BASIS_LABELS,
    BadIndex,
    NoiseModel,
    StepTooLarge,
    UnphysicalNoise,
    _dissipator_matrix,
    _sample_grid,
    _step_matrices,
    _step_polynomial,
    basis_state,
    collapse_operators,
    propagate_custom,
    propagate_lindblad,
    propagate_unitary,
    sigma_ops,
)
from adiasim.operators import X, Z, commutator, embed_1q, pauli_2q
from adiasim.schedule import ProtocolSchedule
from adiasim.tomography import expectation

FIG3B = ProtocolSchedule(z1=2.5, z2=1.5, x1=2.0, x2=4.1, j_final=1.7, zz=0.2, t_ad=30.0)
FIG4_KW = dict(z1=2.5, z2=1.5, x1=1.0, x2=7.3, j_final=1.3, zz=0.2)
ZERO_FIELD = ProtocolSchedule(z1=0.0, z2=0.0, x1=0.0, x2=0.0, t_ad=10.0)
DEFAULT_NOISE = NoiseModel(t1=50.0, t2=40.0, n_th=0.01)


def random_pure_state(rng: np.random.Generator) -> np.ndarray:
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    return psi / np.linalg.norm(psi)


def reference_pure(ham, t_ad, psi0, dt, n_samples):
    """Sampled states of the step-by-step RK4 loop on |psi>."""
    times, steps, h = _sample_grid(t_ad, dt, n_samples)
    w = -2.0j * math.pi
    psi = np.asarray(psi0, dtype=complex)
    states = [psi]
    for t0 in times[:-1]:
        for step in range(steps):
            t = t0 + step * h
            k1 = w * (ham(t) @ psi)
            h_mid = ham(t + 0.5 * h)
            k2 = w * (h_mid @ (psi + 0.5 * h * k1))
            k3 = w * (h_mid @ (psi + 0.5 * h * k2))
            k4 = w * (ham(t + h) @ (psi + h * k3))
            psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(psi)
    return np.array(states)


def reference_lindblad(schedule, rho0, noise, dt, n_samples):
    """Sampled states of the step-by-step RK4 loop on rho."""
    times, steps, h = _sample_grid(schedule.t_ad, dt, n_samples)
    w = -2.0j * math.pi
    diss = _dissipator_matrix(noise)

    def rhs(h_mat, rho):
        return w * (h_mat @ rho - rho @ h_mat) + (diss @ rho.ravel()).reshape(4, 4)

    ham = schedule.hamiltonian
    rho = np.asarray(rho0, dtype=complex)
    states = [rho]
    for t0 in times[:-1]:
        for step in range(steps):
            t = t0 + step * h
            h_mid = ham(t + 0.5 * h)
            k1 = rhs(ham(t), rho)
            k2 = rhs(h_mid, rho + 0.5 * h * k1)
            k3 = rhs(h_mid, rho + 0.5 * h * k2)
            k4 = rhs(ham(t + h), rho + h * k3)
            rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(rho)
    return np.array(states)


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
        lower, raise_, sz = sigma_ops(qubit)
        assert np.allclose(commutator(raise_, lower), sz)
        assert np.allclose(sz, embed_1q(Z, qubit))

    def test_lowering_action(self):
        lower2, _, _ = sigma_ops(2)
        assert np.allclose(lower2 @ basis_state("01"), basis_state("00"))
        assert np.allclose(lower2 @ basis_state("00"), 0.0)
        lower1, _, _ = sigma_ops(1)
        assert np.allclose(lower1 @ basis_state("11"), basis_state("01"))

    def test_sigma_ops_bad_qubit(self):
        with pytest.raises(BadIndex):
            sigma_ops(3)


class TestNoiseModel:
    def test_defaults_are_trivial(self):
        noise = NoiseModel()
        assert noise.is_trivial
        assert collapse_operators(noise) == []
        assert NoiseModel.off().is_trivial

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
        lower1, raise1, sz1 = sigma_ops(1)
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
        traj = propagate_unitary(ZERO_FIELD, basis_state("00"), n_samples=25)
        assert traj.times.shape == (26,)
        assert traj.times[0] == 0.0 and traj.times[-1] == ZERO_FIELD.t_ad
        assert np.allclose(np.diff(traj.times), ZERO_FIELD.t_ad / 25)
        assert traj.states.shape == (26, 4)
        assert not traj.is_mixed

    def test_norm_preserved_on_long_sweep(self):
        traj = propagate_unitary(FIG3B, basis_state("01"), n_samples=40)
        assert traj.max_drift < 1e-6

    def test_requires_normalized_state(self):
        with pytest.raises(ValueError):
            propagate_unitary(ZERO_FIELD, 2.0 * basis_state("00"))

    def test_rejects_coarse_step(self):
        with pytest.raises(ValueError):
            propagate_unitary(ZERO_FIELD, basis_state("00"), dt=0.2)

    def test_step_too_large_on_stiff_problem(self):
        stiff = ProtocolSchedule(z1=400.0, z2=1.0, x1=1.0, x2=1.0, t_ad=1.0)
        with pytest.raises(StepTooLarge):
            propagate_unitary(stiff, basis_state("00"), dt=0.01, n_samples=20)

    def test_energy_conserved_for_constant_hamiltonian(self):
        h0 = FIG3B.hamiltonian(12.0)
        rng = np.random.default_rng(21)
        for _ in range(5):
            psi0 = random_pure_state(rng)
            traj = propagate_custom(lambda t: h0, 10.0, psi0, n_samples=20)
            e0 = (psi0.conj() @ h0 @ psi0).real
            for psi in traj.states:
                e = (psi.conj() @ h0 @ psi).real
                assert abs(e - e0) <= 1e-6 * max(1.0, abs(e0))

    def test_single_qubit_rabi_closed_form(self):
        """Constant H = (x/2) IX flips qubit 2 at frequency x: the analytic
        <IZ>(t) = -cos(2 pi x t) checks both the propagator and the 2 pi
        frequency convention."""
        x = 2.7
        ham = lambda t: 0.5 * x * embed_1q(X, 2)
        traj = propagate_custom(ham, 2.0, basis_state("00"), n_samples=100)
        for t, psi in zip(traj.times, traj.states):
            assert expectation(psi, "IZ") == pytest.approx(
                -math.cos(2 * math.pi * x * t), abs=1e-7
            )

    def test_exchange_oscillation_closed_form(self):
        """Constant H = (j/4)(XX+YY) swaps |01> and |10> with period 1/j."""
        j = 1.3
        op = 0.25 * j * (pauli_2q("XX") + pauli_2q("YY"))
        traj = propagate_custom(lambda t: op, 3.0, basis_state("01"), n_samples=120)
        for t, psi in zip(traj.times, traj.states):
            p10 = abs(psi[2]) ** 2
            assert p10 == pytest.approx(math.sin(math.pi * j * t) ** 2, abs=1e-7)

    def test_halving_dt_settles_fidelity(self):
        """At the default step the result is converged: halving dt moves the
        (normalized) final-state fidelity by less than 1e-8."""
        sch = ProtocolSchedule(t_ad=10.0, **FIG4_KW)
        a = propagate_unitary(sch, basis_state("01"), dt=0.002, n_samples=10).final_state
        b = propagate_unitary(sch, basis_state("01"), dt=0.001, n_samples=10).final_state
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        assert 1.0 - abs(np.vdot(a, b)) ** 2 < 1e-8

    def test_convergence_order_is_fourth(self):
        """Errors of the dt and dt/2 runs, measured against a dt/4 reference,
        shrink by ~2^4."""
        sch = ProtocolSchedule(t_ad=5.0, **FIG4_KW)
        psi0 = basis_state("01")
        ref = propagate_unitary(sch, psi0, dt=0.0005, n_samples=4).final_state
        err1 = np.linalg.norm(
            propagate_unitary(sch, psi0, dt=0.002, n_samples=4).final_state - ref)
        err2 = np.linalg.norm(
            propagate_unitary(sch, psi0, dt=0.001, n_samples=4).final_state - ref)
        order = math.log2(err1 / err2)
        assert 3.5 <= order <= 4.5


class TestLindbladPropagation:
    def test_pure_input_becomes_projector(self):
        traj = propagate_lindblad(ZERO_FIELD, basis_state("01"), NoiseModel.off(),
                                  n_samples=4)
        assert traj.is_mixed
        rho0 = traj.states[0]
        assert np.allclose(rho0, np.outer(basis_state("01"), basis_state("01")))

    def test_rejects_bad_density_matrix(self):
        bad = np.eye(4, dtype=complex)  # trace 4
        with pytest.raises(ValueError):
            propagate_lindblad(ZERO_FIELD, bad, NoiseModel.off(), n_samples=4)

    def test_trace_and_hermiticity_preserved(self):
        traj = propagate_lindblad(FIG3B.with_(t_ad=6.0), basis_state("11"),
                                  DEFAULT_NOISE, n_samples=12)
        for rho in traj.states:
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-9
            assert np.min(np.linalg.eigvalsh(rho)) > -1e-9

    def test_t1_decay_closed_form(self):
        """Free decay of the excited qubit follows exp(-t/T1): the rate is a
        true inverse time, with no 2 pi factor."""
        t1 = 8.0
        noise = NoiseModel(t1=t1, t2=2 * t1, n_th=0.0)
        traj = propagate_lindblad(ZERO_FIELD, basis_state("01"), noise, n_samples=20)
        for t, rho in zip(traj.times, traj.states):
            expected = math.exp(-t / t1)
            assert rho[1, 1].real == pytest.approx(expected, rel=1e-4)

    def test_pure_dephasing_closed_form(self):
        """With only dephasing, coherences decay as exp(-t/T2) while the
        populations stay constant to 1e-10."""
        t2 = 7.0
        noise = NoiseModel(t1=(math.inf, math.inf), t2=(t2, t2), n_th=0.0)
        plus = (basis_state("00") + basis_state("01")) / math.sqrt(2)
        traj = propagate_lindblad(ZERO_FIELD, plus, noise, n_samples=20)
        diag0 = np.diag(traj.states[0]).real
        for t, rho in zip(traj.times, traj.states):
            assert np.allclose(np.diag(rho).real, diag0, atol=1e-10)
            assert rho[0, 1].real == pytest.approx(0.5 * math.exp(-t / t2), rel=1e-6)

    def test_thermal_steady_state(self):
        """With thermal excitation the qubit relaxes to excited-state
        population n_th / (1 + 2 n_th)."""
        nth = 0.05
        noise = NoiseModel(t1=1.0, t2=2.0, n_th=nth)
        traj = propagate_lindblad(ZERO_FIELD, basis_state("00"), noise,
                                  dt=0.002, n_samples=10)
        rho_end = traj.final_state
        expected = nth / (1 + 2 * nth)
        p1 = rho_end[2, 2].real + rho_end[3, 3].real  # qubit 1 excited marginal
        p2 = rho_end[1, 1].real + rho_end[3, 3].real  # qubit 2 excited marginal
        assert p1 == pytest.approx(expected, abs=1e-4)
        assert p2 == pytest.approx(expected, abs=1e-4)

    def test_matches_unitary_when_noise_off(self):
        sch = ProtocolSchedule(t_ad=5.0, **FIG4_KW)
        pure = propagate_unitary(sch, basis_state("01"), n_samples=10)
        mixed = propagate_lindblad(sch, basis_state("01"), NoiseModel.off(),
                                   n_samples=10)
        # The two integrators discretize different equations, so they agree
        # only to the step error, not exactly.
        for psi, rho in zip(pure.states, mixed.states):
            assert np.allclose(np.outer(psi, psi.conj()), rho, atol=1e-5)
            assert (psi.conj() @ rho @ psi).real == pytest.approx(1.0, abs=1e-6)

    def test_contributions_fade_with_longer_protocols(self):
        """With noise on, the end-of-sweep magnitude of every energy
        contribution of the |11>-initialized run shrinks as the protocol
        gets longer (more time to decohere)."""
        from adiasim.tomography import energy_from_correlators, measure_tomogram

        magnitudes = []
        for t_ad in (5.0, 10.0, 20.0, 30.0):
            sch = ProtocolSchedule(t_ad=t_ad, **FIG4_KW)
            traj = propagate_lindblad(sch, basis_state("11"), DEFAULT_NOISE,
                                      n_samples=10)
            tom = measure_tomogram(traj.final_state, t_ad)
            est = energy_from_correlators(tom, sch)
            magnitudes.append({k: abs(v) for k, v in est.contributions.items()})
        for key in magnitudes[0]:
            seq = [m[key] for m in magnitudes]
            assert all(b <= a + 1e-12 for a, b in zip(seq, seq[1:])), key


class TestAgainstStepLoop:
    """The interval-map propagator against the per-step RK4 loop."""

    @pytest.fixture(autouse=True)
    def fresh_maps(self):
        dynamics._schedule_maps.cache_clear()
        yield
        dynamics._schedule_maps.cache_clear()

    @pytest.mark.parametrize("schedule", [ProtocolSchedule(t_ad=5.0, **FIG4_KW)],
                             ids=["linear"])
    def test_unitary(self, schedule):
        psi0 = basis_state("01")
        traj = propagate_unitary(schedule, psi0, dt=0.002, n_samples=10)
        ref = reference_pure(schedule.hamiltonian, schedule.t_ad, psi0, 0.002, 10)
        assert np.max(np.abs(traj.states - ref)) <= 1e-12

    def test_lindblad(self):
        schedule = ProtocolSchedule(t_ad=3.0, **FIG4_KW)
        noise = NoiseModel(t1=(20.0, 30.0), t2=(15.0, 40.0), n_th=(0.02, 0.05))
        rho0 = np.outer(basis_state("11"), basis_state("11"))
        traj = propagate_lindblad(schedule, rho0, noise, dt=0.002, n_samples=6)
        ref = reference_lindblad(schedule, rho0, noise, 0.002, 6)
        assert np.max(np.abs(traj.states - ref)) <= 1e-12

    def test_custom(self):
        op_z, op_x = embed_1q(Z, 2), embed_1q(X, 2)
        ham = lambda t: (np.multiply.outer(1.5 * (1.0 - t / 4.0), op_z)
                         + np.multiply.outer(1.35 * np.cos(t), op_x))
        psi0 = basis_state("00")
        traj = propagate_custom(ham, 4.0, psi0, dt=0.002, n_samples=8)
        ref = reference_pure(ham, 4.0, psi0, 0.002, 8)
        assert np.max(np.abs(traj.states - ref)) <= 1e-12

    def test_interval_spanning_several_batches(self, monkeypatch):
        schedule = ProtocolSchedule(t_ad=2.0, **FIG4_KW)
        psi0 = basis_state("10")
        ref = reference_pure(schedule.hamiltonian, 2.0, psi0, 0.002, 3)
        # 334 steps per interval: two full batches of 128 and one of 78.
        monkeypatch.setattr(dynamics, "_BATCH_STEPS", 128)
        traj = propagate_unitary(schedule, psi0, dt=0.002, n_samples=3)
        assert np.max(np.abs(traj.states - ref)) <= 1e-12
        noise = NoiseModel(t1=20.0, t2=15.0, n_th=0.02)
        monkeypatch.setattr(dynamics, "_BATCH_STEPS", 5)
        mixed = propagate_lindblad(schedule.with_(t_ad=0.3), psi0, noise,
                                   dt=0.002, n_samples=2)
        ref_mixed = reference_lindblad(schedule.with_(t_ad=0.3),
                                       np.outer(psi0, psi0.conj()), noise, 0.002, 2)
        assert np.max(np.abs(mixed.states - ref_mixed)) <= 1e-12

    def test_states_sharing_one_schedule_match_independent_runs(self):
        schedule = ProtocolSchedule(t_ad=5.0, **FIG4_KW)
        shared = {label: propagate_unitary(schedule, basis_state(label), n_samples=10)
                  for label in BASIS_LABELS}
        for label in BASIS_LABELS:
            dynamics._schedule_maps.cache_clear()
            alone = propagate_unitary(schedule, basis_state(label), n_samples=10)
            assert np.array_equal(alone.states, shared[label].states)
            assert np.array_equal(alone.times, shared[label].times)

    def test_custom_hamiltonian_called_once_per_batch(self, monkeypatch):
        """ham receives each batch's 2m+1 stage times as one array, and a
        callable that returns one 4x4 matrix runs like one that returns the
        stack."""
        op = 0.5 * 2.7 * embed_1q(X, 2)
        calls = []

        def stack(t):
            calls.append(np.shape(t))
            return np.broadcast_to(op, np.shape(t) + (4, 4))

        # 334 steps per interval: two full batches of 128 and one of 78.
        monkeypatch.setattr(dynamics, "_BATCH_STEPS", 128)
        traj = propagate_custom(stack, 2.0, basis_state("00"), dt=0.002, n_samples=3)
        assert calls == [(257,), (257,), (157,)] * 3
        constant = propagate_custom(lambda t: op, 2.0, basis_state("00"), dt=0.002, n_samples=3)
        assert np.array_equal(constant.states, traj.states)

    def test_non_finite_state_raises(self):
        nan_ham = lambda t: np.multiply.outer(np.where(np.asarray(t) > 0.5, np.nan, 0.0),
                                              np.ones((4, 4)))
        with pytest.raises(StepTooLarge):
            propagate_custom(nan_ham, 1.0, basis_state("00"), dt=0.005, n_samples=4)


class TestStepPolynomial:
    """I + sum_k s^k P_k against the RK4 step built from the generators at
    the three stage times of a step from s."""

    @pytest.mark.parametrize("noise", [None, NoiseModel(t1=(20.0, 30.0), t2=(15.0, 40.0),
                                                        n_th=(0.02, 0.05))],
                             ids=["schrodinger", "lindblad"])
    def test_matches_steps_from_stage_generators(self, noise):
        schedule = ProtocolSchedule(t_ad=5.0, **FIG4_KW)
        h = 0.002
        w = -2.0j * math.pi
        eye = np.eye(4)

        def generator(t):
            ham = schedule.hamiltonian(t)
            if noise is None:
                return w * ham
            return (w * (np.kron(ham, eye) - np.kron(eye, ham.T))
                    + _dissipator_matrix(noise))

        g0, g1 = generator(0.0), generator(schedule.t_ad) - generator(0.0)
        poly = _step_polynomial(g0, g1, h, h / schedule.t_ad)
        # Step starts: the last step ends at s = 1.
        s = np.random.default_rng(21).uniform(0.0, 1.0 - h / schedule.t_ad, size=20)
        powers = np.vander(s, 5, increasing=True)
        steps = np.eye(len(g0)) + np.einsum("nk,kij->nij", powers, poly)
        for s_n, step in zip(s, steps):
            t = s_n * schedule.t_ad
            gens = np.stack([generator(t), generator(t + 0.5 * h), generator(t + h)])
            assert np.max(np.abs(step - _step_matrices(gens, h)[0])) <= 1e-14

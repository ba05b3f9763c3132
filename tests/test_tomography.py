"""Unit tests for correlator measurement, energy estimation, frame rotation."""

import itertools
import math

import numpy as np
import pytest

from adiasim import tomography
from adiasim.config import validate_config
from adiasim.dynamics import (
    DRIFT_LIMIT,
    NoiseModel,
    basis_state,
    propagate_lindblad,
    propagate_unitary,
)
from adiasim.operators import PAULI_BASIS, PAULI_BASIS_LABELS, PAULI_LABELS_2Q, pauli_2q, pauli_vector
from adiasim.scenarios import _measure
from adiasim.schedule import ProtocolSchedule, TimeOutOfRange
from adiasim.tomography import (
    CORRELATOR_LABELS,
    CROSS_LABELS,
    CorrelatorOutOfRange,
    ENERGY_TERMS,
    energy_terms,
    measure_correlators,
    rotate_correlators,
)

N_RANDOM = 100

FIG3_SCHEDULE = ProtocolSchedule(z1=2.5, z2=1.5, x1=2.0, x2=4.1, j_final=1.7, zz=0.2)
FIG4_SCHEDULE = ProtocolSchedule(z1=2.5, z2=1.5, x1=1.0, x2=7.3, j_final=1.3, zz=0.2)
T_AD = {FIG3_SCHEDULE: 30.0, FIG4_SCHEDULE: 10.0}
PSI0 = (basis_state("01") + 1j * basis_state("10")) / math.sqrt(2)


def random_pure_state(rng: np.random.Generator) -> np.ndarray:
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    return psi / np.linalg.norm(psi)


def random_schedule(rng: np.random.Generator) -> ProtocolSchedule:
    return ProtocolSchedule(
        z1=rng.uniform(-5, 5), z2=rng.uniform(-5, 5),
        x1=rng.uniform(-8, 8), x2=rng.uniform(-8, 8),
        j_final=rng.uniform(-3, 3), zz=0.0,
    )


def mixed_pauli_vector(rho: np.ndarray) -> np.ndarray:
    """r_k = Tr(P_k rho) over the Pauli basis, for one rho or a stack."""
    return np.einsum("kij,...ji->...k", PAULI_BASIS, rho).real


def labelled(state: np.ndarray, shots: int = 0, seed=None) -> dict:
    """The correlators of one state (a 4-vector or a Pauli vector of 16), by label."""
    state = np.asarray(state)
    r = pauli_vector(state) if state.shape == (4,) else state
    row = measure_correlators(r[None], shots, seed)[0]
    return dict(zip(CORRELATOR_LABELS, row))


def correlator(state: np.ndarray, label: str, shots: int = 0, seed=None) -> float:
    return float(labelled(state, shots, seed)[label])


def direct(state: np.ndarray, label: str) -> float:
    """<P> computed straight from the Pauli matrix, for a pure state."""
    return float(np.vdot(state, pauli_2q(label) @ state).real)


def energy(state: np.ndarray, sch: ProtocolSchedule, s: float) -> float:
    """Estimated E/h of one state at sweep point s: the row sum of its six terms."""
    return float(energy_terms(measure_correlators(pauli_vector(state)[None]), sch, [s]).sum())


class TestExpectation:
    def test_ground_state_zi(self):
        assert correlator(basis_state("00"), "ZI") == pytest.approx(-1.0)
        assert correlator(basis_state("00"), "IZ") == pytest.approx(-1.0)

    def test_bell_state_xx(self):
        bell = (basis_state("01") + basis_state("10")) / math.sqrt(2)
        assert correlator(bell, "XX") == pytest.approx(1.0)
        assert correlator(bell, "YY") == pytest.approx(1.0)

    def test_maximally_mixed(self):
        r = mixed_pauli_vector(np.eye(4, dtype=complex) / 4.0)
        for label in PAULI_LABELS_2Q:
            assert correlator(r, label) == pytest.approx(0.0, abs=1e-12)

    def test_pure_equals_projector(self):
        rng = np.random.default_rng(31)
        for _ in range(N_RANDOM):
            psi = random_pure_state(rng)
            r = mixed_pauli_vector(np.outer(psi, psi.conj()))
            label = PAULI_LABELS_2Q[rng.integers(len(PAULI_LABELS_2Q))]
            assert correlator(psi, label) == pytest.approx(
                correlator(r, label), abs=1e-12)

    def test_result_is_real_and_bounded(self):
        rng = np.random.default_rng(32)
        for _ in range(N_RANDOM):
            psi = random_pure_state(rng)
            values = measure_correlators(pauli_vector(psi)[None])
            assert values.dtype == np.float64
            assert np.all(np.abs(values) <= 1.0 + 1e-12)


class TestSampling:
    def test_eigenstate_is_exact_for_any_shots(self):
        for shots in (1, 10, 1000):
            assert correlator(basis_state("00"), "ZI", shots, seed=0) == -1.0

    def test_zero_expectation_spread(self):
        """A <P>=0 state sampled with 10000 shots lands within +-0.05
        (5 sigma) for at least 99% of seeds."""
        plus = (basis_state("00") + basis_state("01")) / math.sqrt(2)  # <IZ>=0
        hits = sum(
            abs(correlator(plus, "IZ", 10_000, seed=seed)) <= 0.05
            for seed in range(200)
        )
        assert hits >= 198

    def test_estimator_is_unbiased(self):
        """Averaged over many seeds the estimator converges to the exact
        expectation within 3 standard errors."""
        rng = np.random.default_rng(33)
        psi = random_pure_state(rng)
        label = "IX"
        exact = correlator(psi, label)
        shots = 100
        n_seeds = 1000
        draws = [correlator(psi, label, shots, seed=k) for k in range(n_seeds)]
        sigma = math.sqrt((1.0 - exact**2) / shots)
        assert abs(np.mean(draws) - exact) <= 3.0 * sigma / math.sqrt(n_seeds)

    def test_deterministic_given_seed(self):
        psi = (basis_state("00") + 1j * basis_state("11")) / math.sqrt(2)
        a = correlator(psi, "XX", 500, seed=42)
        b = correlator(psi, "XX", 500, seed=42)
        assert a == b
        c = correlator(psi, "XX", 500, seed=43)
        assert a != c  # overwhelmingly likely for 500 shots

    def test_requires_positive_shots(self):
        with pytest.raises(ValueError):
            measure_correlators(pauli_vector(basis_state("00"))[None], -1, seed=0)


WORD = 2**64 - 1
GAMMA = 0x9E3779B97F4A7C15


def splitmix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & WORD
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & WORD
    return z ^ (z >> 31)


def reference_uniforms(key, index: int):
    """Value ``index``'s uniforms under ``key``, one Python int at a time."""
    parts = key if isinstance(key, tuple) else (key,)
    words = [len(parts)]
    for part in parts:
        chunk = [part & WORD]
        while part := part >> 64:
            chunk.append(part & WORD)
        words += [len(chunk), *chunk]
    h = 0
    for word in words:
        h = (splitmix(h ^ word) + GAMMA) & WORD
    base = splitmix((h + (index + 1) * GAMMA) & WORD)
    for j in itertools.count():
        yield (float(splitmix((base + j * GAMMA) & WORD) >> 12) + 0.5) * 2.0**-52


def reference_count(n: float, p: float, key, index: int) -> float:
    """One value's Binomial(n, p) count from its own stream, drawn as CPython's
    ``random.binomialvariate`` draws it, except that every BTRS attempt
    takes both of its uniforms.  numpy's log keeps it bit-equal to the
    batched sampler."""
    draws = reference_uniforms(key, index)
    q = min(p, 1.0 - p)
    mirror = (lambda k: n - k) if p > 0.5 else (lambda k: k)
    if q == 0.0:
        return mirror(0.0)
    if n * q < 10.0:
        c, x, y = np.log1p(-q), 0.0, 0.0
        while True:
            y += np.floor(np.log(next(draws)) / c) + 1.0
            if y > n:
                return mirror(x)
            x += 1.0
    spq = np.sqrt(n * q * (1.0 - q))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * q
    c = n * q + 0.5
    vr = 0.92 - 4.2 / b
    while True:
        u, v = next(draws) - 0.5, next(draws)
        us = 0.5 - abs(u)
        k = np.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        if us >= 0.07 and v <= vr:
            return mirror(k)
        alpha = (2.83 + 5.1 / b) * spq
        m = np.floor((n + 1.0) * q)
        log_f = tomography._log_factorial(np.array([m, n - m, k, n - k]))
        if (np.log(v * (alpha / (a / (us * us) + b)))
                <= log_f[0] + log_f[1] - log_f[2] - log_f[3] + (k - m) * np.log(q / (1.0 - q))):
            return mirror(k)


def chi_square_limit(df: int, z: float = 4.75) -> float:
    """The chi-square quantile at a normal z-score (about 1e-6 false alarms),
    by the Wilson-Hilferty cube."""
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + z * math.sqrt(h)) ** 3


class TestBinomialSampler:
    """``tomography._sample``: SplitMix64 counter streams and an exact binomial."""

    @pytest.mark.parametrize("n, p, branch", [
        (20, 0.2, "inversion"), (20, 0.8, "inversion"), (79, 0.125, "inversion"),
        (79, 0.875, "inversion"), (80, 0.125, "btrs"), (80, 0.875, "btrs"), (300, 0.3, "btrs"),
        (300, 0.7, "btrs")])
    def test_counts_follow_the_binomial_pmf(self, n, p, branch):
        """20 000 draws against the exact pmf, for each branch (n*q < 10 or
        not, q = min(p, 1 - p)) on both sides of p = 1/2; tails are pooled
        into bins of at least 5 expected draws."""
        draws = 20_000
        assert (n * min(p, 1.0 - p) < 10.0) == (branch == "inversion")
        counts = tomography._binomial(float(n), np.full(draws, p), (36, n))
        observed = np.bincount(counts.astype(int), minlength=n + 1)
        assert observed.sum() == draws and np.array_equal(counts, np.floor(counts))
        expected = draws * np.array([math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
                                     for k in range(n + 1)])
        bins, acc_o, acc_e = [], 0.0, 0.0
        for o, e in zip(observed, expected):
            acc_o, acc_e = acc_o + o, acc_e + e
            if acc_e >= 5.0:
                bins.append([acc_o, acc_e])
                acc_o = acc_e = 0.0
        bins[-1][0] += acc_o
        bins[-1][1] += acc_e
        o, e = np.array(bins).T
        statistic = float(np.sum((o - e) ** 2 / e))
        assert statistic <= chi_square_limit(len(bins) - 1), (statistic, len(bins))

    @pytest.mark.parametrize("shots", [1, 7, 60, 1000, 10**6])
    def test_batched_counts_match_the_scalar_reference(self, shots):
        """Every count equals the one-value-at-a-time reference bit for bit,
        over p that reach both branches, both sides of p = 1/2 and both ends."""
        p = np.concatenate([np.linspace(0.0, 1.0, 41), [1e-3, 1.0 - 1e-3, 5e-6, 1.0 - 5e-6]])
        key = (11, 2, 0)
        counts = tomography._binomial(float(shots), p, key)
        reference = [reference_count(float(shots), float(p_i), key, i) for i, p_i in enumerate(p)]
        assert np.array_equal(counts, reference)

    def test_a_count_does_not_depend_on_the_batch(self):
        """Value i's count depends on the key, i, p and shots only: a prefix of
        the stack, or the same stack as (n, 10), draws the same counts."""
        exact = np.random.default_rng(36).uniform(-1.0, 1.0, 300)
        whole = tomography._sample(exact, 500, (4, 1))
        assert np.array_equal(tomography._sample(exact[:37], 500, (4, 1)), whole[:37])
        assert np.array_equal(tomography._sample(exact.reshape(30, 10), 500, (4, 1)),
                              whole.reshape(30, 10))

    def test_saturated_means_are_exact(self):
        for shots in (1, 1000, tomography.MAX_SHOTS):
            values = tomography._sample(np.array([-1.0, 1.0]), shots, 3)
            assert values.tolist() == [-1.0, 1.0]

    def test_one_shot_gives_plus_or_minus_one(self):
        exact = np.linspace(-0.9, 0.9, 2000)
        values = tomography._sample(exact, 1, 8)
        assert set(values.tolist()) == {-1.0, 1.0}
        # E[value] = <P>; the mean of 2000 such draws is within 5 sigma.
        assert abs(np.mean(values - exact)) <= 5.0 / math.sqrt(2000)

    def test_largest_shot_count_gives_finite_values_in_range(self):
        """MAX_SHOTS shots give means within 6 sigma, 6 / sqrt(MAX_SHOTS), of <P>."""
        exact = np.linspace(-1.0, 1.0, 101)
        values = tomography._sample(exact, tomography.MAX_SHOTS, (1, 2))
        assert np.all(np.isfinite(values))
        assert np.all(np.abs(values) <= 1.0)
        assert np.max(np.abs(values - exact)) <= 6.0 / math.sqrt(tomography.MAX_SHOTS)

    def test_shots_above_the_cap_are_refused(self):
        r = pauli_vector(basis_state("00"))[None]
        with pytest.raises(ValueError, match="shots must be in 1..1000000000"):
            measure_correlators(r, tomography.MAX_SHOTS + 1, (1, 2))

    @pytest.mark.parametrize("p, key", [(3e-9, (3, 9)), (0.3, (4, 2))])
    def test_moments_at_the_cap(self, p, key):
        """200 000 counts at MAX_SHOTS, from the inversion branch (n*p = 3)
        and from BTRS: the mean within 5 sigma of n*p, and the variance within
        5 of its standard errors of n*p*q.  Rounding in BTRS's log-factorials
        widens the variance by 1.3 % at 1e14 shots."""
        n, draws = float(tomography.MAX_SHOTS), 200_000
        counts = tomography._binomial(n, np.full(draws, p), key)
        mean, var = n * p, n * p * (1.0 - p)
        assert abs(counts.mean() - mean) <= 5.0 * math.sqrt(var / draws)
        # The sample variance's standard error, (mu4 / var**2 - 1) / draws under the root.
        kurtosis = 3.0 + (1.0 - 6.0 * p * (1.0 - p)) / var
        assert abs(counts.var() / var - 1.0) <= 5.0 * math.sqrt((kurtosis - 1.0) / draws)

    @pytest.mark.parametrize("key, other", [(5, 2**64 + 5), ((1, 0), (1, 0, 0)), ((0, 1), (1, 0)),
                                            ((2**64,), (0, 1))])
    def test_distinct_keys_draw_distinct_streams(self, key, other):
        exact = np.zeros(200)
        assert not np.array_equal(tomography._sample(exact, 1000, key),
                                  tomography._sample(exact, 1000, other))

    def test_an_int_seed_is_a_one_part_key(self):
        exact = np.zeros(50)
        assert np.array_equal(tomography._sample(exact, 1000, 5), tomography._sample(exact, 1000, (5,)))

    @pytest.mark.parametrize("seed", [-1, (3, -2)])
    def test_rejects_negative_seed_parts(self, seed):
        with pytest.raises(ValueError, match="seed"):
            measure_correlators(pauli_vector(basis_state("00"))[None], 10, seed)

    def test_sampled_mode_requires_a_seed(self):
        """Without a seed a sampled run would draw OS entropy; it raises instead."""
        with pytest.raises(ValueError, match="seed"):
            measure_correlators(pauli_vector(basis_state("00"))[None], 10)
        assert measure_correlators(pauli_vector(basis_state("00"))[None]).shape == (1, 10)

    def test_log_factorial_matches_lgamma(self):
        x = np.array([0.0, 1.0, 2.0, 15.0, 16.0, 17.0, 100.0, 1e4, 1e9])
        got = tomography._log_factorial(x)
        want = np.array([math.lgamma(v + 1.0) for v in x])
        assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(want, 1.0))


class TestTomogram:
    """One state's (1, 10) row of ``measure_correlators``."""

    def test_contains_all_standard_terms(self):
        values = measure_correlators(pauli_vector(basis_state("00"))[None])
        assert values.shape == (1, len(CORRELATOR_LABELS))
        assert CORRELATOR_LABELS == PAULI_LABELS_2Q + CROSS_LABELS

    def test_exact_mode_matches_expectation(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            psi = random_pure_state(rng)
            row = measure_correlators(pauli_vector(psi)[None])[0]
            for k, label in enumerate(PAULI_LABELS_2Q):
                assert row[k] == pytest.approx(direct(psi, label), abs=1e-12)

    def test_sampled_mode_bounds(self):
        rng = np.random.default_rng(35)
        for seed in range(30):
            psi = random_pure_state(rng)
            row = measure_correlators(pauli_vector(psi)[None], shots=400, seed=seed)[0]
            eps = 3.0 / math.sqrt(400)
            for k, label in enumerate(PAULI_LABELS_2Q):
                assert -1 - eps <= row[k] <= 1 + eps
                # sampled values also stay within the statistical envelope
                # of the exact value for these seeds
                assert abs(row[k] - direct(psi, label)) <= 5 * eps

    def test_sampled_terms_use_independent_streams(self):
        """Two terms with identical exact expectations should not produce
        identical sampling noise."""
        psi = (basis_state("00") + basis_state("11")) / math.sqrt(2)
        row = labelled(psi, shots=400, seed=7)
        assert row["XX"] != row["YY"] or row["ZI"] != row["IZ"]

    def test_sampled_reproducible(self):
        psi = (basis_state("01") + basis_state("10")) / math.sqrt(2)
        a = measure_correlators(pauli_vector(psi)[None], shots=300, seed=11)
        b = measure_correlators(pauli_vector(psi)[None], shots=300, seed=11)
        assert np.array_equal(a, b)

    def test_construction_rejects_out_of_range(self):
        # An over-normalised |+0> reads <XI> = 1.5.
        plus0 = (basis_state("00") + basis_state("10")) / math.sqrt(2)
        with pytest.raises(ValueError, match="XI"):
            measure_correlators(pauli_vector(math.sqrt(1.5) * plus0[None]))


def reference_energy(values: dict, sch: ProtocolSchedule, s: float) -> dict:
    """The six estimator terms written out from the schedule's parameters."""
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
        traj = propagate_unitary(FIG4_SCHEDULE, 10.0, PSI0, 0.01, 50)
        values = measure_correlators(pauli_vector(traj.states))
        assert values.shape == (51, len(CORRELATOR_LABELS))
        loop = [[np.vdot(psi, op @ psi).real for op in self.OPS] for psi in traj.states]
        assert np.max(np.abs(values - loop)) <= 1e-12

    def test_mixed_trajectory_matches_per_state_loop(self):
        noise = NoiseModel(t1=5.0, t2=4.0, n_th=0.05)
        traj = propagate_lindblad(FIG4_SCHEDULE, 10.0, PSI0, noise, 0.01, 50)
        values = measure_correlators(traj.states)
        # Tr(P rho) with rho = sum_k r_k P_k / 4 rebuilt from each Pauli vector.
        loop = [[np.trace(op @ np.einsum("k,kij->ij", r, PAULI_BASIS)).real / 4.0
                 for op in self.OPS] for r in traj.states]
        assert np.max(np.abs(values - loop)) <= 1e-12

    def test_lindblad_correlators_are_columns_of_r(self):
        noise = NoiseModel(t1=5.0, t2=4.0, n_th=0.05)
        traj = propagate_lindblad(FIG4_SCHEDULE, 10.0, PSI0, noise, 0.01, 50)
        columns = [PAULI_BASIS_LABELS.index(label) for label in CORRELATOR_LABELS]
        assert np.array_equal(measure_correlators(traj.states), traj.states[:, columns])

    def test_density_matrices_are_refused(self):
        """A mixed state is a Pauli vector: neither an (n, 4, 4) stack nor a
        4x4 initial state is read, not even a valid projector."""
        states = np.stack([basis_state("00"), PSI0])
        projectors = np.einsum("ni,nj->nij", states, states.conj())
        with pytest.raises(ValueError, match="stack"):
            measure_correlators(projectors)
        with pytest.raises(ValueError):
            propagate_lindblad(FIG4_SCHEDULE, 10.0, projectors[0], NoiseModel(), 0.01, 4)

    @pytest.mark.parametrize("mixed", [False, True])
    def test_range_check(self, mixed):
        """Exact values are checked before sampling, whose means of +-1 shots
        always lie in [-1, 1]; a NaN fails too."""
        states = np.stack([basis_state("00"), PSI0])
        if mixed:
            states = mixed_pauli_vector(np.einsum("ni,nj->nij", states, states.conj()))
        else:
            states = pauli_vector(states)
        for shots in (0, 1000):
            with pytest.raises(CorrelatorOutOfRange, match="outside"):
                measure_correlators(1.01 * states, shots, seed=3)
        with pytest.raises(CorrelatorOutOfRange, match="nan outside"):
            measure_correlators(np.where(states == 0, np.nan, states))

    @pytest.mark.parametrize("mixed", [False, True])
    def test_range_allows_the_drift_the_propagators_accept(self, mixed):
        """A state whose norm or trace is off by DRIFT_LIMIT still measures."""
        scale = 1.0 + DRIFT_LIMIT
        psi = basis_state("10")
        state = scale * mixed_pauli_vector(np.outer(psi, psi)) if mixed else pauli_vector(scale * psi)
        zi = measure_correlators(state[None])[0, CORRELATOR_LABELS.index("ZI")]
        assert abs(zi) == pytest.approx(scale if mixed else scale**2, abs=1e-15)

    def test_rejects_non_stack(self):
        """Only (n, 16) Pauli vectors are read: neither one state nor an
        (n, 4) stack of pure states."""
        for states in (PSI0, PSI0[None]):
            with pytest.raises(ValueError, match="stack"):
                measure_correlators(states)

    def test_sampled_columns_are_one_binomial_draw_per_stream(self):
        """A trajectory's n x 10 counts are binomial draws, value i in
        row-major order from stream i under the key (seed, *key)."""
        config, errors = validate_config("[scenario]\nname = fig4\n\n"
                                         "[simulation]\nshots = 500\nseed = 17\n")
        assert errors == []
        r = pauli_vector(propagate_unitary(FIG4_SCHEDULE, 10.0, PSI0, 0.01, 20).states)
        columns = _measure(config, r, 2, 1)
        p_plus = np.clip(0.5 * (1.0 + measure_correlators(r)), 0.0, 1.0)
        assert p_plus.shape == (21, len(CORRELATOR_LABELS))
        counts = np.array([reference_count(500.0, p, (config.seed, 2, 1), i)
                           for i, p in enumerate(p_plus.ravel())]).reshape(p_plus.shape)
        assert np.array_equal(columns, (2.0 * counts - 500) / 500)

    @pytest.mark.parametrize("sch", [FIG4_SCHEDULE, FIG3_SCHEDULE], ids=["fig4", "fig3b"])
    def test_energy_terms_match_reference_formula(self, sch):
        t_ad = T_AD[sch]
        traj = propagate_unitary(sch, t_ad, PSI0, 0.01, 40)
        values = measure_correlators(pauli_vector(traj.states))
        terms = energy_terms(values, sch, traj.times / t_ad)
        for row, t, term_row in zip(values, traj.times, terms):
            reference = reference_energy(dict(zip(CORRELATOR_LABELS, row)), sch, t / t_ad)
            assert np.max(np.abs(term_row - [reference[k] for k in ENERGY_TERMS])) <= 1e-12
            assert abs(term_row.sum() - sum(reference.values())) <= 1e-12
        # The affine weights w0 + s*w1 against Tr(P H(s))/4 of the H(s) stack,
        # relative to each term's scale over the sweep.
        labels = ("ZI", "IZ", "XI", "IX", "XX", "YY")
        ops = np.array([pauli_2q(label) for label in labels])
        weights = np.einsum("pij,nji->np", ops, sch.hamiltonian(traj.times / t_ad)).real / 4.0
        stacked = weights * values[:, [CORRELATOR_LABELS.index(label) for label in labels]]
        assert np.all(np.abs(terms - stacked) <= 1e-15 * np.abs(stacked).max(axis=0))

    @pytest.mark.parametrize("s", [[-0.01], [0.5, 1.0 + 1e-6], [math.nan]])
    def test_energy_terms_outside_the_sweep(self, s):
        values = measure_correlators(np.tile(pauli_vector(PSI0), (len(s), 1)))
        with pytest.raises(TimeOutOfRange):
            energy_terms(values, FIG4_SCHEDULE, s)


class TestEnergyEstimate:
    def test_initial_product_state_energy(self):
        assert energy(basis_state("00"), FIG3_SCHEDULE, 0.0) == pytest.approx(-2.0)

    def test_contributions_sum_to_energy(self):
        """With zz = 0 the six terms sum to <psi|H(s)|psi>."""
        assert ENERGY_TERMS == ("z1", "z2", "x1", "x2", "xx", "yy")
        rng = np.random.default_rng(36)
        for _ in range(N_RANDOM):
            sch = random_schedule(rng)
            s = rng.uniform(0, 1)
            psi = random_pure_state(rng)
            terms = energy_terms(measure_correlators(pauli_vector(psi)[None]), sch, [s])
            assert terms.shape == (1, len(ENERGY_TERMS))
            expected = (psi.conj() @ sch.hamiltonian(s) @ psi).real
            assert expected == pytest.approx(terms.sum(), abs=1e-9)

    def test_eigenstate_reproduces_eigenvalue_when_zz_zero(self):
        rng = np.random.default_rng(37)
        for _ in range(N_RANDOM):
            sch = random_schedule(rng)  # zz = 0
            s = rng.uniform(0, 1)
            vals, vecs = np.linalg.eigh(sch.hamiltonian(s))
            k = rng.integers(4)
            assert energy(vecs[:, k], sch, s) == pytest.approx(vals[k], abs=1e-6)

    def test_zz_term_excluded(self):
        """The estimator reconstructs only the six driven terms, so a ZZ
        offset shifts the true eigenvalue but not the estimate."""
        with_zz = FIG3_SCHEDULE
        without = FIG3_SCHEDULE.with_(zz=0.0)
        psi = basis_state("00")
        e_with = energy(psi, with_zz, 0.0)
        e_without = energy(psi, without, 0.0)
        assert e_with == pytest.approx(e_without)
        true_with = (psi.conj() @ with_zz.hamiltonian(0.0) @ psi).real
        assert abs(true_with - e_with) == pytest.approx(0.05)  # zz/4

    def test_explicit_time_argument(self):
        # Correlators of |00>, weighed at s = 1: the z-terms have zero
        # weight there and |00> has no x signal.
        assert energy(basis_state("00"), FIG3_SCHEDULE, 1.0) == pytest.approx(
            0.0, abs=1e-12)


def rotated(psi: np.ndarray, theta: float) -> dict:
    """Correlators of one state with qubit 2 rotated into another frame, by label."""
    row = rotate_correlators(measure_correlators(pauli_vector(psi)[None]), theta)[0]
    return dict(zip(CORRELATOR_LABELS, row))


class TestRotateFrame:
    def test_zero_angle_identity(self):
        rng = np.random.default_rng(38)
        psi = random_pure_state(rng)
        tom, rot = labelled(psi), rotated(psi, 0.0)
        for label, value in tom.items():
            assert rot[label] == pytest.approx(value, abs=1e-15)

    def test_quarter_turn(self):
        rng = np.random.default_rng(39)
        psi = random_pure_state(rng)
        tom, rot = labelled(psi), rotated(psi, math.pi / 2)
        assert rot["IX"] == pytest.approx(tom["IY"], abs=1e-12)
        assert rot["IY"] == pytest.approx(-tom["IX"], abs=1e-12)
        assert rot["IZ"] == pytest.approx(tom["IZ"], abs=1e-15)
        assert rot["XX"] == pytest.approx(tom["XY"], abs=1e-12)
        assert rot["XY"] == pytest.approx(-tom["XX"], abs=1e-12)
        assert (rot["XI"], rot["YI"]) == (tom["XI"], tom["YI"])  # qubit 1 stays

    def test_preserves_transverse_norm(self):
        rng = np.random.default_rng(40)
        for _ in range(N_RANDOM):
            psi = random_pure_state(rng)
            theta = rng.uniform(-10, 10)
            tom, rot = labelled(psi), rotated(psi, theta)
            for a, b in [("IX", "IY"), ("XX", "XY"), ("YX", "YY")]:
                before = tom[a] ** 2 + tom[b] ** 2
                after = rot[a] ** 2 + rot[b] ** 2
                assert after == pytest.approx(before, abs=1e-12)

    def test_rotation_composes(self):
        rng = np.random.default_rng(41)
        values = measure_correlators(pauli_vector(random_pure_state(rng))[None])
        once = rotate_correlators(rotate_correlators(values, 0.3), 0.4)
        combined = rotate_correlators(values, 0.7)
        assert np.max(np.abs(once - combined)[:, :len(PAULI_LABELS_2Q)]) <= 1e-12

    def test_matches_physically_rotated_state(self):
        """Rotating the correlators equals measuring the state conjugated by
        exp(-i theta Z/2) on qubit 2."""
        rng = np.random.default_rng(42)
        for _ in range(20):
            psi = random_pure_state(rng)
            theta = rng.uniform(-math.pi, math.pi)
            rot = rotated(psi, theta)
            u1q = np.diag([np.exp(1j * theta / 2), np.exp(-1j * theta / 2)])
            u = np.kron(np.eye(2), u1q)
            direct_rot = labelled(u @ psi)
            for label in PAULI_LABELS_2Q:
                assert rot[label] == pytest.approx(direct_rot[label], abs=1e-10)

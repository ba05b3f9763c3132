"""Unit tests for the sweep schedule and the single-qubit drive frames."""

import math

import numpy as np
import pytest

from adiasim.dynamics import NoiseModel, basis_state, propagate_lindblad, propagate_unitary
from adiasim.operators import I2, X, Y, Z, embed_1q, pauli_2q
from adiasim.schedule import (
    ProtocolSchedule,
    TimeOutOfRange,
    frame_rotation_angle,
)

N_RANDOM = 120

FIG4_KW = dict(z1=2.5, z2=1.5, x1=1.0, x2=7.3, j_final=1.3, zz=0.2)


def explicit_hamiltonian(sch: ProtocolSchedule, s: float) -> np.ndarray:
    """Independent construction of the sweep Hamiltonian from raw kron calls."""
    h = (1.0 - s) * 0.5 * (sch.z1 * np.kron(Z, I2) + sch.z2 * np.kron(I2, Z))
    h = h + s * 0.5 * (sch.x1 * np.kron(X, I2) + sch.x2 * np.kron(I2, X))
    h = h + s * sch.j_final * 0.25 * (np.kron(X, X) + np.kron(Y, Y))
    h = h + sch.zz * 0.25 * np.kron(Z, Z)
    return h


def random_schedule(rng: np.random.Generator) -> ProtocolSchedule:
    return ProtocolSchedule(
        z1=rng.uniform(-5, 5),
        z2=rng.uniform(-5, 5),
        x1=rng.uniform(-8, 8),
        x2=rng.uniform(-8, 8),
        j_final=rng.uniform(-3, 3),
        zz=rng.uniform(-0.5, 0.5),
    )


class TestProtocolSchedule:
    def test_endpoints(self):
        sch = ProtocolSchedule(**FIG4_KW)
        h0 = sch.hamiltonian(0.0)
        expected0 = 0.5 * (2.5 * pauli_2q("ZI") + 1.5 * pauli_2q("IZ")) + 0.05 * pauli_2q("ZZ")
        assert np.allclose(h0, expected0, atol=1e-14)
        h1 = sch.hamiltonian(1.0)
        expected1 = (
            0.5 * (1.0 * pauli_2q("XI") + 7.3 * pauli_2q("IX"))
            + 1.3 * 0.25 * (pauli_2q("XX") + pauli_2q("YY"))
            + 0.05 * pauli_2q("ZZ")
        )
        assert np.allclose(h1, expected1, atol=1e-14)

    def test_linear_coupling_ramp(self):
        sch = ProtocolSchedule(**FIG4_KW)
        xx = pauli_2q("XX")
        # The XX coefficient Tr(XX H)/4 of H(s) is j(s)/4.
        for s, j in ((0.0, 0.0), (0.5, 0.65), (1.0, 1.3)):
            assert np.trace(xx @ sch.hamiltonian(s)).real / 4 == pytest.approx(j / 4)

    def test_matches_explicit_construction(self):
        rng = np.random.default_rng(11)
        for _ in range(N_RANDOM):
            sch = random_schedule(rng)
            s = rng.uniform(0.0, 1.0)
            h = sch.hamiltonian(s)
            assert np.allclose(h, explicit_hamiltonian(sch, s), atol=1e-12)
            assert np.max(np.abs(h - h.conj().T)) <= 1e-12

    def test_time_window(self):
        sch = ProtocolSchedule(**FIG4_KW)
        for bad in (-0.05, 1.05, math.nan):
            with pytest.raises(TimeOutOfRange):
                sch.hamiltonian(bad)
        # Tiny numerical overshoot of the endpoints is tolerated.
        sch.hamiltonian(1.0 + 1e-12)
        sch.hamiltonian(-1e-14)
        for bad in (1.05, math.nan):
            with pytest.raises(TimeOutOfRange):
                sch.hamiltonian(np.array([0.0, 0.5, bad]))
        assert sch.hamiltonian(np.array([-1e-14, 1.0 + 1e-12])).shape == (2, 4, 4)

    def test_stacked_hamiltonians_match_scalar(self):
        rng = np.random.default_rng(12)
        for sch in [random_schedule(rng) for _ in range(10)]:
            s = np.sort(rng.uniform(0.0, 1.0, size=50))
            stack = sch.hamiltonian(s)
            scalar = np.array([sch.hamiltonian(float(v)) for v in s])
            assert np.array_equal(stack, scalar)

    def test_requires_positive_duration(self):
        """A schedule has no duration; every propagator requires a positive,
        finite one, even with a step small enough for it."""
        sch = ProtocolSchedule(z1=1, z2=1, x1=1, x2=1)
        psi0 = basis_state("01")
        for t_ad in (0.0, -1.0, math.inf, math.nan):
            runs = (lambda: propagate_unitary(sch, t_ad, psi0, 1e-16, 4),
                    lambda: propagate_lindblad(sch, t_ad, psi0, NoiseModel(), 1e-16, 4))
            for run in runs:
                with pytest.raises(ValueError, match="t_ad must be positive and finite"):
                    run()

    def test_with_replaces_fields(self):
        sch = ProtocolSchedule(**FIG4_KW)
        other = sch.with_(zz=0.0, j_final=2.0)
        assert (other.zz, other.j_final) == (0.0, 2.0)
        assert not np.array_equal(other.h1, sch.h1)
        assert other.with_(zz=0.2, j_final=1.3) == sch


class TestFrames:
    def test_rotation_angle(self):
        """theta(t) integrates the residual detuning 2 pi z (1 - t/t_ad)."""
        z, t_ad = 3.0, 10.0
        assert frame_rotation_angle(z, 0.0, t_ad) == pytest.approx(0.0)
        assert frame_rotation_angle(z, t_ad, t_ad) == pytest.approx(math.pi * z * t_ad)
        rng = np.random.default_rng(13)
        for _ in range(N_RANDOM):
            t = rng.uniform(1e-3, t_ad - 1e-3)
            h = 1e-6
            deriv = (frame_rotation_angle(z, t + h, t_ad)
                     - frame_rotation_angle(z, t - h, t_ad)) / (2 * h)
            assert deriv == pytest.approx(2 * math.pi * z * (1 - t / t_ad), rel=1e-6)

    def test_chirped_frame_structure(self):
        """The chirped frame is the sweep schedule with qubit 1 idle:
        (1 - s) z/2 Z + s x/2 X on qubit 2."""
        z, x = 3.0, 2.7
        ham = ProtocolSchedule(z1=0.0, z2=z, x1=0.0, x2=x).hamiltonian
        assert np.allclose(ham(0.0), 0.5 * z * embed_1q(Z, 2), atol=1e-15)
        assert np.allclose(ham(0.5), 0.25 * z * embed_1q(Z, 2) + 0.25 * x * embed_1q(X, 2),
                           atol=1e-15)
        assert np.allclose(ham(1.0), 0.5 * x * embed_1q(X, 2), atol=1e-15)

    def test_qubit_one_embedding(self):
        """With z2 = x2 = 0 the same sweep runs on qubit 1."""
        z, x = 3.0, 2.7
        ham = ProtocolSchedule(z1=z, z2=0.0, x1=x, x2=0.0).hamiltonian
        assert np.allclose(ham(0.0), 0.5 * z * embed_1q(Z, 1), atol=1e-15)
        assert np.allclose(ham(0.5), 0.25 * z * embed_1q(Z, 1) + 0.25 * x * embed_1q(X, 1),
                           atol=1e-15)
        assert np.allclose(ham(1.0), 0.5 * x * embed_1q(X, 1), atol=1e-15)

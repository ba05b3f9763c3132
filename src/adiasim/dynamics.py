"""Propagation of pure states (Schrodinger) and density matrices (Lindblad).

Fixed-step RK4 with the Hamiltonian evaluated at the substage times
(t, t + dt/2, t + dt).  Hamiltonians are stored as H/h in MHz and times in
microseconds, so the equations of motion carry an explicit 2*pi:

    d|psi>/dt = -i * 2*pi * H(t) |psi>
    d rho/dt  = -i * 2*pi * [H(t), rho] + sum_k ( L_k rho L_k+
                                                  - {L_k+ L_k, rho} / 2 )

Decay rates are genuine inverse times (no 2*pi): a qubit with relaxation
time T1 loses excited-state population as exp(-t/T1).

Both equations are linear, d x/dt = A(t) x, with x the state vector or the
row-major vectorized density matrix and A the 4x4 generator -2*pi*i*H or
the 16x16 Liouvillian -2*pi*i*(H (x) I - I (x) H^T) + D.  One RK4 step is
therefore a fixed matrix built from the generators at the step's start
(A1), midpoint (A2) and end (A3):

    R = I + h/6 * (K1 + 2*K2 + 2*K3 + K4),
    K1 = A1,  K2 = A2 + (h/2) A2 K1,  K3 = A2 + (h/2) A2 K2,  K4 = A3 + h A3 K3.

Each sample interval is propagated by the product of its step matrices,
taken in batches of at most ``_BATCH_STEPS`` and multiplied in time order
by pairwise reduction, so memory stays bounded however many steps an
interval holds.  A sweep schedule is affine in s = t/t_ad, so its generator
is A(s) = G0 + s*G1 and R(s) = I + sum_{k=0..4} s^k P_k, with the P_k built
once per (schedule, noise, dt, n_samples) and shared by every initial
state; an arbitrary H(t) callable is called once per batch of stage times.

There is no renormalization during integration; norm/trace drift is
recorded per sample and an error is raised if it exceeds 1e-4 or is not
finite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .operators import SIGMA_MINUS, SIGMA_PLUS, Z, dagger, embed_1q
from .schedule import ProtocolSchedule

__all__ = [
    "StepTooLarge",
    "UnphysicalNoise",
    "BadIndex",
    "NoiseModel",
    "Trajectory",
    "basis_state",
    "sigma_ops",
    "collapse_operators",
    "propagate_unitary",
    "propagate_lindblad",
    "propagate_custom",
]

BASIS_LABELS = ("00", "01", "10", "11")

_DRIFT_LIMIT = 1e-4
# Most RK4 steps whose matrices are held at once; bounds peak memory.
_BATCH_STEPS = 256
_W = -2.0j * math.pi


class StepTooLarge(RuntimeError):
    """Raised when integration drift exceeds the 1e-4 safety threshold."""


class UnphysicalNoise(ValueError):
    """Raised for noise parameters outside their physical range."""


class BadIndex(ValueError):
    """Raised for a qubit index outside {1, 2} or an unknown basis label."""


def basis_state(label: str) -> np.ndarray:
    """Return the computational basis vector for a label in {00, 01, 10, 11}."""
    try:
        idx = BASIS_LABELS.index(label)
    except ValueError:
        raise BadIndex(f"unknown basis label {label!r}") from None
    psi = np.zeros(4, dtype=complex)
    psi[idx] = 1.0
    return psi


def sigma_ops(qubit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (sigma-, sigma+, sigma_z) for one qubit as 4x4 operators.

    ``qubit`` is 1-based.  sigma- lowers toward |0> (sigma-|1> = |0>),
    and [sigma+, sigma-] = sigma_z with Z = diag(-1, +1).
    """
    if qubit not in (1, 2):
        raise BadIndex(f"qubit index must be 1 or 2, got {qubit}")
    return (
        embed_1q(SIGMA_MINUS, qubit),
        embed_1q(SIGMA_PLUS, qubit),
        embed_1q(Z, qubit),
    )


def _as_pair(value) -> tuple[float, float]:
    if np.isscalar(value):
        return (float(value), float(value))
    pair = tuple(float(v) for v in value)
    if len(pair) != 2:
        raise ValueError(f"expected a scalar or a pair, got {value!r}")
    return pair


@dataclass(frozen=True)
class NoiseModel:
    """Per-qubit relaxation/dephasing parameters.

    t1, t2 : relaxation and coherence times [us]; scalars broadcast to
             both qubits; ``math.inf`` disables a channel (an infinite t2
             means no pure dephasing beyond the T1-induced part).
    n_th   : thermal occupation feeding the excitation channel (default 0).

    The pure-dephasing time follows from 1/T_phi = 1/T2 - 1/(2*T1), which
    requires T2 <= 2*T1 on each qubit whenever both are finite.
    """

    t1: tuple[float, float] = (math.inf, math.inf)
    t2: tuple[float, float] = (math.inf, math.inf)
    n_th: tuple[float, float] = (0.0, 0.0)

    def __init__(self, t1=math.inf, t2=math.inf, n_th=0.0):
        object.__setattr__(self, "t1", _as_pair(t1))
        object.__setattr__(self, "t2", _as_pair(t2))
        object.__setattr__(self, "n_th", _as_pair(n_th))
        for q in range(2):
            if not (self.t1[q] > 0 and self.t2[q] > 0):  # also rejects NaN
                raise UnphysicalNoise(
                    f"qubit {q + 1}: T1 and T2 must be positive (or inf), "
                    f"got T1={self.t1[q]}, T2={self.t2[q]}"
                )
            if math.isfinite(self.t2[q]) and self.t2[q] > 2.0 * self.t1[q]:
                raise UnphysicalNoise(
                    f"qubit {q + 1}: T2 = {self.t2[q]} us exceeds 2*T1 = "
                    f"{2.0 * self.t1[q]} us (negative pure-dephasing rate)"
                )
            if not 0 <= self.n_th[q] < math.inf:
                raise UnphysicalNoise(f"qubit {q + 1}: n_th must be finite and >= 0")

    @classmethod
    def off(cls) -> "NoiseModel":
        """Noise-free model (all channels disabled)."""
        return cls()

    @property
    def is_trivial(self) -> bool:
        """True when every channel rate is exactly zero."""
        return all(math.isinf(t) for t in self.t1 + self.t2) and all(
            n == 0.0 for n in self.n_th
        )


def collapse_operators(noise: NoiseModel) -> list[np.ndarray]:
    """Lindblad operators for the noise model, as 4x4 matrices.

    Per qubit: relaxation sqrt((1+n_th)/T1) sigma-, thermal excitation
    sqrt(n_th/T1) sigma+, pure dephasing sqrt(1/(2*T_phi)) sigma_z.
    Channels with zero rate are omitted.
    """
    ops: list[np.ndarray] = []
    for q in (1, 2):
        t1 = noise.t1[q - 1]
        t2 = noise.t2[q - 1]
        nth = noise.n_th[q - 1]
        sm, sp, sz = sigma_ops(q)
        # An infinite T1 or T2 gives a zero rate (1/inf == 0); an infinite
        # T2 adds no pure dephasing beyond the T1-induced part.
        gamma_down = (1.0 + nth) / t1
        gamma_up = nth / t1
        rate_phi = max(1.0 / t2 - 0.5 / t1, 0.0)
        if gamma_down > 0.0:
            ops.append(math.sqrt(gamma_down) * sm)
        if gamma_up > 0.0:
            ops.append(math.sqrt(gamma_up) * sp)
        if rate_phi > 0.0:
            ops.append(math.sqrt(0.5 * rate_phi) * sz)
    return ops


@dataclass
class Trajectory:
    """Sampled result of one propagation.

    times  : (n_samples+1,) sample times, 0 .. t_ad [us]
    states : (n_samples+1, 4) complex amplitudes for pure runs, or
             (n_samples+1, 4, 4) density matrices for Lindblad runs
    drifts : |norm - 1| (pure) or |trace - 1| (mixed) at each sample
    """

    times: np.ndarray
    states: np.ndarray
    drifts: np.ndarray
    schedule: ProtocolSchedule | None = field(default=None, repr=False)

    @property
    def is_mixed(self) -> bool:
        return self.states.ndim == 3

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def max_drift(self) -> float:
        return float(np.max(self.drifts))


def _sample_grid(t_ad: float, dt: float, n_samples: int) -> tuple[np.ndarray, int, float]:
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if dt > t_ad / 100.0 + 1e-15:
        raise ValueError(f"dt = {dt} us too coarse; need dt <= t_ad/100 = {t_ad / 100.0}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    times = np.linspace(0.0, t_ad, n_samples + 1)
    steps = steps_per_interval(t_ad, dt, n_samples)
    return times, steps, t_ad / n_samples / steps


def steps_per_interval(t_ad: float, dt: float, n_samples: int) -> int:
    """RK4 steps per sample interval: the fewest steps of at most ``dt``.

    Raises OverflowError when t_ad / n_samples / dt is infinite.
    """
    return max(1, math.ceil(t_ad / n_samples / dt - 1e-12))


def _dissipator_matrix(noise: NoiseModel) -> np.ndarray:
    """Constant superoperator M with D(rho).ravel() == M @ rho.ravel().

    Uses the row-major vectorization identity
    vec(A rho B) = kron(A, B.T) vec(rho).
    """
    eye = np.eye(4, dtype=complex)
    m = np.zeros((16, 16), dtype=complex)
    for lop in collapse_operators(noise):
        ld = dagger(lop)
        ldl = ld @ lop
        m += np.kron(lop, ld.T)
        m -= 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
    return m


def _liouvillian(ham: np.ndarray) -> np.ndarray:
    """16x16 generator of rho -> -2*pi*i [H, rho] for one Hamiltonian.

    Row-major vectorization: vec(H rho) = kron(H, I) vec(rho) and
    vec(rho H) = kron(I, H.T) vec(rho).
    """
    eye = np.eye(4)
    return _W * (np.kron(ham, eye) - np.kron(eye, ham.T))


def _step_matrices(gens: np.ndarray, h: float) -> np.ndarray:
    """RK4 step matrices from generators at 2m+1 half-step times.

    Updated in place, so that few batch-sized arrays are alive at once.
    """
    a1, a2, a3 = gens[:-2:2], gens[1::2], gens[2::2]
    k2 = a2 @ a1
    k2 *= 0.5 * h
    k2 += a2  # K2 = A2 + (h/2) A2 K1
    k3 = a2 @ k2
    k3 *= 0.5 * h
    k3 += a2  # K3 = A2 + (h/2) A2 K2
    k4 = a3 @ k3
    k4 *= h
    k4 += a3  # K4 = A3 + h A3 K3
    # R = I + h/6 (K1 + 2 K2 + 2 K3 + K4)
    k2 += k3
    k2 *= 2.0
    k2 += a1
    k2 += k4
    k2 *= h / 6.0
    k2 += np.eye(gens.shape[-1])
    return k2


def _step_polynomial(g0: np.ndarray, g1: np.ndarray, h: float,
                     delta: float) -> np.ndarray:
    """Coefficients P, shape (5, d, d), of the RK4 step R(s) = I + sum_k s^k P_k.

    The generator is A(s) = g0 + s*g1, and a step of size h from s takes its
    stages at s, s + delta/2 and s + delta.  Each K_i is carried as the
    stack of its coefficients in s; a stage raises the degree by one.  The
    products stay d x d, which BLAS runs on one thread.
    """

    def stage(b: np.ndarray, k: np.ndarray, c: float) -> np.ndarray:
        # (b + s*g1) + c * (b + s*g1) @ k(s)
        out = np.zeros((len(k) + 1,) + g0.shape, dtype=complex)
        out[:-1] = b @ k
        out[1:] += g1 @ k
        out *= c
        out[0] += b
        out[1] += g1
        return out

    b_mid = g0 + (0.5 * delta) * g1
    k1 = np.stack([g0, g1])
    k2 = stage(b_mid, k1, 0.5 * h)
    k3 = stage(b_mid, k2, 0.5 * h)
    poly = stage(g0 + delta * g1, k3, h)  # K4
    poly[:4] += 2.0 * k3
    poly[:3] += 2.0 * k2
    poly[:2] += k1
    poly *= h / 6.0
    return poly


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """mats[-1] @ ... @ mats[1] @ mats[0], by pairwise reduction."""
    while len(mats) > 1:
        even = len(mats) - len(mats) % 2
        pairs = mats[1:even:2] @ mats[0:even:2]
        mats = np.concatenate([pairs, mats[even:]]) if even < len(mats) else pairs
    return mats[0]


def _interval_maps(step_matrices, dim: int, times: np.ndarray, steps: int,
                   h: float) -> np.ndarray:
    """The RK4 propagator of each sample interval of ``times``.

    ``step_matrices(stage_times)`` returns the m dim x dim step matrices of
    a batch from its 2m+1 half-step times.
    """
    maps = np.empty((len(times) - 1, dim, dim), dtype=complex)
    for k, t0 in enumerate(times[:-1]):
        for first in range(0, steps, _BATCH_STEPS):
            m = min(_BATCH_STEPS, steps - first)
            stage_times = t0 + (2 * first + np.arange(2 * m + 1)) * (0.5 * h)
            batch = _ordered_product(step_matrices(stage_times))
            maps[k] = batch if first == 0 else batch @ maps[k]
    return maps


@functools.lru_cache(maxsize=1)
def _schedule_maps(schedule: ProtocolSchedule, noise: NoiseModel | None,
                   dt: float, n_samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Interval maps of a sweep schedule, shared across initial states.

    ``noise`` None selects the Schrodinger generator, otherwise the
    Liouvillian.  The returned arrays are read-only.
    """
    # A miss: drop the previous entry now rather than after this one is
    # built, so that only one set of maps is alive at a time.
    _schedule_maps.cache_clear()
    times, steps, h = _sample_grid(schedule.t_ad, dt, n_samples)
    # An unstable step size, or a non-finite schedule field, can overflow
    # here; the drift check at the first bad sample reports it as
    # StepTooLarge.
    with np.errstate(over="ignore", invalid="ignore"):
        if noise is None:
            g0, g1 = _W * schedule.h0, _W * schedule.h1
        else:
            g0 = _liouvillian(schedule.h0) + _dissipator_matrix(noise)
            g1 = _liouvillian(schedule.h1)
        # Real powers times the real and imaginary parts: the same sums as
        # a complex product, at half its cost.
        poly = _step_polynomial(g0, g1, h, h / schedule.t_ad).reshape(5, -1).view(float)
        eye = np.eye(len(g0))

        def step_matrices(stage_times: np.ndarray) -> np.ndarray:
            s = stage_times[:-2:2] / schedule.t_ad
            sums = (np.vander(s, 5, increasing=True) @ poly).view(complex)
            # I is added after the sum, not folded into P_0, so that the
            # rounding of one shared P_0 + I does not repeat in every step.
            return eye + sums.reshape((len(s),) + eye.shape)

        maps = _interval_maps(step_matrices, len(g0), times, steps, h)
    times.flags.writeable = False
    maps.flags.writeable = False
    return times, maps


def _evolve(times: np.ndarray, maps: np.ndarray, x0: np.ndarray, drift_of,
            what: str) -> tuple[np.ndarray, np.ndarray]:
    """Apply the interval maps in turn, checking drift at every sample."""
    states = np.empty((len(times), len(x0)), dtype=complex)
    drifts = np.empty(len(times))
    states[0] = x0
    drifts[0] = drift_of(x0)
    # A diverging state may overflow; the drift check reports it as StepTooLarge.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, len(times)):
            states[k] = maps[k - 1] @ states[k - 1]
            drift = drift_of(states[k])
            # Written so that a NaN drift fails the check too.
            if not drift <= _DRIFT_LIMIT:
                raise StepTooLarge(
                    f"{what} drift {drift:.3e} exceeds {_DRIFT_LIMIT:.0e} at "
                    f"t = {times[k]:.4f} us; reduce dt"
                )
            drifts[k] = drift
    return states, drifts


def _norm_drift(psi: np.ndarray) -> float:
    return abs(float(np.linalg.norm(psi)) - 1.0)


def _trace_drift(rho_vec: np.ndarray) -> float:
    return abs(float(rho_vec[::5].sum().real) - 1.0)


def _pure_initial(psi0: np.ndarray) -> np.ndarray:
    psi0 = np.asarray(psi0, dtype=complex).reshape(4)
    if not _norm_drift(psi0) <= 1e-6:
        norm0 = float(np.linalg.norm(psi0))
        raise ValueError(f"initial state norm {norm0} differs from 1 by > 1e-6")
    return psi0


def propagate_unitary(schedule: ProtocolSchedule, psi0: np.ndarray,
                      dt: float = 0.002, n_samples: int = 300) -> Trajectory:
    """Integrate the Schrodinger equation for a sweep protocol.

    ``psi0`` must be normalized.  The trajectory is sampled on a uniform
    grid of ``n_samples + 1`` points from 0 to t_ad; between samples the
    integrator takes uniform RK4 steps of size <= dt.
    """
    psi0 = _pure_initial(psi0)
    times, maps = _schedule_maps(schedule, None, dt, n_samples)
    states, drifts = _evolve(times, maps, psi0, _norm_drift, "norm")
    return Trajectory(times=times.copy(), states=states, drifts=drifts,
                      schedule=schedule)


def propagate_custom(ham, t_ad: float, psi0: np.ndarray,
                     dt: float = 0.002, n_samples: int = 300) -> Trajectory:
    """Integrate the Schrodinger equation for an arbitrary H(t) callable.

    ``ham(times)`` gets each batch's n stage times in [0, t_ad] as a 1-D array and
    returns an (n, 4, 4) stack of Hermitian matrices [MHz], or one 4x4 for all.
    """
    psi0 = _pure_initial(psi0)
    times, steps, h = _sample_grid(t_ad, dt, n_samples)

    def step_matrices(stage_times: np.ndarray) -> np.ndarray:
        return _step_matrices(_W * np.broadcast_to(ham(stage_times), (len(stage_times), 4, 4)), h)

    with np.errstate(over="ignore", invalid="ignore"):  # as in _schedule_maps
        maps = _interval_maps(step_matrices, 4, times, steps, h)
    states, drifts = _evolve(times, maps, psi0, _norm_drift, "norm")
    return Trajectory(times=times, states=states, drifts=drifts, schedule=None)


def propagate_lindblad(schedule: ProtocolSchedule, rho0: np.ndarray,
                       noise: NoiseModel, dt: float = 0.002,
                       n_samples: int = 300) -> Trajectory:
    """Integrate the Lindblad master equation for a sweep protocol.

    ``rho0`` may be given as a density matrix or as a pure-state vector
    (converted to its projector).  With a trivial noise model this reduces
    to the unitary evolution of propagate_unitary.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.ndim == 1:
        rho0 = np.outer(rho0, rho0.conj())
    if rho0.shape != (4, 4):
        raise ValueError(f"rho0 must be a 4x4 matrix, got shape {rho0.shape}")
    if not _trace_drift(rho0.ravel()) <= 1e-6:
        raise ValueError("initial density matrix trace differs from 1 by > 1e-6")
    if not np.max(np.abs(rho0 - rho0.conj().T)) <= 1e-8:
        raise ValueError("initial density matrix is not Hermitian")

    times, maps = _schedule_maps(schedule, noise, dt, n_samples)
    states, drifts = _evolve(times, maps, rho0.ravel(), _trace_drift, "trace")
    return Trajectory(times=times.copy(), states=states.reshape(-1, 4, 4),
                      drifts=drifts, schedule=schedule)

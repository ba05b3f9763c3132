"""Propagation of pure states (Schrodinger) and of mixed states (Lindblad).

Fixed-step RK4 with the Hamiltonian evaluated at the substage times
(t, t + dt/2, t + dt).  Hamiltonians are stored as H/h in MHz and times in
microseconds, so the equations of motion carry an explicit 2*pi:

    d|psi>/dt = -i * 2*pi * H(t) |psi>
    d rho/dt  = -i * 2*pi * [H(t), rho] + sum_k ( L_k rho L_k+
                                                  - {L_k+ L_k, rho} / 2 )

Decay rates are genuine inverse times (no 2*pi): a qubit with relaxation
time T1 loses excited-state population as exp(-t/T1).

Both equations are linear, d x/dt = A(t) x.  A pure state psi = u + i*v is
the real 8-vector x = [u; v], and -2*pi*i*H acts on it as the real 8x8

    A = 2*pi * [[Im H, Re H], [-Re H, Im H]],

so that every product below is a real one; the propagators return the
complex psi.  A mixed state is its real Pauli vector r over
``operators.PAULI_BASIS``, rho = sum_k r_k sigma_k / 4, so r_k = <sigma_k>
and r_II = Tr rho; a Lindblad run returns r at every sample.  A is the real
16x16 Pauli transfer matrix T_qr = Tr(sigma_q L(sigma_r)) / 4 of the
Lindblad generator L.  One RK4 step is therefore a fixed matrix built from
the generators at the step's start (A1), midpoint (A2) and end (A3):

    R = I + h/6 * (K1 + 2*K2 + 2*K3 + K4),
    K1 = A1,  K2 = A2 + (h/2) A2 K1,  K3 = A2 + (h/2) A2 K2,  K4 = A3 + h A3 K3.

Each sample interval is propagated by the product of its step matrices,
multiplied in time order by pairwise reduction.  Every interval has the same
number of steps, so whole intervals are built together in groups whose
batch of d x d step matrices takes at most ``_BATCH_BYTES``: b =
_BATCH_BYTES // (8 d^2) steps, 1 024 of the 8x8 pure-state matrices or 256
of the 16x16 Lindblad ones.  An interval of more than b steps is a group of
one, built from several batches.  The propagators take one state or a
(k, 4) stack, and a group's maps are applied to every state of the stack as
soon as they are built, then overwritten by the next group's: the working
memory is allocated once per call and holds the step stack of one batch,
(g, m, d, d) with g*m <= b or g = 1, a scratch stack of half its steps,
between which the levels of the reduction alternate, and one group's
maps.  It stays bounded however many steps an
interval or samples a run holds.  A sweep of duration t_ad is affine in
s = t/t_ad, so its generator is A(s) = G0 + s*G1 and
R(s) = I + sum_{k=0..4} s^k P_k, with the P_k built once per call by the
same step formula on coefficient stacks in s.

There is no renormalization during integration; norm/trace drift is
recorded per sample, and once a trajectory is built an error is raised at
the first sample whose drift exceeds 1e-4 or is not finite, or whose state
holds a non-finite entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import PAULI_BASIS as _PAULIS, SIGMA_MINUS, SIGMA_PLUS, Z, dagger, embed_1q
from .schedule import ProtocolSchedule

__all__ = [
    "StepTooLarge",
    "UnphysicalNoise",
    "BadIndex",
    "NoiseModel",
    "Trajectory",
    "basis_state",
    "collapse_operators",
    "propagate_unitary",
    "propagate_lindblad",
]

BASIS_LABELS = ("00", "01", "10", "11")

DRIFT_LIMIT = 1e-4
# Most bytes of RK4 step matrices held at once; bounds peak memory.
_BATCH_BYTES = 2**19
_W = -2.0j * math.pi


class StepTooLarge(RuntimeError):
    """Raised when integration drift exceeds the 1e-4 safety threshold."""


class UnphysicalNoise(ValueError):
    """Raised for noise parameters outside their physical range."""


class BadIndex(ValueError):
    """Raised for an unknown basis label."""


def basis_state(label: str) -> np.ndarray:
    """Return the computational basis vector for a label in {00, 01, 10, 11}."""
    try:
        idx = BASIS_LABELS.index(label)
    except ValueError:
        raise BadIndex(f"unknown basis label {label!r}") from None
    psi = np.zeros(4, dtype=complex)
    psi[idx] = 1.0
    return psi


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
            if broken := noise_violations(self.t1[q], self.t2[q], self.n_th[q]):
                raise UnphysicalNoise(f"qubit {q + 1}: {'; '.join(broken.values())}")


def noise_violations(t1: float, t2: float, n_th: float) -> dict[str, str]:
    """Why one qubit's T1, T2 [us] and n_th are unphysical, keyed "t1/t2" or "n_th"."""
    broken = {}
    if not (t1 > 0 and t2 > 0):  # also rejects NaN
        broken["t1/t2"] = f"T1 and T2 must be positive (or inf), got T1={t1}, T2={t2}"
    elif math.isfinite(t2) and t2 > 2.0 * t1:
        broken["t1/t2"] = (f"T2 = {t2} us exceeds 2*T1 = {2.0 * t1} us "
                           "(negative pure-dephasing rate)")
    if not 0 <= n_th < math.inf:
        broken["n_th"] = f"n_th must be finite and >= 0, got {n_th}"
    return broken


def collapse_operators(noise: NoiseModel) -> list[np.ndarray]:
    """Lindblad operators for the noise model, as 4x4 matrices.

    Per qubit: relaxation sqrt((1+n_th)/T1) sigma-, thermal excitation
    sqrt(n_th/T1) sigma+, pure dephasing sqrt(1/(2*T_phi)) sigma_z, with
    sigma- lowering toward |0> and sigma_z = Z = diag(-1, +1).  Channels
    with zero rate are omitted.
    """
    ops: list[np.ndarray] = []
    for q in (1, 2):
        t1 = noise.t1[q - 1]
        t2 = noise.t2[q - 1]
        nth = noise.n_th[q - 1]
        # An infinite T1 or T2 gives a zero rate (1/inf == 0); an infinite
        # T2 adds no pure dephasing beyond the T1-induced part.
        gamma_down = (1.0 + nth) / t1
        gamma_up = nth / t1
        rate_phi = max(1.0 / t2 - 0.5 / t1, 0.0)
        if gamma_down > 0.0:
            ops.append(math.sqrt(gamma_down) * embed_1q(SIGMA_MINUS, q))
        if gamma_up > 0.0:
            ops.append(math.sqrt(gamma_up) * embed_1q(SIGMA_PLUS, q))
        if rate_phi > 0.0:
            ops.append(math.sqrt(0.5 * rate_phi) * embed_1q(Z, q))
    return ops


@dataclass
class Trajectory:
    """Sampled result of one propagation.

    times  : (n_samples+1,) sample times, 0 .. t_ad [us]
    states : (n_samples+1, 4) complex amplitudes for pure runs, or
             (n_samples+1, 16) real Pauli vectors r for Lindblad runs; a
             (k, 4) stack of initial states gives (n_samples+1, k, 4|16)
    drifts : |norm - 1| (pure) or |r_II - 1| (Lindblad) at each sample,
             (n_samples+1,) or (n_samples+1, k)
    """

    times: np.ndarray
    states: np.ndarray
    drifts: np.ndarray

    @property
    def max_drift(self) -> float:
        return float(np.max(self.drifts))


def _sample_grid(t_ad: float, dt: float, n_samples: int) -> tuple[np.ndarray, int, float]:
    if not (math.isfinite(t_ad) and t_ad > 0.0):
        raise ValueError(f"t_ad must be positive and finite, got {t_ad}")
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


def _pauli_generator(ham: np.ndarray, lops=()) -> np.ndarray:
    """Real 16x16 T with T_qr = Tr(sigma_q L(sigma_r)) / 4 over ``_PAULIS``.

    L(rho) = -2*pi*i [H, rho] + sum_L (L rho L+ - {L+ L, rho} / 2) maps a
    Hermitian rho to a Hermitian one, so every T_qr is real.
    """
    images = _W * (ham @ _PAULIS - _PAULIS @ ham)
    for lop in lops:
        ldl = dagger(lop) @ lop
        images += lop @ _PAULIS @ dagger(lop) - 0.5 * (ldl @ _PAULIS + _PAULIS @ ldl)
    return np.einsum("qij,rji->qr", _PAULIS, images).real / 4.0


def _schrodinger_generator(ham: np.ndarray) -> np.ndarray:
    """-2*pi*i*H as the real (..., 8, 8) map of [Re psi; Im psi], for a (..., 4, 4) H."""
    gen = np.empty(ham.shape[:-2] + (8, 8))
    gen[..., :4, :4] = gen[..., 4:, 4:] = ham.imag
    gen[..., :4, 4:] = ham.real
    gen[..., 4:, :4] = -ham.real
    gen *= 2.0 * math.pi
    return gen


def _rk4_step(a1: np.ndarray, a2: np.ndarray, a3: np.ndarray, h: float, mul) -> np.ndarray:
    """R - I of the RK4 step in the module docstring, as h/6 (K4 + 2 K3 + 2 K2 + K1).

    ``mul`` is the product of the stage generators ``a1..a3``: ``np.matmul``
    for stacks of matrices, ``_poly_matmul`` for coefficient stacks in s.
    Updated in place, so that few batch-sized arrays are alive at once.
    """
    k2 = mul(a2, a1)
    k2 *= 0.5 * h
    k2 += a2
    k3 = mul(a2, k2)
    k3 *= 0.5 * h
    k3 += a2
    k4 = mul(a3, k3)
    k4 *= h
    k4 += a3
    k3 *= 2.0
    k4 += k3
    k2 *= 2.0
    k4 += k2
    k4 += a1
    k4 *= h / 6.0
    return k4


def _poly_matmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Product of two polynomials in s given as (5, d, d) coefficient stacks.

    Terms past s^4 are dropped: the RK4 step of an affine generator has none.
    """
    out = p[0] @ q
    for i in range(1, len(p)):
        out[i:] += p[i] @ q[:-i]
    return out


def _ordered_product(mats: np.ndarray, scratch: np.ndarray, out: np.ndarray) -> None:
    """Write the time-ordered product of ``mats`` along axis 1 into ``out``.

    For a stack of shape (g, m, d, d) this is mats[:, m-1] @ ... @ mats[:, 0],
    by pairwise reduction, paired the same way for every leading index.  Each
    level goes back and forth between ``mats``, which it overwrites, and
    ``scratch``, of shape (g, >= ceil(m/2), d, d); the last goes into ``out``.
    """
    src, dst = mats, scratch
    n = mats.shape[1]
    while n > 2:
        half, odd = divmod(n, 2)
        np.matmul(src[:, 1:n - odd:2], src[:, 0:n - odd:2], out=dst[:, :half])
        if odd:
            dst[:, half] = src[:, n - 1]
        src, dst, n = dst, src, half + odd
    if n == 2:
        np.matmul(src[:, 1], src[:, 0], out=out)
    else:
        out[...] = src[:, 0]


def _propagate(step_matrices, times: np.ndarray, steps: int, h: float, x0: np.ndarray,
               drift_of, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Carry the (d,) state or (k, d) states ``x0`` over ``times``.

    Returns the (n+1,) + x0.shape states and their drifts.  The interval maps
    are built in groups of max(1, b // steps) intervals, for batches of at
    most b = _BATCH_BYTES // (8 d^2) step matrices.
    ``step_matrices(stage_times, out)`` gets a batch's (g, 2m+1) half-step
    times, one row per interval of the group, and writes its step matrices
    into ``out``, a C-contiguous (g, m, d, d) view of the step stack.  A
    group's maps are applied to every state as soon as they are built and
    then overwritten by the next group's; the step stack, the scratch stack
    of the reduction and one group's maps, allocated once, are all the
    working memory.
    """
    starts = times[:-1]
    d = x0.shape[-1]
    batch = max(1, _BATCH_BYTES // (8 * d * d))
    group = max(1, batch // steps)
    size = min(group, len(starts))
    m_max = min(batch, steps)
    # The stack holds one batch: size * m_max <= batch, or size = 1.
    # A group of several intervals takes one batch of m_max steps, so every
    # stack[:g, :m] below is contiguous, as step_matrices needs.
    stack = np.empty((size, m_max, d, d))
    scratch = np.empty((size, (m_max + 1) // 2, d, d))
    maps = np.empty((size, d, d))
    product = np.empty((1, d, d))  # a later batch of a one-interval group
    states = np.empty((len(times),) + x0.shape)
    states[0] = x0
    columns = states[..., None]  # each state a (d, 1) column: one gemv per state
    # An unstable step size, a non-finite H or a diverging state may
    # overflow; the drift check at the first bad sample reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(0, len(starts), group):
            t0 = starts[k:k + group, None]
            g = len(t0)
            for first in range(0, steps, batch):
                m = min(batch, steps - first)
                stage_times = t0 + (2 * first + np.arange(2 * m + 1)) * (0.5 * h)
                step_matrices(stage_times, stack[:g, :m])
                if first == 0:
                    _ordered_product(stack[:g, :m], scratch[:g], maps[:g])
                else:
                    _ordered_product(stack[:g, :m], scratch[:g], product)
                    np.matmul(product, maps[:g], out=maps[:g])
            for i in range(g):
                np.matmul(maps[i], columns[k + i], out=columns[k + i + 1])
        drifts = drift_of(states)
    # A state with a non-finite entry has no drift, whatever drift_of reads
    # (r_II stays 1 while the rest of a Pauli vector overflows).
    drifts[~np.isfinite(states).all(axis=-1)] = np.nan
    # Written so that a NaN drift fails the check too.
    bad = np.flatnonzero(~(drifts <= DRIFT_LIMIT))
    if bad.size:
        raise StepTooLarge(
            f"{what} drift {drifts.flat[bad[0]]:.3e} exceeds {DRIFT_LIMIT:.0e} at "
            f"t = {times[np.unravel_index(bad[0], drifts.shape)[0]]:.4f} us; reduce dt"
        )
    return states, drifts


def _sweep(schedule: ProtocolSchedule, t_ad: float, noise: NoiseModel | None, dt: float,
           n_samples: int, x0: np.ndarray) -> tuple[np.ndarray, ...]:
    """Times, states and drifts of ``_propagate`` over a sweep of duration ``t_ad``.

    ``noise`` None selects the real 8x8 Schrodinger generator and the norm
    drift, otherwise the real Pauli transfer matrix of the Lindblad
    generator and the trace drift.
    """
    times, steps, h = _sample_grid(t_ad, dt, n_samples)
    # A non-finite schedule field can overflow here; _propagate reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        if noise is None:
            g0, g1 = _schrodinger_generator(schedule.h0), _schrodinger_generator(schedule.h1)
            drift_of, what = _norm_drift, "norm"
        else:
            g0 = _pauli_generator(schedule.h0, collapse_operators(noise))
            g1 = _pauli_generator(schedule.h1)
            drift_of, what = _trace_drift, "trace"
        # The stage generators g0 + s*g1 as coefficient stacks in s, up to s^4.
        stages = np.zeros((3, 5) + g0.shape)
        stages[:, 0] = g0, g0 + (0.5 * h / t_ad) * g1, g0 + (h / t_ad) * g1
        stages[:, 1] = g1
        poly = _rk4_step(*stages, h, mul=_poly_matmul).reshape(5, -1)
    d = len(g0)

    def step_matrices(stage_times: np.ndarray, out: np.ndarray) -> None:
        s = stage_times[:, :-2:2] / t_ad
        flat = out.reshape(s.size, -1)
        np.matmul(np.vander(s.ravel(), 5, increasing=True), poly, out=flat)
        # I is added after the sum, not folded into P_0, so that the
        # rounding of one shared P_0 + I does not repeat in every step;
        # only the diagonal, every (d+1)-th entry of a flattened matrix.
        flat[:, ::d + 1] += 1.0

    return (times,) + _propagate(step_matrices, times, steps, h, x0, drift_of, what)


def _norm_drift(psi: np.ndarray) -> np.ndarray:
    return np.abs(np.linalg.norm(psi, axis=-1) - 1.0)


def _trace_drift(r: np.ndarray) -> np.ndarray:
    return np.abs(r[..., 0] - 1.0)


def _pure_initial(psi0: np.ndarray) -> np.ndarray:
    """A normalized (4,) state or (k, 4) stack of them, as complex."""
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.ndim not in (1, 2) or psi0.shape[-1] != 4 or not psi0.size:
        raise ValueError(f"initial state must have shape (4,), got {psi0.shape}; "
                         "a stack of states has shape (k, 4)")
    norms = np.linalg.norm(psi0, axis=-1, keepdims=True)
    bad = ~(np.abs(norms - 1.0) <= 1e-6)
    if bad.any():
        raise ValueError(f"initial state norm {norms[bad][0]} differs from 1 by > 1e-6")
    return psi0


def propagate_unitary(schedule: ProtocolSchedule, t_ad: float, psi0: np.ndarray,
                      dt: float = 0.002, n_samples: int = 300) -> Trajectory:
    """Integrate the Schrodinger equation for a sweep of duration ``t_ad`` [us].

    ``psi0`` is a normalized 4-vector, or a (k, 4) stack of them propagated
    together.  The trajectory is sampled on a uniform grid of
    ``n_samples + 1`` points from 0 to t_ad; between samples the integrator
    takes uniform RK4 steps of size <= dt.
    """
    psi0 = _pure_initial(psi0)
    times, x, drifts = _sweep(schedule, t_ad, None, dt, n_samples,
                              np.concatenate([psi0.real, psi0.imag], axis=-1))
    return Trajectory(times=times, states=x[..., :4] + 1j * x[..., 4:], drifts=drifts)


def propagate_lindblad(schedule: ProtocolSchedule, t_ad: float, psi0: np.ndarray,
                       noise: NoiseModel, dt: float = 0.002,
                       n_samples: int = 300) -> Trajectory:
    """Integrate the Lindblad master equation for a sweep of duration ``t_ad`` [us].

    ``psi0`` is as for propagate_unitary; the states of the trajectory are
    the real Pauli vectors r, r_k = <P_k>, of each.  With a trivial noise
    model this reduces to the unitary evolution of propagate_unitary.
    """
    psi0 = _pure_initial(psi0)
    r0 = np.einsum("...i,kij,...j->...k", psi0.conj(), _PAULIS, psi0).real
    times, states, drifts = _sweep(schedule, t_ad, noise, dt, n_samples, r0)
    return Trajectory(times=times, states=states, drifts=drifts)

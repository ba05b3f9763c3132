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
Lindblad generator L.  One RK4 step is a fixed matrix built from h times the
generators at its start, midpoint and end, Z1 = h A1, Z2 = h A2, Z3 = h A3,
so that it sees energies and times only as their products:

    R = I + (K1 + 2*K2 + 2*K3 + K4) / 6,
    K1 = Z1,  K2 = Z2 + Z2 K1 / 2,  K3 = Z2 + Z2 K2 / 2,  K4 = Z3 + Z3 K3.

A sweep of duration t_ad is affine in s = t/t_ad, so its generator is
A(s) = G0 + s*G1, where G0, G1 and ||G1||_2 depend on the schedule and the
noise model but not on t_ad: a run propagates one schedule for each of its
durations, and the pair of the last schedule and noise model propagated is
kept, so that it is built once per run.  A step from s is
R(s) = I + sum_{k=0..4} s^k P_k, and c consecutive steps multiply to

    B_c(s) = R(s + (c-1) delta) ... R(s + delta) R(s),   delta = h / t_ad,

I plus a polynomial of degree 4c in s (the stability-polynomial algebra of
Hairer, Lubich & Wanner, ch. IV).  Its coefficients are built once per call,
by the same step formula on coefficient stacks in s, for every c up to the
block width w.  A block of c steps then costs one row of a
(rows, 4c+1) @ (4c+1, d^2) product, and no d x d product of its steps.

Each sample interval of m steps is the product of nb = ceil(m / w) block
matrices, multiplied in time order by pairwise reduction: a lead block of
m - w*(nb - 1) steps, then nb - 1 blocks of w, so an interval of m <= w
steps is one block.  The expansion in s loses digits as h*||G1|| grows: a
block of 4 is 2.2e-12 (relative) off the product of its steps at
h ||G1||_2 = 3.3, against 6e-16 at the presets.  So w is the largest of 4,
3, 2 and 1 with w * h * ||G1||_2 <= 1; every preset has 4 h ||G1||_2 <= 0.52.

Every interval has the same number of blocks, so whole intervals are built
together, in groups of max(1, b // nb) for batches of at most b blocks.  b is
the most blocks for which each build product has fewer than
``_BUILD_MULADDS`` = 2^19 multiply-adds, which OpenBLAS runs on one thread:
481 of the 8x8 pure-state blocks or 120 of the 16x16 Lindblad ones at w = 4.
A group's leads are built into its maps, and each batch, the maps so far and
up to b - 1 full blocks, is reduced into them: an interval of more than b
blocks is a group of one over several batches.  The propagators take one
state or a (k, 4) stack, and a group's maps are applied to every state as
soon as they are built, then overwritten by the next group's: the working
memory is allocated once per call and holds the block stack of one batch,
(b', g, d, d) block-major with b'*g <= b or g = 1, a scratch stack of half
its blocks, between which the levels of the reduction alternate, and one
group's maps.  It stays bounded however many steps a run holds.

There is no renormalization during integration; norm/trace drift is
recorded per sample, and once a trajectory is built an error is raised at
the first sample whose drift exceeds 1e-4 or is not finite, or whose state
holds a non-finite entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import CHANNEL_OPERATORS, PAULI_BASIS as _PAULIS, pauli_vector
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
# Most RK4 steps in one block matrix.
_BLOCK_STEPS = 4
# Bound on the multiply-adds of each product that builds block matrices:
# OpenBLAS runs such a product on one thread.  It also bounds the stack.
_BUILD_MULADDS = 2**19
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
    for q, channels in enumerate(CHANNEL_OPERATORS):
        t1, t2, nth = noise.t1[q], noise.t2[q], noise.n_th[q]
        # An infinite T1 or T2 gives a zero rate (1/inf == 0); an infinite
        # T2 adds no pure dephasing beyond the T1-induced part.
        rates = ((1.0 + nth) / t1, nth / t1, 0.5 * max(1.0 / t2 - 0.5 / t1, 0.0))
        ops.extend(math.sqrt(rate) * op for rate, op in zip(rates, channels) if rate > 0.0)
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
    if dt > t_ad / 100.0 * (1.0 + 1e-12):  # relative: the same in any unit
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
    if len(lops):
        lops = np.asarray(lops)[:, None]
        adjoints = lops.conj().swapaxes(-1, -2)
        ldl = adjoints @ lops
        # One operator's term at a time, in order, as a sum over a loop would.
        for term in lops @ _PAULIS @ adjoints - 0.5 * (ldl @ _PAULIS + _PAULIS @ ldl):
            images += term
    return np.einsum("qij,rji->qr", _PAULIS, images).real / 4.0


def _schrodinger_generator(ham: np.ndarray) -> np.ndarray:
    """-2*pi*i*H as the real (..., 8, 8) map of [Re psi; Im psi], for a (..., 4, 4) H."""
    gen = np.empty(ham.shape[:-2] + (8, 8))
    gen[..., :4, :4] = gen[..., 4:, 4:] = ham.imag
    gen[..., :4, 4:] = ham.real
    gen[..., 4:, :4] = -ham.real
    gen *= 2.0 * math.pi
    return gen


def _rk4_step(z1: np.ndarray, z2: np.ndarray, z3: np.ndarray, mul) -> np.ndarray:
    """R - I of the RK4 step in the module docstring, as (K4 + 2 K3 + 2 K2 + K1) / 6.

    ``mul`` is the product of the stage generators ``z1..z3`` = h*A1 .. h*A3:
    ``np.matmul`` for stacks of matrices, ``_poly_matmul`` for coefficient
    stacks in s.  Updated in place, so that few batch-sized arrays are alive.
    """
    k2 = mul(z2, z1)
    k2 *= 0.5
    k2 += z2
    k3 = mul(z2, k2)
    k3 *= 0.5
    k3 += z2
    k4 = mul(z3, k3)
    k4 += z3
    k3 *= 2.0
    k4 += k3
    k2 *= 2.0
    k4 += k2
    k4 += z1
    k4 /= 6.0
    return k4


def _poly_matmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Product of two polynomials in s given as (n, d, d) coefficient stacks.

    Terms past s^(len(q)-1) are dropped: the RK4 step of an affine generator
    has none past s^4, and a block pads its factor to the product's degree.
    """
    out = p[0] @ q
    for i in range(1, len(p)):
        out[i:] += p[i] @ q[:-i]
    return out


def _block_polynomials(z0: np.ndarray, z1: np.ndarray, delta: float,
                       width: int) -> list[np.ndarray]:
    """B_c(s) - I for c = 1..width, each a (4c+1, d*d) coefficient stack in s.

    B_c(s) = R(s + (c-1) delta) ... R(s) is the product of c RK4 steps of
    size h, the first from s, for h*A(s) = z0 + s*z1 and delta = h/t_ad.
    The j-th factor is ``_rk4_step`` on the stages shifted by j*delta*z1,
    all ``width`` of them in one call, and (I + Y)(I + X) - I = Y + X + Y X
    keeps I out of every sum.
    """
    j = np.arange(width)[:, None, None]
    stages = np.zeros((3, 5, width) + z0.shape)
    stages[:, 0] = z0 + (j * delta) * z1, z0 + ((j + 0.5) * delta) * z1, z0 + ((j + 1) * delta) * z1
    stages[:, 1] = z1
    steps = _rk4_step(*stages, mul=_poly_matmul)
    block = steps[:, 0]
    polys = [block.reshape(5, -1)]
    for step in steps.swapaxes(0, 1)[1:]:
        # X, the block so far, padded with zeros to the degree of Y X.
        x = np.zeros((len(block) + 4,) + z0.shape)
        x[:len(block)] = block
        block = _poly_matmul(step, x)
        block += x
        block[:5] += step
        polys.append(block.reshape(len(block), -1))
    return polys


def _ordered_product(mats: np.ndarray, scratch: np.ndarray, out: np.ndarray) -> None:
    """Write the time-ordered product of ``mats`` along axis 0 into ``out``.

    For a stack of shape (n >= 2, g, d, d) this is mats[n-1] @ ... @ mats[0],
    by pairwise reduction, paired the same way for every index of axis 1.
    Each level goes back and forth between ``mats``, which it overwrites, and
    ``scratch``, of shape (>= ceil(n/2), g, d, d); the last goes into ``out``.
    """
    src, dst = mats, scratch
    n = len(mats)
    while n > 2:
        half, odd = divmod(n, 2)
        np.matmul(src[1:n - odd:2], src[0:n - odd:2], out=dst[:half])
        if odd:
            dst[half] = src[n - 1]
        src, dst, n = dst, src, half + odd
    np.matmul(src[1], src[0], out=out)


def _propagate(block_matrices, width: int, times: np.ndarray, steps: int, h: float,
               x0: np.ndarray, drift_of, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Carry the (d,) state or (k, d) states ``x0`` over ``times``.

    Returns the (n+1,) + x0.shape states and their drifts.  Each interval of
    ``steps`` RK4 steps is the product of its blocks of up to ``width``
    steps, as in the module docstring.  ``block_matrices(starts, c, out)``
    gets the (r, M) start times of blocks of c steps and writes their
    matrices into ``out``, a C-contiguous (r, M, d, d) view of the maps or the
    block stack, by r products of (M, 4c+1) @ (4c+1, d^2).  A group's maps
    are applied to every state as soon as they are built and then overwritten
    by the next group's; the block stack, the scratch stack of the reduction
    and one group's maps, allocated once, are all the working memory.
    Overflow is left to ``_sweep``'s error state: the drift check reports it.
    """
    starts = times[:-1]
    d = x0.shape[-1]
    blocks = -(-steps // width)
    lead = steps - width * (blocks - 1)
    # Steps from an interval's start to each of its full blocks'.
    offsets = lead + width * np.arange(blocks - 1)
    # Blocks per batch, the map so far among them: the most for which a
    # (batch, 4*width + 1) @ (4*width + 1, d^2) build has fewer than
    # _BUILD_MULADDS multiply-adds, and at least the map and one block.
    batch = max(2, (_BUILD_MULADDS - 1) // ((4 * width + 1) * d * d))
    group = max(1, batch // blocks)
    size, depth = min(group, len(starts)), min(batch, blocks)
    # A batch of b blocks for g intervals is the first b*g matrices of the
    # stack, block-major, (b, g, d, d), so that it is contiguous for any g.
    stack = np.empty(depth * size * d * d)
    scratch = np.empty((depth + 1) // 2 * size * d * d)
    maps = np.empty((size, d, d))
    states = np.empty((len(times),) + x0.shape)
    states[0] = x0
    columns = states[..., None]  # each state a (d, 1) column: one gemv per state
    for k in range(0, len(starts), group):
        t0 = starts[k:k + group]
        g = len(t0)
        carried = maps[:g]
        # One one-row product per lead: BLAS takes another path for one row
        # than for several, and this way a lead's rounding does not depend
        # on how many share the batch.
        block_matrices(t0[:, None], lead, carried.reshape(g, 1, d, d))
        for first in range(0, blocks - 1, batch - 1):
            full = offsets[first:first + batch - 1]
            b = len(full) + 1
            mats = stack[:b * g * d * d].reshape(b, g, d, d)
            mats[0] = carried
            block_starts = t0 + full[:, None] * h
            block_matrices(block_starts.reshape(1, -1), width, mats[1:].reshape(1, -1, d, d))
            _ordered_product(mats, scratch[:(b + 1) // 2 * g * d * d].reshape(-1, g, d, d),
                             carried)
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
            f"t = {times[np.unravel_index(bad[0], drifts.shape)[0]]:.6g} us; reduce dt"
        )
    return states, drifts


# The schedule, noise model and generators of the last sweep (see the module
# docstring), matched by identity: an equal schedule with, say, a zero of
# the other sign builds its own.
_last_generators: tuple = (None, None, None)


def _generators(schedule: ProtocolSchedule, noise: NoiseModel | None):
    """G0, G1 and ||G1||_2 of the sweep generator A(s) = G0 + s*G1.

    ``noise`` None selects the real 8x8 Schrodinger generator, otherwise
    the real Pauli transfer matrix of the Lindblad generator.  The norm is
    0 for a non-finite G1, whose run _propagate reports.
    """
    global _last_generators
    last_schedule, last_noise, pair = _last_generators
    if last_schedule is schedule and last_noise is noise:
        return pair
    if noise is None:
        g0, g1 = _schrodinger_generator(schedule.h0), _schrodinger_generator(schedule.h1)
    else:
        g0 = _pauli_generator(schedule.h0, collapse_operators(noise))
        g1 = _pauli_generator(schedule.h1)
    # The SVD fails on a non-finite g1.
    pair = g0, g1, np.linalg.norm(g1, 2) if np.isfinite(g1).all() else 0.0
    _last_generators = schedule, noise, pair
    return pair


# A non-finite schedule field, an unstable step size or a diverging state may
# overflow in the generators, the block polynomials or the propagation; the
# drift check at the first bad sample reports it.
@np.errstate(over="ignore", invalid="ignore")
def _sweep(schedule: ProtocolSchedule, t_ad: float, noise: NoiseModel | None, dt: float,
           n_samples: int, x0: np.ndarray) -> tuple[np.ndarray, ...]:
    """Times, states and drifts of ``_propagate`` over a sweep of duration ``t_ad``.

    ``noise`` None selects the Schrodinger generator and the norm drift,
    otherwise the Lindblad generator and the trace drift (see _generators).
    """
    times, steps, h = _sample_grid(t_ad, dt, n_samples)
    g0, g1, norm = _generators(schedule, noise)
    drift_of, what = (_norm_drift, "norm") if noise is None else (_trace_drift, "trace")
    # The expansion in s loses digits as h*||g1|| grows, the more so the
    # more steps a block holds: keep width * h * ||g1||_2 <= 1.
    rate = h * norm
    width = _BLOCK_STEPS
    while width > 1 and width * rate > 1.0:
        width -= 1
    # Products of h*A only: a product of A with A under- or overflows in extreme units.
    polys = _block_polynomials(h * g0, h * g1, h / t_ad, width)
    d = len(g0)

    def block_matrices(starts: np.ndarray, c: int, out: np.ndarray) -> None:
        flat = out.reshape(starts.shape + (-1,))
        powers = np.vander(starts.ravel() / t_ad, 4 * c + 1, increasing=True)
        np.matmul(powers.reshape(starts.shape + (-1,)), polys[c - 1], out=flat)
        # I is added after the sum, not folded into the constant term, so
        # that the rounding of one shared B_0 + I does not repeat in every
        # block; only the diagonal, every (d+1)-th entry of a flat matrix.
        flat[..., ::d + 1] += 1.0

    return (times,) + _propagate(block_matrices, width, times, steps, h, x0, drift_of, what)


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
    times, states, drifts = _sweep(schedule, t_ad, noise, dt, n_samples, pauli_vector(psi0))
    return Trajectory(times=times, states=states, drifts=drifts)

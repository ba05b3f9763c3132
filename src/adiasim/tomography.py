"""Pauli correlators, shot sampling, energy reconstruction, frame rotation.

Whole trajectories are measured as (n, 8) arrays, one row per sample and
one column per entry of ``CORRELATOR_LABELS``: the eight correlators
{XI, IX, YI, IY, ZI, IZ, XX, YY} that the trace files record, in file
order.  They are read from the trajectory's Pauli vectors, which hold every
<P> (``operators.pauli_vector`` gives those of pure states).  Shot count 0
means exact values.  In sampled mode, up to ``MAX_SHOTS`` shots, each
value's count is an exact binomial draw from a SplitMix64 counter stream
of its own, under a key the caller gives; numpy.random is never imported.

The energy estimator deliberately uses only the six sweep terms P in
{ZI, IZ, XI, IX, XX, YY}, each weighted by its coefficient Tr(P H(s))/4 in
the schedule's H(s), excluding the static ZZ term: the estimate
reconstructs the controlled part of the Hamiltonian from measured
correlators.  H(s) = h0 + s*h1 is affine, so the coefficients are
w0 + s*w1, read from the schedule's h0 and h1.  The frame rotation turns
qubit 2's (IX, IY) about Z, the one pair that fig1 writes rotated.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .dynamics import DRIFT_LIMIT
from .operators import PAULI_BASIS, PAULI_BASIS_LABELS
from .schedule import ProtocolSchedule, sweep_points

__all__ = ["measure_correlators", "energy_terms", "rotate_correlators", "CorrelatorOutOfRange",
           "CORRELATOR_LABELS", "ENERGY_TERMS", "MAX_SHOTS"]

# The eight correlators that traces record, in file order.
CORRELATOR_LABELS = ("XI", "IX", "YI", "IY", "ZI", "IZ", "XX", "YY")
# Estimator contribution keys, in the order of the Paulis they weigh.
ENERGY_TERMS = ("z1", "z2", "x1", "x2", "xx", "yy")
# Most shots drawn exactly.  BTRS accepts by a sum of four log-factorials of
# size n ln n, whose rounding, about 4 n ln n 2**-53, is 1e-5 at 1e9 shots;
# at 1e14 the variance of the counts is 1.3 % too large, at 2**63 six-fold.
MAX_SHOTS = 10**9

_COLUMNS = [PAULI_BASIS_LABELS.index(label) for label in CORRELATOR_LABELS]
_ENERGY_COLUMNS = [CORRELATOR_LABELS.index(label) for label in ("ZI", "IZ", "XI", "IX", "XX", "YY")]
_IX, _IY = CORRELATOR_LABELS.index("IX"), CORRELATOR_LABELS.index("IY")


class CorrelatorOutOfRange(ValueError):
    """Raised when an exact correlator lies outside [-1, 1] beyond the drift tolerance."""


def _check_range(values: np.ndarray) -> None:
    """Raise CorrelatorOutOfRange for an exact correlator outside [-1, 1].

    It may exceed the range by the norm drift that the propagators accept
    (about 2*DRIFT_LIMIT); a NaN fails too.
    """
    bad = np.argwhere(~(np.abs(values) <= 1.0 + 3.0 * DRIFT_LIMIT))
    if bad.size:
        row, col = bad[0]
        raise CorrelatorOutOfRange(f"correlator {CORRELATOR_LABELS[col]} = "
                                   f"{values[row, col]} outside [-1, 1] range")


# SplitMix64 (Steele, Lea & Flood 2014): the Weyl increment and the
# finalizer's multipliers.  uint64 arrays wrap silently; numpy scalars would
# warn on overflow, so every wrapping operation has an array operand.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1, _MIX2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_WORD = (1 << 64) - 1
# log k! for k < 16; Stirling's series takes over above.
_LOG_FACTORIAL = np.array([math.lgamma(k + 1.0) for k in range(16)])


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function on a uint64 array."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _stream_bases(seed, size: int) -> np.ndarray:
    """Base counters of ``size`` per-value streams keyed by ``seed``.

    The seed is a nonnegative int or a tuple of them; an int n is the key
    (n,).  The key absorbs its length, then each part's 64-bit word count
    and words, so (1, 0) and (1, 0, 0) differ, as do 5 and 2**64 + 5.
    """
    parts = (seed,) if isinstance(seed, (int, np.integer)) else tuple(seed)
    words = [len(parts)]
    for part in map(operator.index, parts):
        if part < 0:
            raise ValueError(f"seed parts must be >= 0, got {seed!r}")
        chunk = [part & _WORD]
        while part := part >> 64:
            chunk.append(part & _WORD)
        words += [len(chunk), *chunk]
    key = np.zeros(1, np.uint64)
    for word in words:
        key = _mix(key ^ np.uint64(word)) + _GAMMA
    return _mix(key + _GAMMA * np.arange(1, size + 1, dtype=np.uint64))


def _uniforms(state: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The next ``count`` uniforms in the open interval (0, 1) of each stream,
    a (count, streams) array, and the stream counters after them."""
    steps = _GAMMA * np.arange(count + 1, dtype=np.uint64)
    bits = _mix(state + steps[:-1, None]) >> np.uint64(12)
    return (bits.astype(float) + 0.5) * 2.0**-52, state + steps[-1]


def _log_factorial(x: np.ndarray) -> np.ndarray:
    """log x! of integer-valued floats x >= 0."""
    y = np.maximum(x, 16.0)
    r2 = 1.0 / (y * y)
    series = ((y + 0.5) * np.log(y) - y + 0.5 * math.log(2.0 * math.pi)
              + (1.0 / 12.0 - r2 * (1.0 / 360.0 - r2 * (1.0 / 1260.0 - r2 / 1680.0))) / y)
    return np.where(x < 16.0, _LOG_FACTORIAL[np.minimum(x, 15.0).astype(int)], series)


def _inversion(n: float, q: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Binomial(n, q) counts, 0 < q <= 1/2 and n*q < 10, by geometric gaps
    between successes (Devroye 1986, X.4), one uniform per gap: the count is
    the number of running gap sums <= n.  Pass p draws 2**p gaps per value."""
    counts, live, c = np.zeros(q.size), np.arange(q.size), np.log1p(-q)
    total, draws = np.zeros(q.size), 1
    while live.size:
        u, state = _uniforms(state, draws)
        sums = np.cumsum(np.vstack([total, np.floor(np.log(u) / c) + 1.0]), axis=0)[1:]
        counts[live] += np.count_nonzero(sums <= n, axis=0)
        more = sums[-1] <= n
        live, c, total, state, draws = live[more], c[more], sums[-1, more], state[more], 2 * draws
    return counts


def _btrs(n: float, q: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Binomial(n, q) counts, q <= 1/2 and n*q >= 10, by Hoermann's BTRS
    transformed rejection (1993), as CPython's ``random.binomialvariate``,
    except that every attempt takes both of its uniforms."""
    spq = np.sqrt(n * q * (1.0 - q))
    b = 1.15 + 2.53 * spq
    rows = np.array([-0.0873 + 0.0248 * b + 0.01 * q, b, n * q + 0.5, 0.92 - 4.2 / b, spq, q])
    counts, live = np.empty(q.size), np.arange(q.size)
    while live.size:
        a, b, c, vr, spq, q = rows
        (u, v), state = _uniforms(state, 2)
        u = u - 0.5
        us = 0.5 - np.abs(u)
        k = np.floor((2.0 * a / us + b) * u + c)
        inside = (k >= 0.0) & (k <= n)
        done = inside & (us >= 0.07) & (v <= vr)  # the squeeze
        i = np.flatnonzero(inside & ~done)
        a, b, spq, q, us, k_i = a[i], b[i], spq[i], q[i], us[i], k[i]
        m = np.floor((n + 1.0) * q)  # the mode
        log_f = _log_factorial(np.array([m, n - m, k_i, n - k_i]))
        alpha = (2.83 + 5.1 / b) * spq
        done[i] = (np.log(v[i] * (alpha / (a / (us * us) + b)))
                   <= log_f[0] + log_f[1] - log_f[2] - log_f[3] + (k_i - m) * np.log(q / (1.0 - q)))
        counts[live[done]] = k[done]
        keep = ~done
        live, rows, state = live[keep], rows.compress(keep, axis=1), state[keep]
    return counts


def _binomial(n: float, p: np.ndarray, seed) -> np.ndarray:
    """Binomial(n, p) counts of a flat array of p, as float64, for n up to
    ``MAX_SHOTS``.  Value i reads the uniforms of stream i under the key
    ``seed``, so its count depends on the key, i, p and n only.  Each count
    is drawn exactly for q = min(p, 1 - p) and mirrored for p > 1/2."""
    flip = p > 0.5
    q = np.where(flip, 1.0 - p, p)
    state = _stream_bases(seed, q.size)
    counts = np.zeros(q.size)
    for branch, sampler in (((q > 0.0) & (n * q < 10.0), _inversion), (n * q >= 10.0, _btrs)):
        counts[branch] = sampler(n, q[branch], state[branch])
    return np.where(flip, n - counts, counts)


def _sample(exact: np.ndarray, shots: int, seed) -> np.ndarray:
    """Mean of ``shots`` +-1 outcomes per value, each value in row-major
    order drawing from its own stream under the key ``seed``.

    Each shot is +1 with probability (1 + <P>)/2.
    """
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must be in 1..{MAX_SHOTS}, got {shots}")
    if seed is None:
        raise ValueError("sampled mode needs a seed")
    n = float(shots)
    counts = _binomial(n, np.clip(0.5 * (1.0 + exact), 0.0, 1.0).ravel(), seed)
    return ((2.0 * counts - n) / n).reshape(exact.shape)


def measure_correlators(r: np.ndarray, shots: int = 0, seed=None) -> np.ndarray:
    """Correlators of an (n, 16) stack of Pauli vectors, an (n, 8) array.

    Columns follow ``CORRELATOR_LABELS``; shots = 0 gives exact values and
    ignores the seed; at most ``MAX_SHOTS`` are drawn.  In sampled mode the
    seed is required: a nonnegative int or a tuple of them, and each of the
    n x 8 values in row-major order draws from a stream of its own under
    that key.  The exact values are range-checked in both modes, before any
    sampling.
    """
    r = np.asarray(r)
    if r.ndim != 2 or r.shape[1] != len(PAULI_BASIS):
        raise ValueError(f"r must be an (n, 16) stack of Pauli vectors, got shape {r.shape}")
    values = r[:, _COLUMNS]
    _check_range(values)
    return _sample(values, shots, seed) if shots else values


def energy_terms(values: np.ndarray, schedule: ProtocolSchedule, s) -> np.ndarray:
    """The six estimator terms of (n, 8) correlators at n sweep points s, an (n, 6) array.

    Columns follow ``ENERGY_TERMS``; the energy is the row sum.  Raises
    TimeOutOfRange for an s outside [0, 1].
    """
    ops = PAULI_BASIS[_COLUMNS][_ENERGY_COLUMNS]
    w0, w1 = (np.einsum("pij,ji->p", ops, h).real / 4.0 for h in (schedule.h0, schedule.h1))
    return (w0 + sweep_points(s)[:, None] * w1) * values[:, _ENERGY_COLUMNS]


def rotate_correlators(values: np.ndarray, theta) -> np.ndarray:
    """Qubit 2's (IX, IY) of (n, 8) correlators, rotated about Z by ``theta``
    (one per row), an (n, 2) array.

    <X>' = cos(theta)<X> + sin(theta)<Y> and <Y>' = -sin(theta)<X> +
    cos(theta)<Y> for qubit 2, the driven qubit of fig1.
    """
    c, s = np.cos(theta), np.sin(theta)
    vx, vy = values[:, _IX], values[:, _IY]
    return np.column_stack([c * vx + s * vy, -s * vx + c * vy])

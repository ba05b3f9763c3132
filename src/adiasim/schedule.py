"""The two-qubit sweep Hamiltonian H(s) and single-qubit drive frames.

As the sweep parameter s runs from 0 to 1, the protocol interpolates from
longitudinal to transverse fields while an exchange coupling ramps on:

    H(s)/h [MHz] = (1 - s) * (z1*ZI + z2*IZ) / 2
                 + s       * (x1*XI + x2*IX) / 2
                 + s       * j_final * (XX + YY) / 4
                 + zz      * ZZ / 4

with all frequencies in MHz.  ``h`` is factored out: dynamics code
multiplies by ``2*pi`` when integrating.  H is affine, ``H(s) = H0 + s*H1``.
A schedule holds no duration: a run of duration t_ad [us], an argument of
the propagators, reaches s = t/t_ad at time t.

The single-qubit Z ramp is realized by chirping the drive frequency
linearly from ``z`` MHz below the qubit up to resonance.  In the frame
co-moving with the chirp, that sweep is a ProtocolSchedule with the other
qubit idle (``z1 = x1 = 0`` drives qubit 2 alone).  The constant-frequency
frame differs from it by a Z rotation of qubit 2 through the angle between
the two frames, which ``frame_rotation_angle`` gives in physical time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .operators import pauli_2q

__all__ = [
    "TimeOutOfRange",
    "ProtocolSchedule",
    "frame_rotation_angle",
    "sweep_points",
]

# Every term of H(s) is real, so H(s) is real symmetric.
_ZI = pauli_2q("ZI").real
_IZ = pauli_2q("IZ").real
_XI = pauli_2q("XI").real
_IX = pauli_2q("IX").real
_XXYY = (pauli_2q("XX") + pauli_2q("YY")).real
_ZZ = pauli_2q("ZZ").real


class TimeOutOfRange(ValueError):
    """Raised when H(s) is evaluated outside [0, 1]."""


def sweep_points(s) -> np.ndarray:
    """``s`` as a float array on [0, 1], where H(s) is defined.

    Raises TimeOutOfRange unless every value lies in [0, 1], up to a float
    round-off of 1e-9 at the ends (e.g. a linspace end), which is clipped.
    """
    s = np.asarray(s, dtype=float)
    for v in (float(s.min()), float(s.max())) if s.size else ():
        # Written so that NaN fails the check too.
        if not -1e-9 <= v <= 1.0 + 1e-9:
            raise TimeOutOfRange(f"{v} outside protocol window [0, 1.0]")
    return np.clip(s, 0.0, 1.0)


@dataclass(frozen=True)
class ProtocolSchedule:
    """Shape of one sweep protocol, H(s) for s in [0, 1].

    z1, z2 : longitudinal splittings at s = 0 [MHz]
    x1, x2 : transverse splittings at s = 1 [MHz]
    j_final: exchange coupling reached at s = 1 [MHz]
    zz     : static ZZ coefficient [MHz]

    ``h0`` and ``h1`` (built once per instance, not fields) are the real
    symmetric float64 4x4 matrices of H(s)/h = h0 + s*h1 [MHz]; every
    evaluation reads them.
    """

    z1: float
    z2: float
    x1: float
    x2: float
    j_final: float = 0.0
    zz: float = 0.0

    def __post_init__(self) -> None:
        z_term = self.z1 * _ZI + self.z2 * _IZ
        x_term = self.x1 * _XI + self.x2 * _IX
        object.__setattr__(self, "h0", 0.5 * z_term + self.zz * 0.25 * _ZZ)
        object.__setattr__(self, "h1", 0.5 * x_term - 0.5 * z_term
                           + self.j_final * 0.25 * _XXYY)

    def hamiltonian(self, s) -> np.ndarray:
        """H(s)/h [MHz]: a real 4x4 symmetric matrix for a scalar s, an (n, 4, 4)
        stack for a 1-D array of n values, each row equal to the scalar call's."""
        return self.h0 + sweep_points(s)[..., None, None] * self.h1

    def with_(self, **changes) -> "ProtocolSchedule":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


def frame_rotation_angle(z: float, t, t_ad: float):
    """Angle [rad] between the chirped frame and the constant-frequency frame.

    ``t`` is a time or an array of times [us]; the angle has its shape.

    The difference of the accumulated phases of a chirped tone and a
    constant tone at the final frequency is
    ``theta(t) = 2*pi*z*t - pi*z*t**2/t_ad = 2*pi*z*t*(1 - t/(2*t_ad))``;
    rotating transverse expectation values by this angle maps data taken
    in the constant-frequency frame onto the chirped frame.
    """
    return 2.0 * math.pi * z * t * (1.0 - t / (2.0 * t_ad))

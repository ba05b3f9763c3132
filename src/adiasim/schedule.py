"""Time-dependent two-qubit sweep Hamiltonian and single-qubit drive frames.

The protocol interpolates between a longitudinal configuration at ``t = 0``
and a transverse one at ``t = t_ad`` while an exchange coupling ramps on:

    H(t)/h [MHz] = (1 - t/t_ad) * (z1*ZI + z2*IZ) / 2
                 + (t/t_ad)     * (x1*XI + x2*IX) / 2
                 + j(t)         * (XX + YY) / 4
                 + zz           * ZZ / 4

with all frequencies in MHz and times in microseconds.  ``h`` is factored
out: dynamics code multiplies by ``2*pi`` when integrating.  The coupling
ramps linearly, ``j(t) = (t/t_ad) * j_final``, so with ``s = t/t_ad`` the
whole Hamiltonian is affine, ``H(s) = H0 + s*H1``.

The single-qubit Z ramp is realized by chirping the drive frequency
linearly from ``z`` MHz below the qubit up to resonance.  In the frame
co-moving with the chirp, that sweep is a ProtocolSchedule with the other
qubit idle (``z1 = x1 = 0`` drives qubit 2 alone).  The frame helpers give
the same sweep in the constant-frequency frame, and the angle between the
two frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .operators import X as _X, Y as _Y, embed_1q, pauli_2q

__all__ = [
    "TimeOutOfRange",
    "ProtocolSchedule",
    "frame_rotation_angle",
    "constant_frame_hamiltonian",
]

_ZI = pauli_2q("ZI")
_IZ = pauli_2q("IZ")
_XI = pauli_2q("XI")
_IX = pauli_2q("IX")
_XXYY = pauli_2q("XX") + pauli_2q("YY")
_ZZ = pauli_2q("ZZ")


class TimeOutOfRange(ValueError):
    """Raised when a schedule is evaluated outside [0, t_ad]."""


def _check_window(times: np.ndarray, t_ad: float) -> None:
    """Raise TimeOutOfRange unless every time of an array lies in [0, t_ad]."""
    # Tolerate float round-off at the endpoints (e.g. linspace end).
    slack = 1e-9 * max(1.0, t_ad)
    for t in (float(times.min()), float(times.max())) if times.size else ():
        if t < -slack or t > t_ad + slack:
            raise TimeOutOfRange(f"t = {t} us outside protocol window [0, {t_ad}] us")


@dataclass(frozen=True)
class ProtocolSchedule:
    """Parameters of one sweep protocol.

    z1, z2 : longitudinal splittings at t = 0 [MHz]
    x1, x2 : transverse splittings at t = t_ad [MHz]
    j_final: exchange coupling reached at t = t_ad [MHz]
    zz     : static ZZ coefficient [MHz]
    t_ad   : protocol duration [us]

    ``h0`` and ``h1`` (built once per instance, not fields) are the 4x4
    matrices of H(s)/h = h0 + s*h1 [MHz]; every evaluation reads them.
    """

    z1: float
    z2: float
    x1: float
    x2: float
    j_final: float = 0.0
    zz: float = 0.0
    t_ad: float = 10.0

    def __post_init__(self) -> None:
        if self.t_ad <= 0.0:
            raise ValueError(f"t_ad must be positive, got {self.t_ad}")
        z_term = self.z1 * _ZI + self.z2 * _IZ
        x_term = self.x1 * _XI + self.x2 * _IX
        object.__setattr__(self, "h0", 0.5 * z_term + self.zz * 0.25 * _ZZ)
        object.__setattr__(self, "h1", 0.5 * x_term - 0.5 * z_term
                           + self.j_final * 0.25 * _XXYY)

    def _h_of_s(self, s):
        """H(s)/h; an array s of shape (n, 1, 1) gives an (n, 4, 4) stack."""
        return self.h0 + s * self.h1

    def hamiltonian(self, t: float) -> np.ndarray:
        """H(t)/h as a 4x4 complex Hermitian matrix [MHz]."""
        _check_window(np.asarray(t, dtype=float), self.t_ad)
        return self._h_of_s(min(max(t / self.t_ad, 0.0), 1.0))

    def hamiltonians(self, times) -> np.ndarray:
        """H(t)/h at every time of a 1-D array, as an (n, 4, 4) stack [MHz].

        Each matrix equals ``hamiltonian(t)`` at the same time, bit for bit.
        """
        times = np.asarray(times, dtype=float)
        _check_window(times, self.t_ad)
        s = np.clip(times / self.t_ad, 0.0, 1.0)
        return self._h_of_s(s[:, None, None])

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


def constant_frame_hamiltonian(z: float, x: float, t_ad: float, qubit: int = 2):
    """The chirped single-qubit sweep viewed from the constant-frequency frame.

    The qubit is resonant in this frame, so no Z term remains, but the
    drive axis precesses by the running frame angle ``theta(t)``:

        H(t)/h = (t/t_ad)*(x/2)*(cos(theta) X + sin(theta) Y),
        theta(t) = 2*pi*z*t*(1 - t/(2*t_ad)).

    Returns ``ham(t)`` on the chosen qubit (the other idles): a 4x4 matrix
    for a time, an (n, 4, 4) stack for a 1-D array of n times.
    """
    op_x = embed_1q(_X, qubit)
    op_y = embed_1q(_Y, qubit)

    def ham(t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        _check_window(t, t_ad)
        s = np.clip(t / t_ad, 0.0, 1.0)[..., None, None]
        theta = frame_rotation_angle(z, t, t_ad)[..., None, None]
        return s * 0.5 * x * (np.cos(theta) * op_x + np.sin(theta) * op_y)

    return ham

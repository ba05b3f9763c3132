"""Step-by-step RK4 references for the tests, independent of the propagators'
interval maps, and the fig1 sweep written out in each drive frame."""

import math

import numpy as np

from adiasim.dynamics import _sample_grid
from adiasim.operators import pauli_2q


def reference_pure(ham, t_ad, psi0, dt, n_samples):
    """Sampled states of the step-by-step RK4 loop on |psi> for H(t) = ``ham(t)``."""
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


def chirped_frame(z, x, t_ad):
    """The fig1 sweep in the chirped frame: (1 - s) z/2 Z + s x/2 X on qubit 2."""
    iz, ix = pauli_2q("IZ"), pauli_2q("IX")
    return lambda t: (1.0 - t / t_ad) * 0.5 * z * iz + (t / t_ad) * 0.5 * x * ix


def constant_frame(z, x, t_ad):
    """The fig1 sweep in the constant-frequency frame: no Z term, and a drive
    axis that turns by the frame angle theta(t) = 2 pi z t (1 - t/(2 t_ad)),
    s x/2 (cos(theta) X + sin(theta) Y) on qubit 2."""
    ix, iy = pauli_2q("IX"), pauli_2q("IY")

    def ham(t):
        theta = 2.0 * math.pi * z * t * (1.0 - t / (2.0 * t_ad))
        return (t / t_ad) * 0.5 * x * (math.cos(theta) * ix + math.sin(theta) * iy)

    return ham

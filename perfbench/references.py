"""Reference computations written from the model's stated formulas.

Nothing here imports ``adiasim``.  The checks compare the program's output
files against these values, so a fault in the program cannot hide behind
the same fault in its reference.

Model (PAPER.md, with the coupling ramp the README documents for ``j``):

    H(t)/h [MHz] = (1-s) (z1 ZI + z2 IZ)/2 + s (x1 XI + x2 IX)/2
                 + s j (XX + YY)/4 + zz ZZ/4,        s = t/t_ad

    d psi/dt = -2 pi i H psi,   Z = diag(-1, +1),   basis 00, 01, 10, 11.

Noise (README and the dynamics docstring): per qubit, relaxation at rate
(1 + n_th)/T1, excitation at n_th/T1 and pure dephasing 1/T_phi =
1/T2 - 1/(2 T1), the last as the jump operator sqrt(1/(2 T_phi)) sigma_z.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import minimize_scalar

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[-1, 0], [0, 1]], dtype=complex)
LOWER = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|
_ONE = {"I": I2, "X": X, "Y": Y, "Z": Z}

CORRELATORS = ("XI", "IX", "YI", "IY", "ZI", "IZ", "XX", "YY")
BASIS = ("00", "01", "10", "11")

# DOP853 tolerances: far below the 1e-4 the checks allow the program.
_RTOL, _ATOL = 1e-10, 1e-12


def pauli(label: str) -> np.ndarray:
    return np.kron(_ONE[label[0]], _ONE[label[1]])


def basis_vector(label: str) -> np.ndarray:
    psi = np.zeros(4, dtype=complex)
    psi[BASIS.index(label)] = 1.0
    return psi


def sweep_parts(p: dict) -> tuple[np.ndarray, np.ndarray]:
    """(H0, H1) with H(s) = H0 + s H1 for schedule parameters ``p``."""
    z_part = 0.5 * (p["z1"] * pauli("ZI") + p["z2"] * pauli("IZ"))
    x_part = 0.5 * (p["x1"] * pauli("XI") + p["x2"] * pauli("IX"))
    h0 = z_part + 0.25 * p["zz"] * pauli("ZZ")
    h1 = x_part - z_part + 0.25 * p["j"] * (pauli("XX") + pauli("YY"))
    return h0, h1


def sweep_hamiltonian(p: dict, t: float, t_ad: float) -> np.ndarray:
    h0, h1 = sweep_parts(p)
    return h0 + (t / t_ad) * h1


def sample_times(t_ad: float, n_samples: int) -> np.ndarray:
    return np.linspace(0.0, t_ad, n_samples + 1)


def solve_pure(ham, t_ad: float, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """States (len(times), 4, k) for the k columns of ``psi0`` under H(t)."""
    psi0 = np.asarray(psi0, dtype=complex).reshape(4, -1)
    k = psi0.shape[1]
    w = -2j * math.pi

    def rhs(t, y):
        return (w * (ham(t) @ y.reshape(4, k))).ravel()

    sol = solve_ivp(rhs, (0.0, t_ad), psi0.ravel(), method="DOP853",
                    t_eval=times, rtol=_RTOL, atol=_ATOL)
    if not sol.success:
        raise RuntimeError(f"reference solve failed: {sol.message}")
    return sol.y.T.reshape(len(times), 4, k)


def solve_sweep(p: dict, t_ad: float, states: tuple[str, ...], n_samples: int) -> dict:
    """Unitary reference: {state: (n_samples+1, 4) amplitudes}."""
    h0, h1 = sweep_parts(p)
    psi0 = np.stack([basis_vector(s) for s in states], axis=1)
    out = solve_pure(lambda t: h0 + (t / t_ad) * h1, t_ad, psi0,
                     sample_times(t_ad, n_samples))
    return {s: out[:, :, i] for i, s in enumerate(states)}


def jump_operators(t1: float, t2: float, nth: float, qubit: int) -> list[np.ndarray]:
    embed = (lambda op: np.kron(op, I2)) if qubit == 1 else (lambda op: np.kron(I2, op))
    ops = []
    if math.isfinite(t1):
        ops.append(math.sqrt((1.0 + nth) / t1) * embed(LOWER))
        if nth > 0.0:
            ops.append(math.sqrt(nth / t1) * embed(LOWER.conj().T))
    if math.isfinite(t2):
        rate_phi = 1.0 / t2 - (0.5 / t1 if math.isfinite(t1) else 0.0)
        if rate_phi > 0.0:
            ops.append(math.sqrt(0.5 * rate_phi) * embed(Z))
    return ops


def solve_lindblad(p: dict, t_ad: float, states: tuple[str, ...], n_samples: int,
                   noise: dict) -> dict:
    """Lindblad reference: {state: (n_samples+1, 4, 4) density matrices}."""
    h0, h1 = sweep_parts(p)
    jumps = [op for q in (1, 2)
             for op in jump_operators(noise["t1_us"][q - 1], noise["t2_us"][q - 1],
                                      noise["nth"][q - 1], q)]
    w = -2j * math.pi
    times = sample_times(t_ad, n_samples)
    out = {}
    for label in states:
        psi = basis_vector(label)

        def rhs(t, y):
            rho = y.reshape(4, 4)
            h = h0 + (t / t_ad) * h1
            d = w * (h @ rho - rho @ h)
            for op in jumps:
                dag = op.conj().T
                d += op @ rho @ dag - 0.5 * (dag @ op @ rho + rho @ dag @ op)
            return d.ravel()

        sol = solve_ivp(rhs, (0.0, t_ad), np.outer(psi, psi.conj()).ravel(),
                        method="DOP853", t_eval=times, rtol=_RTOL, atol=_ATOL)
        if not sol.success:
            raise RuntimeError(f"reference Lindblad solve failed: {sol.message}")
        out[label] = sol.y.T.reshape(len(times), 4, 4)
    return out


def correlators(states: np.ndarray) -> dict[str, np.ndarray]:
    """<P> for each recorded Pauli product; pure (n, 4) or mixed (n, 4, 4)."""
    out = {}
    for label in CORRELATORS:
        op = pauli(label)
        if states.ndim == 2:
            vals = np.einsum("ni,ij,nj->n", states.conj(), op, states)
        else:
            vals = np.einsum("ij,nji->n", op, states)
        out[label] = vals.real
    return out


def sorted_levels(p: dict, t_ad: float, times: np.ndarray) -> np.ndarray:
    h0, h1 = sweep_parts(p)
    return np.linalg.eigvalsh(h0[None] + (times / t_ad)[:, None, None] * h1[None])


def end_populations(p: dict, t_ad: float, psi: np.ndarray) -> np.ndarray:
    """Populations of the four ascending levels of H(t_ad) in state ``psi``."""
    _, vecs = np.linalg.eigh(sweep_hamiltonian(p, t_ad, t_ad))
    return np.abs(vecs.conj().T @ psi) ** 2


def minimum_gap(p: dict, t_ad: float) -> tuple[float, float]:
    """(a, t_c): minimum of E3 - E2 over (0, t_ad), by bounded Brent search."""
    grid = np.linspace(0.0, t_ad, 2001)
    levels = sorted_levels(p, t_ad, grid)
    gaps = levels[:, 2] - levels[:, 1]
    i = int(np.argmin(gaps))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]

    def gap(t):
        e = np.linalg.eigvalsh(sweep_hamiltonian(p, t, t_ad))
        return e[2] - e[1]

    res = minimize_scalar(gap, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12 * t_ad})
    return float(res.fun), float(res.x)


def bare_slope(p: dict, t_ad: float, t_c: float, window_fraction: float = 0.10) -> float:
    """|d/dt| of the bare (j = zz = 0) crossing-pair difference near t_c.

    Without coupling the levels are sums of the single-qubit energies
    +-eps_q(t), eps_q = sqrt(((1-s) z_q)^2 + (s x_q)^2)/2, and the middle
    pair differs by 2 (eps_1 - eps_2).  The slope is a least-squares line
    through that difference over a window of width window_fraction*t_ad.
    """
    half = 0.5 * window_fraction * t_ad
    t = np.linspace(t_c - half, t_c + half, 401)
    s = t / t_ad
    eps1 = 0.5 * np.hypot((1 - s) * p["z1"], s * p["x1"])
    eps2 = 0.5 * np.hypot((1 - s) * p["z2"], s * p["x2"])
    return float(abs(np.polyfit(t, 2.0 * (eps1 - eps2), 1)[0]))


def lz(a: float, alpha: float) -> tuple[float, float]:
    gamma = math.pi * a * a / (2.0 * abs(alpha))
    return gamma, math.exp(-2.0 * math.pi * gamma)


def frame_angle(z: float, t: np.ndarray, t_ad: float) -> np.ndarray:
    """Phase of a tone chirped linearly up to f, relative to a constant tone at f."""
    return 2.0 * math.pi * z * t * (1.0 - t / (2.0 * t_ad))


def solve_frames(z: float, x: float, t_ad: float, n_samples: int, state: str) -> dict:
    """fig1 qubit-2 sweep in the chirped and the constant-frequency frame.

    chirped : H = (1-s) z/2 Z + s x/2 X
    constant: H = s x/2 (cos theta X + sin theta Y), theta = frame_angle
    """
    zq, xq, yq = pauli("IZ"), pauli("IX"), pauli("IY")

    def chirped(t):
        s = t / t_ad
        return (1 - s) * 0.5 * z * zq + s * 0.5 * x * xq

    def constant(t):
        s, th = t / t_ad, frame_angle(z, t, t_ad)
        return s * 0.5 * x * (math.cos(th) * xq + math.sin(th) * yq)

    times = sample_times(t_ad, n_samples)
    psi0 = basis_vector(state)
    return {frame: solve_pure(ham, t_ad, psi0, times)[:, :, 0]
            for frame, ham in (("chirped", chirped), ("constant", constant))}


def rabi_population(j: float, detuning: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Generalized Rabi swap probability j^2/W^2 sin^2(pi W t), W^2 = j^2 + d^2."""
    w_sq = j * j + detuning ** 2
    return j * j / w_sq * np.sin(np.pi * np.sqrt(w_sq) * t) ** 2

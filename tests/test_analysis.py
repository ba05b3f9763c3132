"""Unit tests for level tracking, gap finding, and crossing analysis."""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest

from adiasim import analysis
from adiasim.analysis import (
    _TIE_TOL,
    DegenerateTracking,
    NoInteriorMinimum,
    WindowOutOfRange,
    ZeroSlope,
    _middle_gap,
    _tracked_eigensystem,
    crossing_report,
    diabatic_slope,
    level_weights,
    lz_probability,
    min_gap,
    pauli_fidelity,
    tracked_levels,
)
from adiasim.dynamics import NoiseModel, basis_state, propagate_lindblad, propagate_unitary
from adiasim.operators import PAULI_BASIS, pauli_vector
from adiasim.schedule import ProtocolSchedule

FIG3B = ProtocolSchedule(z1=2.5, z2=1.5, x1=2.0, x2=4.1, j_final=1.7, zz=0.2)
FIG3A = FIG3B.with_(j_final=0.0)
FIG4 = ProtocolSchedule(z1=2.5, z2=1.5, x1=1.0, x2=7.3, j_final=1.3, zz=0.2)

# Frozen regression values for the two standard sweep configurations,
# cross-checked below against grid scans and the exact two-level model.
FIG4_GAP = 0.231535
FIG4_TC_FRACTION = 0.213455
FIG3B_GAP = 0.479985
FIG3B_TC_FRACTION = 0.334167
FIG4_SLOPE_AT_10US = 0.726164


@dataclass(frozen=True)
class TwoLevelCrossing:
    """Minimal schedule stand-in: a linear crossing of the middle pair at
    ``s_star`` with exactly known gap, plus two far-detuned spectator levels."""

    slope: float
    gap: float
    s_star: float

    def hamiltonian(self, s) -> np.ndarray:
        d = self.slope * (np.asarray(s, dtype=float) - self.s_star)
        h = np.zeros(d.shape + (4, 4), dtype=complex)
        h[..., 0, 0] = -50.0
        h[..., 3, 3] = 50.0
        h[..., 1, 1] = -d
        h[..., 2, 2] = d
        h[..., 1, 2] = h[..., 2, 1] = 0.5 * self.gap
        return h

    @property
    def h1(self) -> np.ndarray:
        """dH/ds."""
        return np.diag([0.0, -self.slope, self.slope, 0.0]).astype(complex)


@dataclass(frozen=True)
class LineCrossings:
    """Diagonal stand-in whose four levels are straight lines that all cross
    one another, so the tracked labels end reversed after several swaps."""

    def hamiltonian(self, s) -> np.ndarray:
        lines = (np.array([0.0, 1.1, 2.3, 3.6])
                 + np.asarray(s, dtype=float)[..., None] * np.array([5.0, 1.7, -1.9, -4.4]))
        return (lines[..., None] * np.eye(4)).astype(complex)


@dataclass(frozen=True)
class DegenerateSpectators:
    """Two copies of one avoided crossing at ``s_star``: each sorted level of
    the middle pair is degenerate with a spectator at every s."""

    slope: float
    gap: float
    s_star: float

    def hamiltonian(self, s) -> np.ndarray:
        d = self.slope * (np.asarray(s, dtype=float) - self.s_star)
        h = np.zeros(d.shape + (4, 4), dtype=complex)
        for i in (0, 2):
            h[..., i, i] = -d
            h[..., i + 1, i + 1] = d
            h[..., i, i + 1] = h[..., i + 1, i] = 0.5 * self.gap
        return h

    @property
    def h1(self) -> np.ndarray:
        """dH/ds."""
        return np.diag([-self.slope, self.slope, -self.slope, self.slope]).astype(complex)


def levels_on_grid(schedule, n_grid):
    """Uniform grid of ``n_grid`` points over s in [0, 1] and the levels tracked on it."""
    s = np.linspace(0.0, 1.0, n_grid)
    levels = tracked_levels(schedule, s)
    return s, levels.energies, levels.vectors


def sweep_levels(schedule, n_samples=300):
    """The levels that a run of ``n_samples`` tracks, for its crossing report too."""
    return tracked_levels(schedule, np.linspace(0.0, 1.0, n_samples + 1))


class TestSpectralTrace:
    """``tracked_levels`` on uniform grids."""

    def test_shapes_and_sorting(self):
        s, energies, vectors = levels_on_grid(FIG4, 101)
        assert energies.shape == (101, 4)
        assert vectors.shape == (101, 4, 4)
        sorted_energies = np.linalg.eigvalsh(FIG4.hamiltonian(s))
        # Tracked energies are a permutation of the sorted ones at each point.
        assert np.allclose(np.sort(energies, axis=1), sorted_energies)

    def test_vectors_follow_their_energies(self):
        s, energies, vectors = levels_on_grid(FIG3B, 201)
        for i in range(0, 201, 20):
            h = FIG3B.hamiltonian(s[i])
            for k in range(4):
                v = vectors[i][:, k]
                residual = h @ v - energies[i, k] * v
                assert np.linalg.norm(residual) < 1e-9

    def test_tracked_curves_are_smooth(self):
        """Continuity labeling: tracked energies never jump by more than the
        local grid resolution allows, even across the crossing."""
        _, energies, _ = levels_on_grid(FIG4, 1001)
        steps = np.abs(np.diff(energies, axis=0))
        assert steps.max() < 0.1

    def test_degenerate_tracking_detected(self):
        """If the eigenbasis turns by exactly 45 degrees between grid points,
        the overlap assignment is ambiguous and must be reported.  The 128
        steps of 1/128 are at least 100, so the levels are tracked on this
        grid itself, and the crossing sits halfway between two of its points."""
        duck = TwoLevelCrossing(slope=1.0, gap=2.0 / 256, s_star=0.75 + 1.0 / 256)
        with pytest.raises(DegenerateTracking):
            levels_on_grid(duck, 129)

    @pytest.mark.parametrize("n_grid", [2, 11, 101, 201])
    def test_levels_at_each_time_of_the_refined_grid(self, n_grid):
        """Short grids are tracked on a grid of at least 100 steps that holds
        every point; the levels at those points are its r-th rows."""
        s, energies, vectors = levels_on_grid(FIG4, n_grid)
        r = math.ceil(100 / (n_grid - 1))
        fine = np.linspace(0.0, 1.0, r * (n_grid - 1) + 1)
        fine[::r] = s
        fine_energies, fine_vectors = _tracked_eigensystem(FIG4, fine)
        assert np.array_equal(energies, fine_energies[::r])
        assert np.array_equal(vectors, fine_vectors[::r])
        # The crossing analysis reads the whole tracker grid.
        levels = tracked_levels(FIG4, s)
        assert np.array_equal(levels.grid, fine)
        assert np.array_equal(levels.grid_energies, fine_energies)

    @pytest.mark.parametrize("s", [np.array([0.0]), np.array([])])
    def test_rejects_fewer_than_two_points(self, s):
        with pytest.raises(ValueError, match="at least two points s, got"):
            tracked_levels(FIG4, s)


def reference_tracked_eigensystem(schedule, s):
    """Sequential level tracking, one grid step at a time: each step's
    overlaps are taken against the previous step's tracked vectors, the
    assignment is the best of the 24 permutations by brute force, and each
    vector keeps eigh's phase."""
    sorted_e, vecs = np.linalg.eigh(np.stack([schedule.hamiltonian(v) for v in s]))
    tracked_e, tracked_v = sorted_e.copy(), vecs.copy()
    for i in range(1, len(s)):
        overlap = np.abs(tracked_v[i - 1].conj().T @ vecs[i])
        for k in range(4):
            row = np.sort(overlap[k])[::-1]
            if row[0] - row[1] < _TIE_TOL:
                raise DegenerateTracking(
                    f"ambiguous level continuation at s = {s[i]:.6f}: "
                    f"two overlaps of tracked level {k + 1} tie at {row[0]:.6f}"
                )
        perm = list(max(itertools.permutations(range(4)),
                        key=lambda p: sum(overlap[k, p[k]] for k in range(4))))
        tracked_e[i] = sorted_e[i][perm]
        tracked_v[i] = vecs[i][:, perm]
    return tracked_e, tracked_v


class TestBatchedTracking:
    """The batched tracker against the sequential reference tracker."""

    @pytest.mark.parametrize("schedule, n_grid", [(FIG4, 1001), (FIG3B, 201),
                                                  (FIG4.with_(j_final=0.0, zz=0.0), 1001),
                                                  (FIG4, 2), (LineCrossings(), 101)])
    def test_matches_sequential_reference(self, schedule, n_grid):
        s = np.linspace(0.0, 1.0, n_grid)
        tracked_e, tracked_v = _tracked_eigensystem(schedule, s)
        ref_e, ref_v = reference_tracked_eigensystem(schedule, s)
        if isinstance(schedule, LineCrossings):
            assert np.array_equal(tracked_e[-1], np.sort(tracked_e[-1])[::-1])
        assert np.array_equal(tracked_e, ref_e)
        assert np.array_equal(tracked_v, ref_v)

    def test_label_continuation_matches_sequential_loop(self, monkeypatch):
        """Pointer doubling composes the step permutations into the labels
        of the step-by-step loop bit for bit: on LineCrossings, whose labels
        end reversed, and on random permutation chains of length 1 to 300."""
        def sequential(perms):
            labels = np.tile(np.arange(4), (len(perms) + 1, 1))
            for i, perm in enumerate(perms, start=1):
                labels[i] = perm[labels[i - 1]]
            return labels

        seen = {}
        doubled = analysis._continued_labels

        def spy(perms):
            seen["perms"], seen["labels"] = perms, doubled(perms)
            return seen["labels"]

        monkeypatch.setattr(analysis, "_continued_labels", spy)
        _tracked_eigensystem(LineCrossings(), np.linspace(0.0, 1.0, 101))
        assert np.array_equal(seen["labels"], sequential(seen["perms"]))
        assert list(seen["labels"][-1]) == [3, 2, 1, 0]
        rng = np.random.default_rng(54)
        for n in range(1, 301):
            perms = rng.permuted(np.tile(np.arange(4), (n, 1)), axis=1)
            assert np.array_equal(doubled(perms), sequential(perms)), n

    def test_degenerate_message_matches_reference(self):
        duck = TwoLevelCrossing(slope=1.0, gap=0.5, s_star=0.75)
        s = np.linspace(0.0, 1.0, 3)
        with pytest.raises(DegenerateTracking) as expected:
            reference_tracked_eigensystem(duck, s)
        with pytest.raises(DegenerateTracking) as got:
            _tracked_eigensystem(duck, s)
        assert str(got.value) == str(expected.value)


# The uniform grid on which min_gap took its coarse bracket from a stacked
# eigvalsh of its own, before it read the tracked levels.
REFERENCE_GRID = np.linspace(0.0, 1.0, 1001)
# A custom shape with z1 = 0, whose bare levels tie at s = 0, crossing at
# s = 0.17 (the crossed run of tests/test_cli.py).
CUSTOM = ProtocolSchedule(z1=0.0, z2=1.5, x1=7.3, x2=1.0, j_final=1.3)


def reference_min_gap(schedule):
    """min_gap by plain bisection on the sign of the Hellmann-Feynman gap
    derivative, inside the two cells of REFERENCE_GRID around its own coarse
    minimum, until the bracket holds two adjacent floats."""
    levels = np.linalg.eigvalsh(schedule.hamiltonian(REFERENCE_GRID))
    idx = int(np.argmin(levels[:, 2] - levels[:, 1]))
    lo, hi = float(REFERENCE_GRID[idx - 1]), float(REFERENCE_GRID[idx + 1])

    def gap_and_slope(s):
        energies, vecs = np.linalg.eigh(schedule.hamiltonian(s))
        slopes = np.einsum("ik,ij,jk->k", vecs.conj(), schedule.h1, vecs).real
        return float(energies[2] - energies[1]), float(slopes[2] - slopes[1])

    s_c = 0.5 * (lo + hi)
    while lo < s_c < hi:
        if gap_and_slope(s_c)[1] > 0.0:
            hi = s_c
        else:
            lo = s_c
        s_c = 0.5 * (lo + hi)
    return gap_and_slope(s_c)[0], s_c


class TestMinGap:
    @pytest.mark.parametrize("schedule", [
        FIG3A, FIG3B, FIG4, CUSTOM, TwoLevelCrossing(slope=20.0, gap=0.37, s_star=0.4),
    ], ids=["fig3a", "fig3b", "fig4", "custom", "two-level"])
    def test_newton_matches_reference_bisection(self, monkeypatch, schedule):
        """From the bracket of the tracked levels, on the tracker's grid of
        101 or 301 points, Newton steps end where bisection from the
        1001-point bracket does, to an ulp or so of s_c and of the gap,
        after at most 12 eigensolves instead of 46-47."""
        ref_a, ref_s_c = reference_min_gap(schedule)
        for n_samples in (1, 300):
            levels = sweep_levels(schedule, n_samples)
            calls = []
            eigh = np.linalg.eigh

            def spy(a):
                calls.append(np.shape(a))
                return eigh(a)

            monkeypatch.setattr(np.linalg, "eigh", spy)
            a, s_c = min_gap(schedule, levels)
            monkeypatch.undo()
            assert type(a) is float and type(s_c) is float
            assert abs(s_c - ref_s_c) <= 1e-15
            assert abs(a - ref_a) <= 1e-15
            assert 1 <= len(calls) <= 12
            assert all(shape == (4, 4) for shape in calls)

    @pytest.mark.parametrize("schedule", [
        TwoLevelCrossing(slope=20.0, gap=0.0, s_star=0.4 + 1.0 / 3000),
        DegenerateSpectators(slope=20.0, gap=0.37, s_star=0.4),
    ], ids=["zero-gap", "degenerate-spectators"])
    def test_bisection_fallback_matches_reference(self, schedule):
        """Where the curvature is not finite and positive (a level of the
        pair degenerate with another), the steps fall back to bisection."""
        ref_a, ref_s_c = reference_min_gap(schedule)
        a, s_c = min_gap(schedule, sweep_levels(schedule))
        assert type(a) is float and type(s_c) is float
        assert abs(s_c - ref_s_c) <= 1e-15
        assert abs(a - ref_a) <= 1e-15

    def test_reads_the_tracked_levels(self):
        """The coarse minimum is that of the tracked levels: levels whose
        middle pair is closest at s = 0.5 bracket [0.49, 0.51], which holds
        no minimum of FIG4's gap, and the steps bisect to that bracket's edge."""
        grid = np.linspace(0.0, 1.0, 101)
        energies = np.tile([0.0, 1.0, 3.0, 4.0], (101, 1))
        energies[50, 2] = 2.0
        _, s_c = min_gap(FIG4, analysis.TrackedLevels(grid, energies, energies, None))
        assert 0.49 <= s_c <= 0.51 and abs(s_c - reference_min_gap(FIG4)[1]) > 0.2

    def test_crossing_within_one_cell_of_the_start(self):
        """A gap minimum within one tracker cell of s = 0 is the grid's first
        point: min_gap reports NoInteriorMinimum there, at s = 0, where the
        1001-point bracket found it interior."""
        duck = TwoLevelCrossing(slope=20.0, gap=0.37, s_star=0.003)
        assert 0.002 < reference_min_gap(duck)[1] < 0.004
        with pytest.raises(NoInteriorMinimum, match=r"grid edge s = 0\.000000"):
            min_gap(duck, sweep_levels(duck, n_samples=100))
        # On a finer tracker grid the same crossing is interior.
        assert min_gap(duck, sweep_levels(duck, n_samples=1000))[1] == pytest.approx(0.003, abs=1e-7)

    def test_sweep_hamiltonian_is_real(self):
        """h0 and h1 are float64, so every eigh of H(s) is a real symmetric one."""
        for schedule in (FIG3A, FIG3B, FIG4):
            assert schedule.h0.dtype == np.float64
            assert schedule.h1.dtype == np.float64
            assert schedule.hamiltonian(0.5).dtype == np.float64

    def test_two_level_crossing_is_exact(self):
        duck = TwoLevelCrossing(slope=20.0, gap=0.37, s_star=0.4)
        a, s_c = min_gap(duck, sweep_levels(duck))
        assert a == pytest.approx(0.37, abs=1e-10)
        assert s_c == pytest.approx(0.4, abs=1e-7)

    def test_standard_sweep_gaps(self):
        a4, sc4 = min_gap(FIG4, sweep_levels(FIG4))
        assert a4 == pytest.approx(FIG4_GAP, abs=1e-4)
        assert sc4 == pytest.approx(FIG4_TC_FRACTION, abs=1e-4)
        a3, sc3 = min_gap(FIG3B, sweep_levels(FIG3B))
        assert a3 == pytest.approx(FIG3B_GAP, abs=1e-4)
        assert sc3 == pytest.approx(FIG3B_TC_FRACTION, abs=1e-4)

    def test_refinement_beats_dense_grid(self):
        """The refined minimum is no larger than a 20x denser grid scan."""
        a, _ = min_gap(FIG4, sweep_levels(FIG4))
        dense = np.linalg.eigvalsh(FIG4.hamiltonian(np.linspace(0.0, 1.0, 20001)))
        grid_min = np.min(dense[:, 2] - dense[:, 1])
        assert a <= grid_min + 1e-12
        assert a == pytest.approx(grid_min, abs=1e-6)

    def test_local_minimum_returned(self):
        a, s_c = min_gap(FIG4, sweep_levels(FIG4))
        for ds in (1e-5, 1e-4):
            for s in (s_c - ds, s_c + ds):
                vals = np.linalg.eigvalsh(FIG4.hamiltonian(s))
                assert vals[2] - vals[1] >= a - 1e-12

    def test_no_interior_minimum(self):
        """A pure longitudinal ramp has monotonically shrinking gaps."""
        ramp = ProtocolSchedule(z1=2.5, z2=1.5, x1=0.0, x2=0.0)
        with pytest.raises(NoInteriorMinimum):
            min_gap(ramp, sweep_levels(ramp))

    @pytest.mark.parametrize("schedule", [FIG3B, FIG4])
    def test_crossing_time_is_not_rounding_noise(self, schedule):
        """An ulp-level change of H moves s_c by no more than rounding:
        Newton steps on the gap derivative, kept inside a bracket by its
        sign, end at float resolution."""
        _, s_c = min_gap(schedule, sweep_levels(schedule))
        nudged = schedule.with_(z1=schedule.z1 * (1.0 + 1e-15))
        _, s_c_nudged = min_gap(nudged, sweep_levels(nudged))
        assert abs(s_c_nudged - s_c) <= 1e-13

    @pytest.mark.parametrize("schedule", [FIG3B, FIG4])
    def test_hellmann_feynman_gap_derivative(self, schedule):
        """The gap slope in s from <k|h1|k>, and its curvature from second-order
        perturbation theory, match central differences of eigvalsh."""
        def gap(s):
            vals = np.linalg.eigvalsh(schedule.hamiltonian(s))
            return vals[2] - vals[1]

        _, s_c = min_gap(schedule, sweep_levels(schedule))
        h = 1e-6
        for s in (0.1, s_c - 0.01, s_c, s_c + 0.01, 0.9):
            value, slope, curvature = _middle_gap(schedule, s)
            assert value == pytest.approx(gap(s), abs=1e-12)
            central = (gap(s + h) - gap(s - h)) / (2.0 * h)
            assert slope == pytest.approx(central, abs=1e-6)
            second = (gap(s + 1e-4) - 2.0 * gap(s) + gap(s - 1e-4)) / 1e-8
            assert curvature == pytest.approx(second, rel=1e-4)


class TestDiabaticSlope:
    def test_slope_matches_bare_gap_growth(self):
        """Away from the crossing point the bare sorted gap grows linearly at
        the fitted rate on both sides."""
        _, s_c = min_gap(FIG4, sweep_levels(FIG4))
        alpha = diabatic_slope(FIG4, s_c=s_c)
        bare = FIG4.with_(j_final=0.0, zz=0.0)

        def bare_diff(s):
            vals = np.linalg.eigvalsh(bare.hamiltonian(s))
            return vals[2] - vals[1]

        fd_right = (bare_diff(s_c + 0.015) - bare_diff(s_c + 0.005)) / 0.01
        fd_left = (bare_diff(s_c - 0.005) - bare_diff(s_c - 0.015)) / 0.01
        assert alpha == pytest.approx(fd_right, rel=5e-2)
        assert alpha == pytest.approx(abs(fd_left), rel=5e-2)

    def test_standard_sweep_slope(self):
        _, s_c = min_gap(FIG4, sweep_levels(FIG4))
        alpha = diabatic_slope(FIG4, s_c=s_c)
        assert alpha / 10.0 == pytest.approx(FIG4_SLOPE_AT_10US, abs=1e-4)

    def test_window_stability(self, monkeypatch):
        """The fitted slope moves by < 2% when the window is 5% or 15% of
        the protocol instead of 10%."""
        _, s_c = min_gap(FIG4, sweep_levels(FIG4))
        assert analysis._SLOPE_WINDOW == 0.10
        base = diabatic_slope(FIG4, s_c=s_c)
        for frac in (0.05, 0.15):
            monkeypatch.setattr(analysis, "_SLOPE_WINDOW", frac)
            alt = diabatic_slope(FIG4, s_c=s_c)
            assert abs(alt - base) / base < 0.02

    def test_requires_crossing_time(self):
        with pytest.raises(TypeError):
            diabatic_slope(FIG4)

    def test_window_out_of_range(self):
        with pytest.raises(WindowOutOfRange):
            diabatic_slope(FIG4, s_c=0.03)
        with pytest.raises(WindowOutOfRange):
            diabatic_slope(FIG4, s_c=0.99)

    @pytest.mark.parametrize("schedule", [FIG3B, FIG4])
    def test_closed_form_matches_tracked_bare_levels(self, schedule):
        """With j = zz = 0 the tracked middle pair differs by +-(eps1 - eps2),
        eps_i = sqrt(z_i^2 (1-s)^2 + x_i^2 s^2), over the whole sweep, so the
        fit to the closed form gives the slope of the tracked bare levels."""
        bare = schedule.with_(j_final=0.0, zz=0.0)
        s = np.linspace(0.0, 1.0, 1001)
        tracked_e, _ = _tracked_eigensystem(bare, s)
        tracked = tracked_e[:, 2] - tracked_e[:, 1]
        closed = (np.hypot(schedule.z1 * (1 - s), schedule.x1 * s)
                  - np.hypot(schedule.z2 * (1 - s), schedule.x2 * s))
        assert min(np.max(np.abs(tracked - closed)), np.max(np.abs(tracked + closed))) <= 1e-12

        _, s_c = min_gap(schedule, sweep_levels(schedule))
        window = np.abs(s - s_c) <= 0.05
        fitted = abs(np.polyfit(s[window], tracked[window], 1)[0])
        assert diabatic_slope(schedule, s_c=s_c) == pytest.approx(fitted, abs=1e-12)


class TestLzProbability:
    def test_anchor_point(self):
        """a = 0.22 MHz through a sweep of 10.3/15 MHz/us sits at the
        diabatic-adiabatic boundary, P = 0.5."""
        gamma, p = lz_probability(0.22, 10.3 / 15.0)
        assert gamma == pytest.approx(0.110718, abs=1e-6)
        assert p == pytest.approx(0.498743, abs=1e-6)
        assert p == pytest.approx(0.5, abs=0.01)

    def test_formula(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            a = rng.uniform(0.01, 2.0)
            alpha = rng.uniform(0.05, 20.0) * rng.choice([-1.0, 1.0])
            gamma, p = lz_probability(a, alpha)
            assert gamma == pytest.approx(math.pi * a**2 / (2 * abs(alpha)))
            assert p == pytest.approx(math.exp(-2 * math.pi * gamma))
            assert 0.0 <= p <= 1.0

    def test_monotonicity(self):
        rng = np.random.default_rng(52)
        for _ in range(100):
            a = rng.uniform(0.01, 1.0)
            alpha = rng.uniform(0.1, 10.0)
            _, p = lz_probability(a, alpha)
            _, p_wider = lz_probability(a * 1.5, alpha)
            _, p_faster = lz_probability(a, alpha * 1.5)
            assert p_wider < p
            assert p_faster > p

    def test_zero_gap_is_fully_diabatic(self):
        gamma, p = lz_probability(0.0, 1.0)
        assert gamma == 0.0 and p == 1.0

    def test_zero_slope_rejected(self):
        with pytest.raises(ZeroSlope):
            lz_probability(0.22, 0.0)

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            lz_probability(-0.1, 1.0)


class TestPassageFidelity:
    def test_adiabatic_run_stays_on_level(self):
        traj = propagate_unitary(FIG3B, 30.0, basis_state("01"), n_samples=40)
        vectors = tracked_levels(FIG3B, traj.times / 30.0).vectors
        fid = pauli_fidelity(pauli_vector(traj.states), level_weights(vectors, 2))
        assert fid[0] == pytest.approx(1.0, abs=1e-9)
        assert fid[-1] > 0.95
        assert fid.min() > 0.5

    def test_levels_partition_unity(self):
        traj = propagate_unitary(FIG4, 10.0, basis_state("01"), n_samples=20)
        vectors = tracked_levels(FIG4, traj.times / 10.0).vectors
        r = pauli_vector(traj.states)
        total = sum(pauli_fidelity(r, level_weights(vectors, k)) for k in (1, 2, 3, 4))
        assert np.allclose(total, 1.0, atol=1e-7)

    def test_mixed_state_variant(self):
        traj = propagate_lindblad(FIG4, 10.0, basis_state("01"), NoiseModel(),
                                  n_samples=10)
        vectors = tracked_levels(FIG4, traj.times / 10.0).vectors
        fid = pauli_fidelity(traj.states, level_weights(vectors, 2))
        assert fid[0] == pytest.approx(1.0, abs=1e-6)
        assert np.all((fid >= -1e-9) & (fid <= 1 + 1e-9))

    def test_pauli_weights_read_once_give_the_same_bits(self):
        """A Lindblad run's fidelity reads its Pauli vectors against the
        weights <v|P_k|v>: bit for bit the sum over k, in order, of r_k times
        the level's Pauli vectors, then divided by 4, for a state of a stack
        (as a sweep reads it), in any layout, and one row at a time (as the
        crossing report reads end populations)."""
        noise = NoiseModel(t1=50.0, t2=40.0, n_th=0.01)
        psi0 = np.array([basis_state("00"), basis_state("11")])
        traj = propagate_lindblad(FIG4, 10.0, psi0, noise, n_samples=30)
        vectors = tracked_levels(FIG4, traj.times / 10.0).vectors
        for level in (1, 2, 3, 4):
            v = vectors[:, :, level - 1]
            old = pauli_vector(v)
            weights = level_weights(vectors, level)
            for r in (traj.states[:, 0], traj.states[:, 1]):
                expected = sum(r[:, k] * old[:, k] for k in range(16)) / 4.0
                for layout in (r, np.ascontiguousarray(r), np.asfortranarray(r)):
                    assert np.array_equal(pauli_fidelity(layout, weights), expected)
                rows = [pauli_fidelity(r[i:i + 1], level_weights(vectors[i:i + 1], level))[0]
                        for i in range(len(r))]
                assert np.array_equal(rows, expected)

    def test_level_bounds(self):
        traj = propagate_unitary(FIG4, 10.0, basis_state("01"), n_samples=10)
        vectors = tracked_levels(FIG4, traj.times / 10.0).vectors
        for level in (0, 5):
            with pytest.raises(ValueError):
                level_weights(vectors, level)


class TestLevelBookkeeping:
    def test_populations_sum_to_one(self):
        """The one-row fidelities of the four tracked levels at any s sum to
        1, for pure states and for the Pauli vectors of mixed states."""
        rng = np.random.default_rng(53)
        for _ in range(100):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            r = np.einsum("kij,ji->k", PAULI_BASIS, rho).real
            vectors = tracked_levels(FIG4, np.array([0.0, rng.uniform(0, 1)])).vectors
            for state in (pauli_vector(psi), r):
                pops = np.array([pauli_fidelity(state[None], level_weights(vectors[-1:], level))[0]
                                 for level in (1, 2, 3, 4)])
                assert np.all(pops >= -1e-12)
                assert np.sum(pops) == pytest.approx(1.0, abs=1e-9)

    def test_initial_levels_of_basis_states(self):
        """At s = 0 the sweep Hamiltonian is diagonal and orders the basis
        states as 00 < 01 < 10 < 11."""
        _, _, vectors = levels_on_grid(FIG4, 51)
        expected = {"00": 1, "01": 2, "10": 3, "11": 4}
        for label, level in expected.items():
            overlaps = np.abs(vectors[0].conj().T @ basis_state(label)) ** 2
            assert int(np.argmax(overlaps)) + 1 == level


class TestCrossingReport:
    def test_composition(self):
        levels = sweep_levels(FIG4)
        a, s_c, slope = crossing_report(FIG4, levels)
        assert (a, s_c) == min_gap(FIG4, levels)
        assert slope == diabatic_slope(FIG4, s_c=s_c)

    def test_invariants_enforced(self):
        a, s_c, slope = crossing_report(FIG3B, sweep_levels(FIG3B))
        assert a >= 0
        assert 0 < s_c < 1
        assert slope > 0

"""Tests for scenario runners: files written and report contents."""

import gc
import json
import math
import os
import sys
import tracemalloc
import weakref
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiasim import analysis, dynamics, mitigation, scenarios, tomography
from adiasim.analysis import _tracked_eigensystem, level_weights, pauli_fidelity, tracked_levels
from adiasim.config import validate_config
from adiasim.dynamics import basis_state, propagate_lindblad, propagate_unitary
from adiasim.operators import pauli_2q, pauli_vector
from adiasim.scenarios import (
    CHEVRON_F_CENTER,
    Unwritable,
    read_trace_config,
    run_scenario,
)
from adiasim.schedule import ProtocolSchedule, frame_rotation_angle
from adiasim.tomography import CORRELATOR_LABELS, measure_correlators
from step_loop import chirped_frame, constant_frame, reference_pure

FAST_OVERRIDES = """
[schedule]
t_ad = 2

[simulation]
dt_us = 0.005
n_samples = 4
"""


def make_config(text, out_dir):
    config, errors = validate_config(text)
    assert errors == [], errors
    return config.with_(out_dir=str(out_dir))


def load_report(path):
    return json.loads(path.read_text())


class TestSweepScenarios:
    def test_combined_crossing_scenario_writes_both_variants(self, tmp_path):
        config = make_config("[scenario]\nname = fig3\n" + FAST_OVERRIDES, tmp_path)
        paths = run_scenario(config)
        names = sorted(p.rsplit("/", 1)[1] for p in paths)
        assert names == [
            "fig3a_report.json",
            "fig3a_trace_tad2.csv",
            "fig3b_report.json",
            "fig3b_trace_tad2.csv",
        ]
        # The two variants differ only in the coupling actually used.
        a_cfg = read_trace_config(str(tmp_path / "fig3a_trace_tad2.csv"))
        b_cfg = read_trace_config(str(tmp_path / "fig3b_trace_tad2.csv"))
        assert b_cfg.j == 1.7
        assert a_cfg == b_cfg.with_(j=0.0)

    def test_sweep_report_structure(self, tmp_path):
        config = make_config(
            "[scenario]\nname = fig4\n\n[schedule]\nt_ad = 2, 4\n\n"
            "[simulation]\ndt_us = 0.005\nn_samples = 4\n", tmp_path)
        run_scenario(config)
        report = load_report(tmp_path / "fig4_report.json")
        crossing = report["crossing"]
        assert crossing["min_gap_mhz"] > 0.0
        assert 0.0 < crossing["crossing_time_us"] < 2.0
        assert crossing["slope_times_t_ad_mhz"] == pytest.approx(
            crossing["slope_mhz_per_us"] * 2.0)
        assert set(crossing["per_t_ad"]) == {"2", "4"}
        for entry in crossing["per_t_ad"].values():
            assert entry["gamma"] > 0.0
            assert 0.0 <= entry["p_diabatic_lz"] <= 1.0
            assert 0.0 <= entry["p_diabatic_measured_01"] <= 1.0
            assert 0.0 <= entry["end_fidelity_01"] <= 1.0

    def test_fidelity_column_is_the_overlap_with_the_start_level(self, tmp_path):
        """A pure run's fidelity column, read from Pauli vectors, is
        |<v|psi>|^2 of each sample's state and tracked start level."""
        config = make_config(
            "[scenario]\nname = fig4\n\n[schedule]\nt_ad = 2, 4\n\n"
            "[simulation]\ndt_us = 0.005\nn_samples = 20\n", tmp_path)
        run_scenario(config)
        schedule, psi0 = config.schedule(), basis_state("01")
        vectors = tracked_levels(schedule, np.linspace(0.0, 1.0, 21)).vectors
        for t_ad in config.t_ad:
            states = propagate_unitary(schedule, t_ad, psi0, 0.005, 20).states
            v = vectors[:, :, 1]  # |01> starts on tracked level 2
            overlap = np.abs(np.einsum("ni,ni->n", v.conj(), states)) ** 2
            table = read_columns(tmp_path / f"fig4_trace_tad{t_ad:g}.csv")
            assert np.max(np.abs(table["fidelity_01"] - overlap)) <= 1e-15

    def test_sampled_fig3_draws_each_trajectory_from_its_own_stream(self, tmp_path, monkeypatch):
        """Every (sweep, duration, state) of a sampled fig3 run draws under a
        stream key (seed, sweep, duration, state) of its own: fig3b's are not
        fig3a's."""
        streams = []
        measure = scenarios.measure_correlators

        def recorded(r, shots, seed):
            streams.append(seed)
            return measure(r, shots, seed)

        monkeypatch.setattr(scenarios, "measure_correlators", recorded)
        config = make_config(
            "[scenario]\nname = fig3\n\n[schedule]\nt_ad = 2, 3\n\n"
            "[simulation]\ndt_us = 0.005\nn_samples = 4\nshots = 100\nseed = 3\n", tmp_path)
        run_scenario(config)
        assert len(streams) == 2 * 2 * 3  # sweeps, durations, states
        assert len(set(streams)) == len(streams)
        assert {key[0] for key in streams} == {3}

    def test_lz_probability_scales_with_duration(self, tmp_path):
        config = make_config(
            "[scenario]\nname = fig4\n\n[schedule]\nt_ad = 2, 4\n\n"
            "[simulation]\ndt_us = 0.005\nn_samples = 4\n", tmp_path)
        run_scenario(config)
        per_tad = load_report(tmp_path / "fig4_report.json")["crossing"]["per_t_ad"]
        # gamma is proportional to t_ad, so the diabatic probability falls
        # geometrically when the protocol slows down.
        assert per_tad["4"]["gamma"] == pytest.approx(2.0 * per_tad["2"]["gamma"],
                                                      rel=1e-9)
        assert per_tad["4"]["p_diabatic_lz"] == pytest.approx(
            per_tad["2"]["p_diabatic_lz"] ** 2, rel=1e-9)


def sorted_level_populations(state, schedule, s):
    """Populations of the four sorted levels of H(s) in a pure state, from
    an eigh of its own."""
    _, vecs = np.linalg.eigh(schedule.hamiltonian(s))
    return np.abs(vecs.conj().T @ state) ** 2


class TestCrossingPopulations:
    @pytest.mark.parametrize("name", ["fig3a", "fig3b", "fig4"])
    def test_measured_populations_are_sorted_end_levels(self, tmp_path, name):
        """p_diabatic_measured and p_adiabatic_measured, read from the tracked
        levels at s = 1, are the populations of sorted levels 3 and 2 of H(1)."""
        config = make_config(f"[scenario]\nname = {name}\n\n[simulation]\nn_samples = 10\n",
                             tmp_path)
        run_scenario(config)
        per_t_ad = load_report(tmp_path / f"{name}_report.json")["crossing"]["per_t_ad"]
        schedule = config.schedule()
        for t_ad in config.t_ad:
            entry = per_t_ad[f"{t_ad:g}"]
            for label in config.initial_states:
                final = propagate_unitary(schedule, t_ad, basis_state(label), config.dt_us,
                                          10).states[-1]
                pops = sorted_level_populations(final, schedule, 1.0)
                assert abs(entry[f"p_diabatic_measured_{label}"] - pops[2]) <= 1e-12
                assert abs(entry[f"p_adiabatic_measured_{label}"] - pops[1]) <= 1e-12

    def test_adiabatic_population_of_01_is_its_end_fidelity(self, tmp_path):
        """In fig4, |01> starts in tracked level 2, which ends as sorted level 2:
        the report takes both keys from one entry of the end record."""
        config = make_config("[scenario]\nname = fig4\n", tmp_path)
        run_scenario(config)
        per_t_ad = load_report(tmp_path / "fig4_report.json")["crossing"]["per_t_ad"]
        for t_ad in config.t_ad:
            entry = per_t_ad[f"{t_ad:g}"]
            assert entry["p_adiabatic_measured_01"] == entry["end_fidelity_01"], t_ad

    @pytest.mark.parametrize("name, noisy", [("fig3", False), ("fig4", False), ("table1", True),
                                             ("fig4", True)])
    def test_end_record_holds_each_traces_last_fidelity(self, tmp_path, name, noisy):
        """Every end fidelity of a report equals the last fidelity_<state> of
        its trace bit for bit: the one-row end read and the trace's stacked
        read give the same bits, pure or Lindblad."""
        config = make_config(f"[scenario]\nname = {name}\n\n[schedule]\nt_ad = 1, 2, 3\n\n"
                             f"[noise]\nenabled = {str(noisy).lower()}\n\n"
                             "[simulation]\ndt_us = 0.005\nn_samples = 10\n", tmp_path)
        run_scenario(config)
        for label in ("fig3a", "fig3b") if name == "fig3" else (name,):
            report = load_report(tmp_path / f"{label}_report.json")
            for t_ad in config.t_ad:
                trace = read_columns(tmp_path / f"{label}_trace_tad{t_ad:g}.csv")
                last = {state: trace[f"fidelity_{state}"][-1] for state in config.initial_states}
                if name == "table1":
                    ends = {state: entry["end_passage_fidelity_by_t_ad"][f"{t_ad:g}"]
                            for state, entry in report["states"].items()}
                else:
                    entry = report["crossing"]["per_t_ad"][f"{t_ad:g}"]
                    ends = {state: entry[f"end_fidelity_{state}"] for state in config.initial_states}
                assert ends == last, (label, t_ad)

    def test_crossing_report_reads_no_populations_of_its_own(self, tmp_path, monkeypatch):
        """Each (duration, state) is read twice, its fidelity column at every
        point and its end populations at s = 1; the crossing report only
        indexes the end record."""
        reads = []
        monkeypatch.setattr(scenarios, "pauli_fidelity",
                            lambda r, weights: reads.append(len(r)) or pauli_fidelity(r, weights))
        config = make_config("[scenario]\nname = fig4\ninitial_states = 01, 10\n\n"
                             "[schedule]\nt_ad = 1, 2\n\n"
                             "[simulation]\ndt_us = 0.005\nn_samples = 4\n", tmp_path)
        run_scenario(config)
        assert reads == [5, 1] * 4
        assert set(load_report(tmp_path / "fig4_report.json")["crossing"]["per_t_ad"]) == {"1", "2"}


def count_eigensystems(monkeypatch):
    """Count tracked-eigensystem builds, wherever the package calls them."""
    calls = []

    def counted(schedule, times):
        calls.append(len(times))
        return _tracked_eigensystem(schedule, times)

    monkeypatch.setattr(analysis, "_tracked_eigensystem", counted)
    return calls


class TestOneEigensystemPerSweep:
    def test_fig4_tracks_once_per_sweep(self, tmp_path, monkeypatch):
        calls = count_eigensystems(monkeypatch)
        built = []
        schrodinger_generator = dynamics._schrodinger_generator
        monkeypatch.setattr(dynamics, "_schrodinger_generator",
                            lambda ham: built.append(ham) or schrodinger_generator(ham))
        config = make_config(
            "[scenario]\nname = fig4\n\n[schedule]\nt_ad = 2, 4\n\n"
            "[simulation]\ndt_us = 0.005\nn_samples = 4\n", tmp_path)
        run_scenario(config)
        # One for both durations on a 101-point grid that holds the 5
        # trajectory times; the crossing report reads the same levels.
        assert calls == [101]
        assert len(built) == 2  # G0 and G1, for both durations

    def test_fig3_tracks_once_per_sweep(self, tmp_path, monkeypatch):
        calls = count_eigensystems(monkeypatch)
        stacked = []
        for name in ("eigh", "eigvalsh"):
            solver = getattr(np.linalg, name)

            def spy(a, _solver=solver, _name=name):
                if np.ndim(a) > 2:
                    stacked.append((_name, len(a)))
                return _solver(a)

            monkeypatch.setattr(np.linalg, name, spy)
        config = make_config(
            "[scenario]\nname = fig3\n\n[schedule]\nt_ad = 2\n\n"
            "[simulation]\ndt_us = 0.005\nn_samples = 4\n", tmp_path)
        run_scenario(config)
        assert calls == [101, 101]  # fig3a, then fig3b
        # One eigen-decomposition of each shape, and no eigvalsh over the
        # 1001-point grid of analysis._GRID: the crossing report brackets
        # its minimum on the tracked levels.
        assert stacked == [("eigh", 101), ("eigh", 101)]

    def test_table1_builds_one_generator_pair_per_run(self, tmp_path, monkeypatch):
        """G0 and G1 of the Lindblad generator are built once for the run's
        three durations; each start level's weights are computed where they
        are read, once per (duration, state), and the one-point weights of
        the four levels at s = 1 once per run."""
        built, weighed = [], []
        pauli_generator, level_weights = dynamics._pauli_generator, analysis.level_weights
        monkeypatch.setattr(dynamics, "_pauli_generator",
                            lambda *args: built.append(len(args)) or pauli_generator(*args))
        monkeypatch.setattr(scenarios, "level_weights",
                            lambda vectors, level: weighed.append((len(vectors), level))
                            or level_weights(vectors, level))
        config = make_config(
            "[scenario]\nname = table1\n\n[schedule]\nt_ad = 1, 2, 3\n\n"
            "[simulation]\ndt_us = 0.005\nn_samples = 4\n", tmp_path)
        run_scenario(config)
        assert built == [2, 1]  # G0 with the collapse operators, then G1
        # |00> and |11> start on levels 1 and 4, weighed at all 5 points.
        assert sorted(weighed) == [(1, 1), (1, 2), (1, 3), (1, 4)] + [(5, 1)] * 3 + [(5, 4)] * 3
        # A new schedule of equal value builds its own pair.
        run_scenario(config)
        assert built == [2, 1, 2, 1]

    def test_table1_tracks_once_per_sweep(self, tmp_path, monkeypatch):
        calls = count_eigensystems(monkeypatch)
        config = make_config(
            "[scenario]\nname = table1\n\n[schedule]\nt_ad = 1, 2, 3\n\n"
            "[simulation]\ndt_us = 0.005\nn_samples = 4\n", tmp_path)
        run_scenario(config)
        assert calls == [101]

    @pytest.mark.parametrize("name, t_ads", [("fig4", (2.0, 4.0)), ("table1", (1.0, 2.0, 3.0))])
    def test_shared_levels_match_each_durations_own(self, tmp_path, name, t_ads):
        """The e1..e4 and fidelity columns of every duration, read from levels
        tracked once on s = linspace(0, 1), equal those of levels tracked on
        that duration's own trajectory times t / t_ad."""
        config = make_config(
            f"[scenario]\nname = {name}\n\n[schedule]\nt_ad = {', '.join(map(str, t_ads))}\n\n"
            "[simulation]\ndt_us = 0.005\nn_samples = 4\n", tmp_path)
        run_scenario(config)
        noise = config.noise_model()
        schedule = config.schedule()
        for t_ad in t_ads:
            table = read_columns(tmp_path / f"{name}_trace_tad{t_ad:g}.csv")
            levels = tracked_levels(schedule, np.linspace(0.0, t_ad, 5) / t_ad)
            energies, vectors = levels.energies, levels.vectors
            for k in range(4):
                assert np.max(np.abs(table[f"e{k + 1}_mhz"] - energies[:, k])) <= 1e-12
            for label in config.initial_states:
                psi0 = basis_state(label)
                traj = (propagate_unitary(schedule, t_ad, psi0, 0.005, 4) if noise is None
                        else propagate_lindblad(schedule, t_ad, psi0, noise, 0.005, 4))
                level = int(np.argmax(np.abs(vectors[0].conj().T @ psi0) ** 2)) + 1
                r = traj.states if noise is not None else pauli_vector(traj.states)
                fidelity = pauli_fidelity(r, level_weights(vectors, level))
                assert np.max(np.abs(table[f"fidelity_{label}"] - fidelity)) <= 1e-12


def read_columns(path):
    """The columns of a CSV trace file, by name."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return dict(zip(lines[0].split(","), values.T))


def exact_columns(states):
    """Exact <P> of each state, by the column names of a trace."""
    return {label.lower(): np.real(np.einsum("ni,ij,nj->n", states.conj(), pauli_2q(label), states))
            for label in CORRELATOR_LABELS}


class TestChirpedFrameAsSchedule:
    def test_fig1_propagates_each_frame_once_and_matches_written_out_h(self, tmp_path,
                                                                      monkeypatch):
        """fig1 propagates once, in the chirped frame, and derives the constant
        frame from it; the chirped trace matches the step loop on the
        written-out chirped H(t)."""
        calls = []
        original = scenarios.propagate_unitary

        def counted(*args, **kwargs):
            calls.append(args[1:])
            return original(*args, **kwargs)

        monkeypatch.setattr(scenarios, "propagate_unitary", counted)
        config = make_config("[scenario]\nname = fig1\n\n[simulation]\nn_samples = 100\n",
                             tmp_path)
        run_scenario(config)
        assert len(calls) == 1

        z, x, t_ad = config.z2, config.x2, config.t_ad[0]
        table = read_columns(tmp_path / "fig1_chirped_trace.csv")
        ref = reference_pure(chirped_frame(z, x, t_ad), t_ad,
                             basis_state(config.initial_states[0]), config.dt_us,
                             config.n_samples)
        assert np.max(np.abs(table["t_us"] - np.linspace(0.0, t_ad, 101))) <= 1e-12
        for column, expected in exact_columns(ref).items():
            assert np.max(np.abs(table[column] - expected)) <= 1e-12

    def test_fig1_constant_frame_matches_its_own_integration(self, tmp_path):
        """The preset's constant-frame columns, taken from the chirped states by
        the frame rotation, agree with the step loop on the constant frame's
        written-out H(t) to RK4 truncation error; the opposite sign of the
        rotation would miss by about 2."""
        config = make_config("[scenario]\nname = fig1\n", tmp_path)
        run_scenario(config)
        z, x, t_ad = config.z2, config.x2, config.t_ad[0]
        table = read_columns(tmp_path / "fig1_constant_trace.csv")
        ref = reference_pure(constant_frame(z, x, t_ad), t_ad,
                             basis_state(config.initial_states[0]), config.dt_us,
                             config.n_samples)
        for column, expected in exact_columns(ref).items():
            assert np.max(np.abs(table[column] - expected)) <= 2e-9, column

    def test_sampled_constant_frame_draws_from_its_own_stream(self, tmp_path):
        """In sampled mode the constant-frame columns are the rotated chirped
        states measured under the stream key (seed, 1, 0)."""
        config = make_config("[scenario]\nname = fig1\n\n[simulation]\nn_samples = 100\n"
                             "shots = 1000\nseed = 7\n", tmp_path)
        run_scenario(config)
        z, x, t_ad = config.z2, config.x2, config.t_ad[0]
        traj = propagate_unitary(ProtocolSchedule(z1=0.0, z2=z, x1=0.0, x2=x), t_ad,
                                 basis_state(config.initial_states[0]), config.dt_us,
                                 config.n_samples)
        theta = frame_rotation_angle(z, traj.times, t_ad)
        # exp(+i theta IZ / 2), IZ = diag(-1, 1, -1, 1).
        rotated = np.exp(0.5j * theta[:, None] * np.array([-1.0, 1.0, -1.0, 1.0])) * traj.states
        values = measure_correlators(pauli_vector(rotated), 1000, (7, 1, 0))
        table = read_columns(tmp_path / "fig1_constant_trace.csv")
        for k, label in enumerate(CORRELATOR_LABELS):
            assert np.array_equal(table[label.lower()], values[:, k]), label


class TestOnePropagationPerDuration:
    @pytest.mark.parametrize("name, propagator, states", [
        ("fig3b", "propagate_unitary", 3), ("fig4", "propagate_unitary", 1),
        ("table1", "propagate_lindblad", 2)])
    def test_states_of_a_duration_share_one_call(self, tmp_path, monkeypatch, name,
                                                 propagator, states):
        """Each duration's initial states go to the propagator as one stack."""
        calls = []
        original = getattr(scenarios, propagator)

        def counted(schedule, t_ad, psi0, *args):
            calls.append((t_ad, np.shape(psi0)))
            return original(schedule, t_ad, psi0, *args)

        monkeypatch.setattr(scenarios, propagator, counted)
        config = make_config(f"[scenario]\nname = {name}\n\n[schedule]\nt_ad = 1, 2, 3\n\n"
                             "[simulation]\ndt_us = 0.005\nn_samples = 4\n", tmp_path)
        run_scenario(config)
        assert calls == [(t_ad, (states, 4)) for t_ad in (1.0, 2.0, 3.0)]

    @pytest.mark.parametrize("name, propagator", [
        ("fig3b", "propagate_unitary"), ("table1", "propagate_lindblad")])
    def test_no_trajectory_outlives_its_duration(self, tmp_path, monkeypatch, name, propagator):
        """Each duration's states are dead when the next duration is
        propagated: the run keeps only their end rows."""
        states, alive = [], []
        original = getattr(scenarios, propagator)

        def tracked(*args):
            gc.collect()
            alive.append([ref() is not None for ref in states])
            traj = original(*args)
            states.append(weakref.ref(traj.states))
            return traj

        monkeypatch.setattr(scenarios, propagator, tracked)
        config = make_config(f"[scenario]\nname = {name}\n\n[schedule]\nt_ad = 1, 2, 3\n\n"
                             "[simulation]\ndt_us = 0.005\nn_samples = 4\n", tmp_path)
        run_scenario(config)
        assert alive == [[], [False], [False, False]]


def count_tomography_calls(monkeypatch, *names):
    """Record the length of the first argument of each call to the named
    tomography functions, wherever the package refers to them."""
    calls = {name: [] for name in names}
    for name in names:
        original = getattr(tomography, name)

        def counted(*args, _original=original, _log=calls[name], **kwargs):
            _log.append(len(args[0]))
            return _original(*args, **kwargs)

        for module in (tomography, scenarios, mitigation):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return calls


class TestColumnTomography:
    def test_fig4_measures_each_trajectory_as_one_array(self, tmp_path, monkeypatch):
        calls = count_tomography_calls(monkeypatch, "measure_correlators", "energy_terms")
        config = make_config(
            "[scenario]\nname = fig4\n\n[schedule]\nt_ad = 2, 4\n\n"
            "[simulation]\ndt_us = 0.005\nn_samples = 4\n", tmp_path)
        run_scenario(config)
        # No per-sample call: one 5-sample array per duration and state.
        assert calls == {"measure_correlators": [5, 5], "energy_terms": [5, 5]}

    def test_table1_mitigates_each_state_with_one_call(self, tmp_path, monkeypatch):
        calls = count_tomography_calls(monkeypatch, "measure_correlators", "energy_terms")
        config = make_config(
            "[scenario]\nname = table1\n\n[schedule]\nt_ad = 1, 2, 3\n\n"
            "[simulation]\ndt_us = 0.005\nn_samples = 4\n", tmp_path)
        run_scenario(config)
        # One 5-sample array per duration and state (|00> and |11>); mitigation
        # reads the end rows of those energy terms and weighs nothing again.
        assert calls == {"measure_correlators": [5] * 6, "energy_terms": [5] * 6}

    @pytest.mark.parametrize("text, trajectories", [
        ("[scenario]\nname = fig1\n\n[simulation]\nn_samples = 20\n", 2),
        ("[scenario]\nname = fig4\ninitial_states = 01, 10\n\n[schedule]\nt_ad = 2, 4\n\n"
         "[simulation]\ndt_us = 0.005\nn_samples = 20\n", 4)], ids=["fig1", "fig4"])
    def test_sampled_mode_draws_only_the_recorded_values(self, tmp_path, monkeypatch, text,
                                                         trajectories):
        """Each sampled trajectory draws one count per written correlator,
        (n_samples + 1) x 8: both fig1 frames, every (duration, state) of fig4."""
        draws = []
        binomial = tomography._binomial

        def counted(n, p, seed):
            draws.append(p.size)
            return binomial(n, p, seed)

        monkeypatch.setattr(tomography, "_binomial", counted)
        run_scenario(make_config(text + "shots = 100\nseed = 3\n", tmp_path))
        assert draws == [21 * 8] * trajectories


@pytest.fixture(scope="module")
def mitigation_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("table1")
    config = make_config(
        "[scenario]\nname = table1\n\n[schedule]\nt_ad = 1, 2, 3\n\n"
        "[simulation]\ndt_us = 0.005\nn_samples = 4\n", out)
    run_scenario(config)
    return load_report(out / "table1_report.json")


@pytest.fixture(scope="module")
def chirp_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig1")
    config = make_config(
        "[scenario]\nname = fig1\n\n[simulation]\nn_samples = 100\n", out)
    paths = run_scenario(config)
    return out, paths


@pytest.fixture(scope="module")
def calibration_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("chevron")
    config = make_config("[scenario]\nname = chevron\n", out)
    run_scenario(config)
    return load_report(out / "chevron_report.json")


class TestMitigationScenario:
    def test_noise_echo(self, mitigation_report):
        report = mitigation_report
        assert report["noise"]["enabled"] is True
        assert report["noise"]["t1_us"] == [50.0, 50.0]
        assert report["noise"]["t2_us"] == [40.0, 40.0]

    def test_per_state_entries(self, mitigation_report):
        report = mitigation_report
        assert set(report["states"]) == {"00", "11"}
        for entry in report["states"].values():
            assert set(entry["measured_by_t_ad"]) == {"1", "2", "3"}
            assert set(entry["per_term"]) == {"x1", "x2", "xx", "yy"}
            assert math.isfinite(entry["extrapolated"])
            assert entry["shortest_t_ad_value"] == entry["measured_by_t_ad"]["1"]

    def test_both_exact_variants_reported_and_one_selected(self, mitigation_report):
        report = mitigation_report
        for label in ("00", "11"):
            exact = report["states"][label]["exact"]
            assert "with_zz" in exact and "without_zz" in exact
            assert exact["closer_to_extrapolated"] in ("with_zz", "without_zz")
            assert exact["selected_value"] == exact[exact["closer_to_extrapolated"]]
            extrapolated = report["states"][label]["extrapolated"]
            chosen = abs(exact["selected_value"] - extrapolated)
            other_key = ("without_zz" if exact["closer_to_extrapolated"] == "with_zz"
                         else "with_zz")
            assert chosen <= abs(exact[other_key] - extrapolated)

    def test_exact_levels_are_end_of_protocol_eigenvalues(self, mitigation_report):
        report = mitigation_report
        exact = report["states"]["00"]["exact"]
        # End Hamiltonian is duration-independent; the with/without split
        # reflects only the static ZZ term.
        assert exact["with_zz"] != exact["without_zz"]
        assert exact["with_zz"] < 0.0
        assert report["states"]["11"]["exact"]["with_zz"] > 0.0


    def test_regime_change_warning(self, tmp_path):
        """In the default table1 the |11> runs straddle an end passage
        fidelity of 0.5 and carry the warning; the |00> runs do not."""
        config = make_config("[scenario]\nname = table1\n\n[simulation]\nn_samples = 4\n",
                             tmp_path)
        run_scenario(config)
        states = load_report(tmp_path / "table1_report.json")["states"]
        fidelities = states["11"]["end_passage_fidelity_by_t_ad"].values()
        assert min(fidelities) < 0.5 <= max(fidelities)
        assert states["11"]["warning"] == (
            "runs straddle the diabatic/adiabatic boundary (end passage "
            "fidelities span 0.5); zero-time extrapolation mixes regimes")
        assert states["00"]["warning"] is None


class TestReportLayout:
    """JSON readers take the report keys in the order they are written."""

    def test_sweep_report_key_order(self, tmp_path):
        config = make_config(
            "[scenario]\nname = fig4\ninitial_states = 01, 11\n\n[schedule]\nt_ad = 4, 2\n\n"
            "[simulation]\ndt_us = 0.005\nn_samples = 4\n", tmp_path)
        run_scenario(config)
        report = load_report(tmp_path / "fig4_report.json")
        assert list(report) == ["scenario", "version", "crossing"]
        assert list(report["crossing"]) == ["min_gap_mhz", "crossing_time_us", "slope_mhz_per_us",
                                            "slope_times_t_ad_mhz", "per_t_ad"]
        assert list(report["crossing"]["per_t_ad"]) == ["4", "2"]
        assert list(report["crossing"]["per_t_ad"]["2"]) == [
            "gamma", "p_diabatic_lz",
            "p_diabatic_measured_01", "p_adiabatic_measured_01", "end_fidelity_01",
            "p_diabatic_measured_11", "p_adiabatic_measured_11", "end_fidelity_11"]

    def test_table1_report_key_order(self, tmp_path):
        config = make_config(
            "[scenario]\nname = table1\ninitial_states = 11, 01, 00\n\n[schedule]\n"
            "t_ad = 3, 1, 2\n\n[simulation]\ndt_us = 0.005\nn_samples = 4\n", tmp_path)
        run_scenario(config)
        report = load_report(tmp_path / "table1_report.json")
        assert list(report) == ["scenario", "version", "noise", "states"]
        assert list(report["noise"]) == ["enabled", "t1_us", "t2_us", "nth"]
        assert list(report["states"]) == ["11", "01", "00"]
        for label, entry in report["states"].items():
            keys = ["measured_by_t_ad", "shortest_t_ad_value", "extrapolated", "per_term",
                    "fit_residuals", "end_passage_fidelity_by_t_ad", "warning"]
            assert list(entry) == keys + ([] if label == "01" else ["exact"])
            assert list(entry["measured_by_t_ad"]) == ["1", "2", "3"]
            assert list(entry["end_passage_fidelity_by_t_ad"]) == ["1", "2", "3"]
            assert list(entry["per_term"]) == list(entry["fit_residuals"]) == [
                "x1", "x2", "xx", "yy"]
        assert list(report["states"]["00"]["exact"]) == [
            "with_zz", "without_zz", "closer_to_extrapolated", "selected_value"]


class TestChirpScenario:
    def test_files(self, chirp_outputs):
        outputs = chirp_outputs
        out, paths = outputs
        names = sorted(p.rsplit("/", 1)[1] for p in paths)
        assert names == ["fig1_chirped_trace.csv", "fig1_constant_trace.csv",
                         "fig1_report.json"]

    def test_summary_numbers(self, chirp_outputs):
        outputs = chirp_outputs
        out, _ = outputs
        summary = load_report(out / "fig1_report.json")["summary"]
        assert summary["z_mhz"] == 3.0
        assert summary["x_mhz"] == 2.7
        # In the chirped (co-rotating) frame the drive is always along +x,
        # so the transverse spin barely leaves the xz-plane...
        assert summary["max_abs_iy_chirped"] < 0.1
        assert summary["final_ix_chirped"] > 0.95
        # ...while the constant frame shows the full spiral until the
        # recorded rotation angle is unwound in post-processing.
        assert summary["max_abs_iy_constant_raw"] > 0.5
        assert summary["max_abs_iy_rotated"] < 0.1
        assert summary["final_ix_rotated"] > 0.95

    def test_constant_trace_has_rotation_columns(self, chirp_outputs):
        outputs = chirp_outputs
        out, _ = outputs
        header = [l for l in (out / "fig1_constant_trace.csv").read_text().splitlines()
                  if not l.startswith("#")][0]
        for column in ("theta_rad", "ix_rotated", "iy_rotated"):
            assert column in header.split(",")


class TestCalibrationScenario:
    def test_rabi_fit_recovers_map_coupling(self, calibration_report):
        report = calibration_report
        assert report["map"]["j_true_mhz"] == 2.0
        fit = report["rabi_fit"]
        assert fit["j_error_relative"] < 0.01
        assert fit["f_res_error_mhz"] < 0.1
        assert fit["j_mhz"] == pytest.approx(2.0, rel=0.01)
        assert fit["f_res_mhz"] == pytest.approx(CHEVRON_F_CENTER, abs=0.1)

    def test_column_frequencies_cover_map(self, calibration_report):
        report = calibration_report
        columns = report["column_frequencies"]
        assert len(columns) == report["map"]["n_frequencies"]
        # Omega grows away from resonance, with its minimum ~ j.
        omegas = [c["omega_mhz"] for c in columns]
        assert min(omegas) == pytest.approx(2.0, rel=0.05)
        assert omegas[0] > 3.0 and omegas[-1] > 3.0

    def test_polynomial_fits_round_trip(self, calibration_report):
        report = calibration_report
        coupling = report["coupling_fit"]
        assert coupling["b1_fit"] == pytest.approx(coupling["b1_true"], abs=1e-9)
        assert coupling["b3_fit"] == pytest.approx(coupling["b3_true"], abs=1e-9)
        dispersive = report["dispersive_fit_q1"]
        assert dispersive["c2_fit"] == pytest.approx(dispersive["c2_true"], abs=1e-9)
        assert dispersive["c4_fit"] == pytest.approx(dispersive["c4_true"], abs=1e-9)

    def test_resonance_shift_consistent_with_truth_model(self, calibration_report):
        report = calibration_report
        # Only qubit 1 coefficients appear verbatim in the report, so check
        # the reported end-to-end shift for basic sanity: finite, nonzero,
        # and negative (both dispersive truths pull frequencies down, qubit
        # 1 harder than qubit 2).
        shift = report["resonance_shift_at_full_amplitude_mhz"]
        assert math.isfinite(shift)
        assert shift < 0.0


class TestTraceConfigRecovery:
    def test_invalid_embedded_config_raises(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("# adiasim-trace version=0\n"
                        "# cfg: [scenario]\n# cfg: name = fig9\n"
                        "t_us\n0.0\n")
        with pytest.raises(ValueError, match="embedded config"):
            read_trace_config(str(path))

    def test_blank_lines_without_trailing_space(self, tmp_path):
        """A trace whose blank "# cfg: " lines lost their trailing space, as
        an editor that strips trailing whitespace leaves them, still reads
        back."""
        config = make_config("[scenario]\nname = fig4\n" + FAST_OVERRIDES, tmp_path)
        path = tmp_path / "fig4_trace_tad2.csv"
        run_scenario(config)
        lines = path.read_text().splitlines()
        assert "# cfg: " in lines
        path.write_text("\n".join(line.rstrip() for line in lines) + "\n")
        assert read_trace_config(str(path)) == config

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_reads_back_with_or_without_byte_order_mark(self, tmp_path, fmt, bom):
        """A trace that an editor saved with a UTF-8 byte-order mark reads back
        as written, in both formats."""
        config = make_config(f"[scenario]\nname = fig4\n{FAST_OVERRIDES}\n[output]\n"
                             f"format = {fmt}\n", tmp_path)
        run_scenario(config)
        path = tmp_path / f"fig4_trace_tad2.{fmt}"
        path.write_bytes(bom + path.read_bytes())
        assert read_trace_config(str(path)) == config

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_reads_the_header_only(self, tmp_path, fmt):
        """Nothing after the CSV column line or the JSON "rows" key is read:
        a stray "# cfg:" line after the CSV rows and a JSON trace cut off in
        its rows leave the recovered config as written."""
        config = make_config(f"[scenario]\nname = fig4\n{FAST_OVERRIDES}\n[output]\n"
                             f"format = {fmt}\n", tmp_path)
        run_scenario(config)
        path = tmp_path / f"fig4_trace_tad2.{fmt}"
        text = path.read_text()
        if fmt == "csv":
            path.write_text(text + "# cfg: name = fig9\n")
        else:
            path.write_text(text[:text.index('"rows": [[') + 20])
        assert read_trace_config(str(path)) == config

    def test_fractional_duration_in_filename(self, tmp_path):
        config = make_config(
            "[scenario]\nname = custom\ninitial_states = 01\n\n"
            "[schedule]\nz1 = 2.5\nz2 = 1.5\nx1 = 2.0\nx2 = 4.1\nt_ad = 0.5\n\n"
            "[simulation]\ndt_us = 0.005\nn_samples = 4\n", tmp_path)
        paths = run_scenario(config)
        assert any(p.endswith("custom_trace_tad0p5.csv") for p in paths)

    def test_unwritable_directory(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        config = make_config("[scenario]\nname = chevron\n", blocker / "sub")
        with pytest.raises(Unwritable):
            run_scenario(config)


# The kernel's (comma, newline) for CSV lines and for JSON rows.
SEPARATORS = [(",", "\n"), (", ", "], [")]


def format_rows(block):
    """The reference text of each value of a 2-D array: format(v, ".16e"), row by row."""
    return [[format(v, ".16e") for v in row] for row in np.asarray(block).tolist()]


def format_text(block, comma=",", newline="\n"):
    """The reference rows of a 2-D array, each value followed by ``comma``, or
    by ``newline`` at the end of its row."""
    return "".join(comma.join(row) + newline for row in format_rows(block))


def kernel_text(block, comma=",", newline="\n"):
    block = np.asarray(block, dtype=float)
    return scenarios._lines(block, comma.encode(), newline.encode()).tobytes().decode()


def half_way_values():
    """Doubles (2n+1)/2^k whose exact decimal expansion has 18 significant
    digits, the last a 5: exact ties at 17 digits, which format() rounds
    half to even.  Every one for k >= 23, where 10**(16 - E) is not a
    double, and 20 random ones for each smaller k."""
    rng = np.random.default_rng(18)
    values = []
    for k in range(2, 26):
        first, last = -(-10**17 // 5**k), min(10**18 // 5**k, 2**53)
        odd = range(first | 1, last, 2)
        picks = odd if len(odd) <= 100 else [odd[int(i)] for i in rng.integers(0, len(odd), 20)]
        values += [n / 2**k for n in picks]
    assert all(len(Decimal(v).as_tuple().digits) == 18 and Decimal(v).as_tuple().digits[-1] == 5
               for v in values)
    return values


def near_half_way_values():
    """Doubles whose scaled value y = |v| * 10**(16 - E) lies within 1e-9 of
    a half-integer without being one, so that their 18th digit is a 5 (or a
    4) followed by nines (or zeros).  10**(16 - E) is not a double for any of
    them, so the kernel computes y with a rounding error.  Small values are
    v = n / 2**(m + s), with y = n * 5**m / 2**s; large ones are
    v = n * 2**(t + m - 1), with y = n * 2**(t - 1) / 5**m."""
    values = []
    for m in range(23, 48):
        for s in range(30, 54):
            for offset in (1, -1):
                n = (2**(s - 1) + offset) * pow(5**m, -1, 2**s) % 2**s
                n += max(0, -(-(-(-10**16 * 2**s // 5**m) - n) // 2**s)) * 2**s
                stop = min(2**53, -(-10**17 * 2**s // 5**m))
                values += [n / 2**(m + s) for n in range(n, stop, 2**s)[:4]]
    for m in (22, 23, 24):
        for t in range(30, 60):
            for offset in (1, -1):
                odd = -offset * pow(5**m, -1, 2**t) % 2**t  # 2D + 1 modulo 2**t
                first = odd + -(-(2 * 10**16 - odd) // 2**t) * 2**t
                for two_d in range(first, 2 * 10**17, 2**t)[:4]:
                    n = (two_d * 5**m + offset) // 2**t
                    if n < 2**53:
                        values.append(float(n * 2**(t + m - 1)))
    for v in values:
        y = Fraction(v) * Fraction(10) ** (16 - math.floor(math.log10(v)))
        assert 0 < abs(y - math.floor(y) - Fraction(1, 2)) < 1e-9, v
    return values


def powers_of_ten():
    """float(1e{k}) for every k that gives a nonzero double, and its neighbours."""
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    return np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])


def neighbours(values):
    """Each value and the doubles one ulp below and above it."""
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):
        around = [values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)]
    around = np.concatenate(around)
    return around[np.isfinite(around)]


FAMILIES = {
    "signed-zeros": [0.0, -0.0],
    "subnormals": [5e-324, -5e-324, 2.2250738585072009e-308, 1.5e-310, -4.9406564584124654e-322],
    "extremes": [sys.float_info.max, -sys.float_info.max, sys.float_info.min,
                 -sys.float_info.min],
    "powers-of-ten": powers_of_ten(),
    "half-way": half_way_values(),
    "near-half-way": near_half_way_values(),
    "smallest-and-largest": neighbours([5e-324, sys.float_info.min, sys.float_info.max]),
    "powers-of-two": neighbours(np.ldexp(1.0, np.arange(-1074, 1024))),
    "tenths": np.concatenate([np.arange(-1000, 1001) * 0.1, [1092.5, -1092.5]]),
    "layout-switches": neighbours(np.concatenate([
        np.linspace(9e-6, 1.1e-5, 41), np.linspace(9e-5, 1.1e-4, 41), [1e-5, 1e-4, 1e16, 1e17],
        np.linspace(9.9e15, 1.01e16, 41), np.linspace(9.9e16, 1.01e17, 41)])),
    "integers": neighbours(np.concatenate([
        np.arange(-1000, 1001), np.random.default_rng(24).integers(-2**53, 2**53, 2000),
        [2.0**53, 2.0**53 - 1, 10.0**15, 10.0**15 - 1, 123456789012345.0]])),
    # Groups of 4 digits after the lead that are all zeros or all nines.
    "digit-groups": [float(f"{mantissa}e{k}") for k in [*range(-99, 100), -100]
                     for mantissa in ("1.0000999900009999", "9.9999000099990000",
                                      "1.9999000099990000", "9.0000999900009999")],
}


def family_blocks(family):
    """The family's values and their negatives, in one column and in three."""
    values = np.asarray(FAMILIES[family], dtype=float)
    for width in (1, 3):
        block = np.resize(values, (-(-len(values) // width), width))
        yield np.concatenate([block, -block])


FINITE_ROWS = st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                min_size=3, max_size=3), min_size=1, max_size=20)


class TestCsvFormatting:
    """The vectorized row kernel against format(v, ".16e"), with the CSV and
    the JSON separators."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_families(self, family):
        for block in family_blocks(family):
            for comma, newline in SEPARATORS:
                assert kernel_text(block, comma, newline) == format_text(block, comma, newline)

    def test_digit_tables(self):
        groups = [scenarios._GROUPS[k].tobytes() for k in range(10**4)]
        assert groups == [b"%04d" % k for k in range(10**4)]
        exponents = [word.tobytes() for word in scenarios._EXPONENTS]
        assert exponents == [b"e%+03d" % e for e in range(-99, 100)]

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(FINITE_ROWS)
    def test_finite_floats(self, rows):
        for comma, newline in SEPARATORS:
            assert kernel_text(rows, comma, newline) == format_text(rows, comma, newline)


class TestCsvWriter:
    @pytest.fixture
    def config(self, tmp_path):
        return make_config("[scenario]\nname = fig4\n", tmp_path)

    @pytest.mark.parametrize("rows", [1, scenarios._BLOCK_ROWS, scenarios._BLOCK_ROWS + 1],
                             ids=["one-row", "one-block", "block-plus-one"])
    def test_block_edges(self, tmp_path, config, rows):
        table = np.random.default_rng(rows).normal(size=(rows, 3)) * [1.0, 1e-20, 1e5]
        path = str(tmp_path / "trace.csv")
        scenarios._write_trace(path, config, "fig4", 2.0, ["a", "b", "c"], table)
        with open(scenarios._staged(path), encoding="utf-8") as handle:
            text = handle.read()
        assert text.endswith("\na,b,c\n" + format_text(table))

    def test_memory_bounded_by_one_block(self, tmp_path, config):
        """A 50 000-row table is written with no more memory than one block:
        its text alone would take 50 000 * 39 * 24 bytes (47 MB)."""
        def peak(rows):
            table = np.random.default_rng(rows).normal(size=(rows, 39))
            tracemalloc.start()
            try:
                scenarios._write_trace(str(tmp_path / "trace.csv"), config, "fig4", 2.0,
                                       [f"c{k}" for k in range(39)], table)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(50_000) <= 1.1 * peak(scenarios._BLOCK_ROWS)


def json_rows(block):
    """The JSON list of a 2-D array's rows, spliced from the kernel's rows as
    _write_trace splices them."""
    return json.loads("[[" + kernel_text(block, ", ", "], [")[:-3] + "]")


def same_doubles(rows, table):
    """Equal floats, the signs of zeros included."""
    return rows == table.tolist() and np.array_equal(np.signbit(rows), np.signbit(table))


class TestJsonFormatting:
    """JSON rows read back as the very doubles they were written from."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_families(self, family):
        for block in family_blocks(family):
            assert same_doubles(json_rows(block), block)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(FINITE_ROWS)
    def test_finite_floats(self, rows):
        assert same_doubles(json_rows(rows), np.asarray(rows))


class TestJsonWriter:
    @pytest.fixture
    def config(self, tmp_path):
        return make_config("[scenario]\nname = chevron\n\n[output]\nformat = json\n", tmp_path)

    @pytest.mark.parametrize("rows", [1, scenarios._BLOCK_ROWS, scenarios._BLOCK_ROWS + 1],
                             ids=["one-row", "one-block", "block-plus-one"])
    def test_block_edges(self, tmp_path, config, rows):
        """The text before "rows" is json.dumps of the other keys, each value
        is written as format(v, ".16e"), and the rows read back as the table."""
        table = np.random.default_rng(rows).normal(size=(rows, 3)) * [1.0, 1e-20, 1e5]
        table[-1, 1] = -0.0
        path = str(tmp_path / "trace.json")
        scenarios._write_trace(path, config, "chevron", 2.0, ["a", "b", "c"], table)
        with open(scenarios._staged(path), encoding="utf-8") as handle:
            text = handle.read()
        head = {"format": "adiasim-trace", "version": scenarios.__version__,
                "scenario": "chevron", "t_ad_us": 2.0, "seed": config.seed,
                "config": config.to_text(), "columns": ["a", "b", "c"]}
        rows = "], [".join(", ".join(row) for row in format_rows(table))
        assert text == f'{json.dumps(head)[:-1]}, "rows": [[{rows}]]}}\n'
        assert same_doubles(json.loads(text)["rows"], table)
        os.replace(scenarios._staged(path), path)
        assert read_trace_config(path) == config

    def test_memory_bounded_by_one_block(self, tmp_path, config):
        """A 50 000-row table is written with no more memory than one block:
        json.dumps would first build its list of 1.95 million floats."""
        def peak(rows):
            table = np.random.default_rng(rows).normal(size=(rows, 39))
            tracemalloc.start()
            try:
                scenarios._write_trace(str(tmp_path / "trace.json"), config, "chevron", 2.0,
                                       [f"c{k}" for k in range(39)], table)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(50_000) <= 1.1 * peak(scenarios._BLOCK_ROWS)

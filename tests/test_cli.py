"""End-to-end tests for the command-line runner and its output files."""

import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adiasim import scenarios
from adiasim.cli import main
from adiasim.config import SCENARIO_NAMES, validate_config
from adiasim.operators import PAULI_LABELS_2Q
from adiasim.scenarios import read_trace_config

CUSTOM_SMALL = """\
[scenario]
name = custom
initial_states = 01

[schedule]
z1 = 2.5
z2 = 1.5
x1 = 2.0
x2 = 4.1
j = 1.7
zz = 0.2
t_ad = 1

[simulation]
dt_us = 0.01
n_samples = 5
"""

STIFF_CONFIG = """\
[scenario]
name = custom
initial_states = 01

[schedule]
z1 = 400
z2 = 1.5
x1 = 2.0
x2 = 4.1
t_ad = 1

[simulation]
dt_us = 0.01
n_samples = 5
"""

# A sweep whose huge x1 makes RK4 diverge within the first sample interval.
DIVERGING_FIG4 = """\
[scenario]
name = fig4

[schedule]
x1 = 1e6
z2 = 1e-9
t_ad = 0.5, 1, 2

[simulation]
n_samples = 9
"""

FLOAT_FIELD = re.compile(r"^-?\d\.\d{16}e[+-]\d{2,3}$")


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def data_lines(path) -> list:
    """CSV payload: everything that is neither comment nor column header."""
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return lines[1:]


def masked_bytes(path) -> str:
    """File content with the embedded output-directory echo removed."""
    return "\n".join(l for l in path.read_text().splitlines()
                     if not l.startswith("# cfg: directory ="))


class TestRunCommand:
    def test_builtin_scenario(self, tmp_path, capsys):
        rc = main(["run", "--scenario", "chevron", "--out", str(tmp_path / "o")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "scenario chevron: wrote 2 files" in out
        assert (tmp_path / "o" / "chevron_map.csv").exists()
        assert (tmp_path / "o" / "chevron_report.json").exists()

    def test_config_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CUSTOM_SMALL)
        rc = main(["run", cfg, "--out", str(tmp_path / "o")])
        assert rc == 0
        assert (tmp_path / "o" / "custom_trace_tad1.csv").exists()
        assert (tmp_path / "o" / "custom_report.json").exists()

    def test_scenario_flag_overrides_config_name(self, tmp_path):
        cfg = write_config(tmp_path, "[scenario]\nname = fig3a\n\n"
                                     "[schedule]\nt_ad = 2\n\n"
                                     "[simulation]\ndt_us = 0.005\nn_samples = 4\n")
        rc = main(["run", cfg, "--scenario", "fig3b", "--out", str(tmp_path / "o")])
        assert rc == 0
        assert (tmp_path / "o" / "fig3b_trace_tad2.csv").exists()

    def test_requires_config_or_scenario(self, capsys):
        rc = main(["run"])
        assert rc == 2
        assert "provide a config file" in capsys.readouterr().err

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[scenario]\nname = fig4\n\n"
                                     "[simulation]\ndt_us = 0.06\n")
        rc = main(["run", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "dt too large" in capsys.readouterr().err

    def test_numeric_failure_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, STIFF_CONFIG)
        rc = main(["run", cfg, "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "run failed (StepTooLarge)" in err
        assert "reduce dt" in err

    def test_diverging_run_exits_3_without_numpy_warnings(self, tmp_path, capsys):
        cfg = write_config(tmp_path, DIVERGING_FIG4)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["run", cfg, "--out", str(tmp_path / "o")])
        assert rc == 3
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert "run failed (StepTooLarge)" in err
        assert "Warning" not in err

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[scenario]\nname = fig1\n\n"
                                     "[simulation]\nshots = 10000\nseed = -1\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "simulation.seed: must be >= 0" in capsys.readouterr().err
        cfg = write_config(tmp_path, CUSTOM_SMALL + "shots = 100\n", "sampled.ini")
        assert main(["run", cfg, "--seed", "-1", "--out", str(tmp_path / "o")]) == 2
        assert "--seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_table1_with_two_durations_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[scenario]\nname = table1\n\n"
                                     "[schedule]\nt_ad = 5.0, 10.0\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "at least 3 distinct durations" in capsys.readouterr().err

    @pytest.mark.parametrize("j", ["0.0", "-1.0"])
    def test_chevron_without_positive_coupling_exits_2(self, tmp_path, capsys, j):
        cfg = write_config(tmp_path, f"[scenario]\nname = chevron\n\n[schedule]\nj = {j}\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "schedule.j: chevron needs a positive coupling" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("n_samples, code", [(1, 2), (2, 2), (3, 0)])
    def test_chevron_needs_four_times(self, tmp_path, capsys, n_samples, code):
        cfg = write_config(tmp_path, "[scenario]\nname = chevron\n\n"
                                     f"[simulation]\nn_samples = {n_samples}\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == code
        assert ("simulation.n_samples: chevron" in capsys.readouterr().err) == (code == 2)

    @pytest.mark.parametrize("n_samples, rows", [(1, 2), (2, 3)])
    def test_fewest_samples_write_every_trace(self, tmp_path, n_samples, rows):
        cfg = write_config(tmp_path, "[scenario]\nname = fig4\n\n"
                                     "[schedule]\nt_ad = 1, 2\n\n"
                                     f"[simulation]\ndt_us = 0.01\nn_samples = {n_samples}\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 0
        for name in ("fig4_trace_tad1.csv", "fig4_trace_tad2.csv"):
            assert len(data_lines(tmp_path / "o" / name)) == rows

    def test_one_sample_of_uncoupled_sweep_tracks_levels(self, tmp_path):
        """One trajectory step: every overlap between the Z and X eigenbases
        is 0.5, so the levels are tracked on a finer grid through it."""
        cfg = write_config(tmp_path, "[scenario]\nname = custom\n\n[schedule]\n"
                                     "z1 = 2.5\nz2 = 1.5\nx1 = 2.0\nx2 = 4.1\n"
                                     "j = 0\nzz = 0\nt_ad = 2\n\n"
                                     "[simulation]\nn_samples = 1\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 0
        rows = [[float(v) for v in line.split(",")]
                for line in data_lines(tmp_path / "o" / "custom_trace_tad2.csv")]
        assert len(rows) == 2 and all(math.isfinite(v) for row in rows for v in row)

    @pytest.mark.parametrize("target, result, unwritten", [
        ("lz_probability", (math.nan, math.nan), "fig4_report.json"),
        ("energy_terms", np.full((5, 6), math.nan), "fig4_trace_tad1.csv"),
    ])
    def test_non_finite_output_exits_3(self, tmp_path, capsys, monkeypatch,
                                       target, result, unwritten):
        monkeypatch.setattr(scenarios, target, lambda *args, **kwargs: result)
        cfg = write_config(tmp_path, "[scenario]\nname = fig4\n\n[schedule]\nt_ad = 1\n\n"
                                     "[simulation]\ndt_us = 0.01\nn_samples = 4\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "run failed (NonFiniteOutput)" in capsys.readouterr().err
        assert not (tmp_path / "o" / unwritten).exists()

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        rc = main(["run", "--scenario", "chevron",
                   "--out", str(blocker / "sub")])
        assert rc == 3
        assert "run failed (Unwritable)" in capsys.readouterr().err


class TestTraceFiles:
    def test_row_count_and_monotone_time(self, tmp_path):
        cfg = write_config(tmp_path, CUSTOM_SMALL)
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 0
        trace = tmp_path / "o" / "custom_trace_tad1.csv"
        rows = data_lines(trace)
        assert len(rows) == 5 + 1
        times = [float(r.split(",")[0]) for r in rows]
        assert times == sorted(times)
        assert len(set(times)) == len(times)
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(1.0)

    def test_columns_cover_levels_correlators_fidelity(self, tmp_path):
        cfg = write_config(tmp_path, CUSTOM_SMALL)
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 0
        trace = tmp_path / "o" / "custom_trace_tad1.csv"
        header = [l for l in trace.read_text().splitlines()
                  if not l.startswith("#")][0]
        columns = header.split(",")
        assert columns[0] == "t_us"
        for name in ("e1_mhz", "e4_mhz", "energy_01_mhz", "zi_01", "xx_01",
                     "fidelity_01"):
            assert name in columns

    def test_header_round_trips_to_effective_config(self, tmp_path):
        cfg = write_config(tmp_path, CUSTOM_SMALL)
        out = str(tmp_path / "o")
        assert main(["run", cfg, "--out", out]) == 0
        expected, errors = validate_config(CUSTOM_SMALL)
        assert errors == []
        expected = expected.with_(out_dir=out)
        recovered = read_trace_config(str(tmp_path / "o" / "custom_trace_tad1.csv"))
        assert recovered == expected

    def test_csv_fields_lossless(self, tmp_path):
        cfg = write_config(tmp_path, CUSTOM_SMALL)
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 0
        trace = tmp_path / "o" / "custom_trace_tad1.csv"
        for row in data_lines(trace):
            for field in row.split(","):
                assert FLOAT_FIELD.match(field), field
                assert format(float(field), ".16e") == field
                assert math.isfinite(float(field))

    def test_json_format(self, tmp_path):
        cfg = write_config(tmp_path, CUSTOM_SMALL + "\n[output]\nformat = json\n")
        out = str(tmp_path / "o")
        assert main(["run", cfg, "--out", out]) == 0
        trace = tmp_path / "o" / "custom_trace_tad1.json"
        payload = json.loads(trace.read_text())
        assert payload["format"] == "adiasim-trace"
        assert payload["scenario"] == "custom"
        assert len(payload["rows"]) == 5 + 1
        assert len(payload["columns"]) == len(payload["rows"][0])
        recovered = read_trace_config(str(trace))
        assert recovered.format == "json"
        assert recovered.out_dir == out


class TestDeterminism:
    def test_exact_mode_identical_across_runs_and_seeds(self, tmp_path):
        cfg = write_config(tmp_path, CUSTOM_SMALL)
        assert main(["run", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["run", cfg, "--out", str(tmp_path / "b")]) == 0
        # Exact mode never draws random numbers, so --seed must not matter.
        assert main(["run", cfg, "--out", str(tmp_path / "c"), "--seed", "99"]) == 0
        ref = masked_bytes(tmp_path / "a" / "custom_trace_tad1.csv")
        for sub in ("b", "c"):
            assert masked_bytes(tmp_path / sub / "custom_trace_tad1.csv") == ref

    def test_sampled_mode_seed_dependence(self, tmp_path):
        cfg = write_config(tmp_path, CUSTOM_SMALL + "shots = 200\nseed = 1\n")
        assert main(["run", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["run", cfg, "--out", str(tmp_path / "b")]) == 0
        assert main(["run", cfg, "--out", str(tmp_path / "c"), "--seed", "2"]) == 0
        ref = masked_bytes(tmp_path / "a" / "custom_trace_tad1.csv")
        assert masked_bytes(tmp_path / "b" / "custom_trace_tad1.csv") == ref
        assert masked_bytes(tmp_path / "c" / "custom_trace_tad1.csv") != ref

    def test_sampled_fig1_reproducible_and_near_exact(self, tmp_path):
        """A sampled fig1 run repeats byte for byte, and every correlator lies
        within 6/sqrt(shots) of the exact run's value."""
        shots = 1000
        text = "[scenario]\nname = fig1\n\n[simulation]\nn_samples = 100\n"
        sampled = write_config(tmp_path, text + f"shots = {shots}\nseed = 5\n", "sampled.ini")
        for sub in ("a", "b"):
            assert main(["run", sampled, "--out", str(tmp_path / sub)]) == 0
        assert main(["run", write_config(tmp_path, text), "--out", str(tmp_path / "exact")]) == 0
        report = "fig1_report.json"
        assert (tmp_path / "a" / report).read_bytes() == (tmp_path / "b" / report).read_bytes()
        for frame in ("chirped", "constant"):
            name = f"fig1_{frame}_trace.csv"
            assert masked_bytes(tmp_path / "a" / name) == masked_bytes(tmp_path / "b" / name)
            values, exact = (np.array([[float(v) for v in line.split(",")]
                                       for line in data_lines(tmp_path / sub / name)])
                             for sub in ("a", "exact"))
            correlators = slice(1, 1 + len(PAULI_LABELS_2Q))
            assert np.array_equal(values[:, 0], exact[:, 0])
            assert np.max(np.abs(values[:, correlators] - exact[:, correlators])) \
                <= 6.0 / math.sqrt(shots)

    def test_embedded_seed_reflects_canonicalization(self, tmp_path):
        cfg = write_config(tmp_path, CUSTOM_SMALL + "seed = 7\n")
        assert main(["run", cfg, "--out", str(tmp_path / "a")]) == 0
        recovered = read_trace_config(str(tmp_path / "a" / "custom_trace_tad1.csv"))
        assert recovered.shots == 0
        assert recovered.seed == 0


class TestOutputDirPrecedence:
    def test_env_variable_used_without_flag(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("ADIASIM_OUT_DIR", str(env_dir))
        cfg = write_config(tmp_path, CUSTOM_SMALL)
        assert main(["run", cfg]) == 0
        assert (env_dir / "custom_trace_tad1.csv").exists()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "from_env"
        flag_dir = tmp_path / "from_flag"
        monkeypatch.setenv("ADIASIM_OUT_DIR", str(env_dir))
        cfg = write_config(tmp_path, CUSTOM_SMALL)
        assert main(["run", cfg, "--out", str(flag_dir)]) == 0
        assert (flag_dir / "custom_trace_tad1.csv").exists()
        assert not env_dir.exists()

    def test_config_directory_is_fallback(self, tmp_path, monkeypatch):
        monkeypatch.delenv("ADIASIM_OUT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, CUSTOM_SMALL + "\n[output]\ndirectory = here\n")
        assert main(["run", cfg]) == 0
        assert (tmp_path / "here" / "custom_trace_tad1.csv").exists()


class TestValidateCommand:
    def test_valid_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CUSTOM_SMALL)
        rc = main(["validate", cfg])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("valid config; effective settings:")
        effective = out.split("\n", 1)[1]
        config, errors = validate_config(effective)
        assert errors == []
        assert config.name == "custom"

    def test_invalid_file_lists_every_problem(self, tmp_path, capsys):
        cfg = write_config(tmp_path,
                           "[scenario]\nname = fig4\ninitial_states = 01, 02\n\n"
                           "[simulation]\ndt_us = 0.06\n")
        rc = main(["validate", cfg])
        assert rc == 2
        err = capsys.readouterr().err
        assert "invalid config (2 problem(s)):" in err
        assert "dt too large" in err
        assert "unknown state '02'" in err

    @pytest.mark.parametrize("noise, key", [("nth = inf, 0.01", "noise.nth"),
                                            ("t1_us = nan, 50", "noise.t1_us"),
                                            ("t2_us = -inf", "noise: qubit 1")])
    def test_non_finite_noise_exits_2(self, tmp_path, capsys, noise, key):
        cfg = write_config(tmp_path, f"[scenario]\nname = table1\n\n[noise]\n{noise}\n")
        assert main(["validate", cfg]) == 2
        assert key in capsys.readouterr().err

    def test_unbounded_n_samples_exits_2(self, tmp_path, capsys):
        """Validation caps n_samples before any grid is allocated; only the
        validator sees these values, nothing is run at or above the cap."""
        cfg = write_config(tmp_path, "[scenario]\nname = fig4\n\n"
                                     "[simulation]\nn_samples = 1000000000\n")
        assert main(["validate", cfg]) == 2
        assert "simulation.n_samples: must be in 1..100000" in capsys.readouterr().err
        config, errors = validate_config("[scenario]\nname = fig4\n\n"
                                         "[simulation]\nn_samples = 100000\n")
        assert errors == [] and config.n_samples == 100000
        _, errors = validate_config("[scenario]\nname = table1\n\n"
                                    "[simulation]\nn_samples = 100001\n")
        assert any("simulation.n_samples" in e for e in errors)

    def test_unbounded_rk4_work_exits_2(self, tmp_path, capsys):
        """About 6.5e10 steps over table1's durations; only the validator
        sees this, nothing is run near the bound."""
        cfg = write_config(tmp_path, "[scenario]\nname = table1\n\n"
                                     "[simulation]\ndt_us = 1e-9\n")
        assert main(["validate", cfg]) == 2
        assert "simulation.dt_us: 1e-09 needs 6.5e+10 RK4 steps" in capsys.readouterr().err
        _, errors = validate_config("[scenario]\nname = fig4\n\n[simulation]\ndt_us = 5e-324\n")
        assert any(e.startswith("simulation.dt_us") for e in errors)

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["validate", str(tmp_path / "absent.ini")])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err


class TestIntrospection:
    def test_list_scenarios(self, capsys):
        rc = main(["list-scenarios"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in SCENARIO_NAMES:
            assert re.search(rf"^{name}\s", out, re.MULTILINE), name

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert re.match(r"adiasim \d+\.\d+", capsys.readouterr().out)

    def test_run_imports_no_scipy(self, tmp_path):
        """A run loads numpy only, and an exact run not even numpy.random
        (a lazy import of about 20 ms); run in a fresh interpreter because
        other tests may have imported both into this one."""
        cfg = write_config(tmp_path, "[scenario]\nname = fig4\n\n[schedule]\nt_ad = 2\n\n"
                                     "[simulation]\nn_samples = 4\n")
        code = ("import sys\n"
                "import adiasim.cli\n"
                f"assert adiasim.cli.main(['run', {cfg!r}, '--out', {str(tmp_path / 'o')!r}]) == 0\n"
                "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
                "print('numpy.random' in sys.modules)\n")
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-2:] == ["[]", "False"]

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "adiasim.cli", "list-scenarios"],
            capture_output=True, text=True, timeout=60)
        assert result.returncode == 0
        assert "fig4" in result.stdout


# Schedule values at the edges of the accepted range: zero, negative, tiny,
# large finite and non-finite.  ``None`` keeps the scenario's preset.
EDGE_VALUES = st.one_of(st.sampled_from(["0", "-1", "1e-9", "1e6", "inf", "nan"]), st.none())
# Edge values of the other sections' fields.  dt_us = 1e-9 needs more than
# 1e8 RK4 steps for every drawn t_ad, so validation stops it before any run.
OTHER_EDGES = st.fixed_dictionaries({
    ("noise", "t1_us"): EDGE_VALUES,
    ("noise", "t2_us"): EDGE_VALUES,
    ("noise", "nth"): EDGE_VALUES,
    ("simulation", "dt_us"): st.one_of(
        st.sampled_from(["0", "-1", "1e-9", "0.005", "inf", "nan"]), st.none()),
    ("simulation", "shots"): st.one_of(st.sampled_from(["0", "-1", "1", "1000"]), st.none()),
    ("simulation", "seed"): st.one_of(st.sampled_from(["0", "-1", "7"]), st.none()),
    ("output", "format"): st.one_of(st.sampled_from(["csv", "json", "xml"]), st.none()),
})
NON_FINITE_TOKEN = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
# The config echoed into each file (`# cfg:` lines, the JSON "config" string)
# spells a valid infinite T1 or T2 as inf; only the rest must be finite.
CONFIG_ECHO = re.compile(r'^# cfg: .*$|"config": "(?:[^"\\]|\\.)*"', re.MULTILINE)
NO_FIELDS = dict.fromkeys(("z1", "z2", "x1", "x2", "j", "zz"))


class TestExitCodeContract:
    # The explicit examples are a chevron run that only its coupling makes
    # invalid, a fig1 run whose chirped-frame sweep diverges, a table1 run
    # whose three durations share one eigensystem, a table1 run whose thermal
    # occupation makes the Lindblad steps diverge (exit 3), and a sampled fig1
    # run and a three-duration fig4 run that both exit 0.  Generated ones
    # mostly stop earlier in validation: most edge values of the noise and
    # simulation fields are out of bounds.
    @settings(derandomize=True, max_examples=100, deadline=None)
    @example(name="chevron", fields=dict(NO_FIELDS, j="0"), t_ad="2", n_samples=4, other={})
    @example(name="fig1", fields=dict(NO_FIELDS, x2="1e6"), t_ad="0.5, 1, 2", n_samples=4,
             other={})
    @example(name="table1", fields=NO_FIELDS, t_ad="0.5, 1, 2", n_samples=4, other={})
    @example(name="table1", fields=NO_FIELDS, t_ad="0.5, 1, 2", n_samples=4,
             other={("noise", "nth"): "1e6"})
    @example(name="fig1", fields=NO_FIELDS, t_ad="2", n_samples=4,
             other={("simulation", "shots"): "1000", ("output", "format"): "json"})
    @example(name="fig4", fields=NO_FIELDS, t_ad="0.5, 1, 2", n_samples=4, other={})
    @given(name=st.sampled_from(["chevron", "fig4", "fig1", "table1"]),
           fields=st.fixed_dictionaries({key: EDGE_VALUES for key in NO_FIELDS}),
           t_ad=st.sampled_from(["2", "1", "0.5", "0.5, 1, 2"]),
           n_samples=st.integers(min_value=1, max_value=10),
           other=OTHER_EDGES)
    def test_run_exits_0_2_or_3_and_writes_only_finite_values(self, name, fields,
                                                              t_ad, n_samples, other):
        sections = {"schedule": "", "noise": "", "simulation": f"n_samples = {n_samples}\n",
                    "output": ""}
        drawn = {**{("schedule", key): value for key, value in fields.items()}, **other}
        for (section, key), value in drawn.items():
            if value is not None:
                sections[section] += f"{key} = {value}\n"
        sections["schedule"] += f"t_ad = {t_ad}\n"
        text = f"[scenario]\nname = {name}\n" + "".join(
            f"\n[{section}]\n{body}" for section, body in sections.items())
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "run.ini")
            with open(cfg, "w") as handle:
                handle.write(text)
            out = os.path.join(tmp, "o")
            assert main(["run", cfg, "--out", out]) in (0, 2, 3)
            for file_name in os.listdir(out) if os.path.isdir(out) else ():
                with open(os.path.join(out, file_name)) as handle:
                    data = CONFIG_ECHO.sub("", handle.read())
                    assert not NON_FINITE_TOKEN.search(data), file_name

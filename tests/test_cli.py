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

import adiasim
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

# table1 with a large x2, where the Lindblad RK4 steps at dt_us = 0.01 leave
# their stability region and the correlators grow outside [-1, 1].
UNSTABLE_TABLE1 = """\
[scenario]
name = table1

[schedule]
x2 = {x2}
t_ad = 1, 2, 3

[simulation]
dt_us = 0.01
n_samples = 20
"""

# The environment of a fresh interpreter that imports the same package as
# these tests, installed or not.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(adiasim.__file__))
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))}

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

    def test_option_forms(self, tmp_path):
        """``--out=DIR``, a unique prefix of a long option, and options before
        the config all run."""
        assert main(["run", f"--out={tmp_path / 'a'}", "--sc", "fig4"]) == 0
        assert (tmp_path / "a" / "fig4_report.json").exists()
        cfg = write_config(tmp_path, CUSTOM_SMALL)
        assert main(["run", "--out", str(tmp_path / "b"), cfg]) == 0
        assert (tmp_path / "b" / "custom_report.json").exists()

    def test_unknown_scenario_exits_2_from_validation(self, capsys):
        assert main(["run", "--scenario", "bogus"]) == 2
        assert "unknown scenario 'bogus'; choose from fig1," in capsys.readouterr().err

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

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_bytes(b"\xff\xfe" + CUSTOM_SMALL.encode())
        rc = main(["run", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "config error: cannot read" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_with_byte_order_mark(self, tmp_path, capsys):
        """A config that an editor saved with a UTF-8 byte-order mark
        validates, and runs to the same files as without the mark."""
        text = "[scenario]\nname = fig4\n\n[schedule]\nt_ad = 1, 2\n\n[simulation]\nn_samples = 5\n"
        plain = write_config(tmp_path, text, "plain.ini")
        marked = tmp_path / "marked.ini"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert main(["validate", str(marked)]) == 0
        assert main(["run", plain, "--out", str(tmp_path / "plain")]) == 0
        assert main(["run", str(marked), "--out", str(tmp_path / "marked")]) == 0
        names = sorted(os.listdir(tmp_path / "plain"))
        assert sorted(os.listdir(tmp_path / "marked")) == names
        for name in names:
            assert masked_bytes(tmp_path / "marked" / name) == masked_bytes(tmp_path / "plain" / name)

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

    @pytest.mark.parametrize("x2", ["55", "60"])
    def test_correlator_out_of_range_exits_3(self, tmp_path, capsys, x2):
        cfg = write_config(tmp_path, UNSTABLE_TABLE1.format(x2=x2))
        rc = main(["run", cfg, "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "run failed (CorrelatorOutOfRange)" in err
        assert "outside [-1, 1] range" in err
        assert "Traceback" not in err

    def test_sampled_correlator_out_of_range_exits_3(self, tmp_path, capsys):
        """A sampled run checks its exact correlators before it samples them."""
        cfg = write_config(tmp_path, UNSTABLE_TABLE1.format(x2=55) + "shots = 1000\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "run failed (CorrelatorOutOfRange)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("field, other", [("t1_us", "t2_us"), ("t2_us", "t1_us")])
    def test_table1_with_infinite_noise_time_writes_null(self, tmp_path, field, other):
        """An infinite T1 or T2 disables its channel; the report writes it as null."""
        cfg = write_config(tmp_path, "[scenario]\nname = table1\n\n"
                                     "[schedule]\nt_ad = 0.5, 1, 2\n\n"
                                     f"[noise]\n{field} = inf\n\n"
                                     "[simulation]\nn_samples = 4\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 0
        noise = json.loads((tmp_path / "o" / "table1_report.json").read_text())["noise"]
        assert noise[field] == [None, None]
        assert all(math.isfinite(t) for t in noise[other] + noise["nth"])

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

    @pytest.mark.parametrize("field", ["j = 1e300", "t_ad = 1e-300"])
    def test_chevron_overflow_exits_3_without_numpy_warnings(self, tmp_path, capsys, field):
        """The map or the Rabi fit overflows; the refusal is all that reaches stderr."""
        cfg = write_config(tmp_path, f"[scenario]\nname = chevron\n\n[schedule]\n{field}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["run", cfg, "--out", str(tmp_path / "o")])
        assert rc == 3
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("run failed (NonFiniteOutput)")
        assert not (tmp_path / "o").exists()

    def test_chevron_has_no_step_bounds(self, tmp_path):
        """chevron integrates nothing, so dt <= t_ad/100 does not apply to it."""
        cfg = write_config(tmp_path, "[scenario]\nname = chevron\n\n[schedule]\nt_ad = 0.1\n")
        assert main(["validate", cfg]) == 0
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 0

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

    def test_crossing_report_needs_no_bare_level_tracking(self, tmp_path):
        """z1 = 0 leaves the bare levels degenerate at t = 0, where tracking
        them ties; the crossing report reads the coupled levels that the
        sweep tracks, and the bare slope in closed form.  With x1 = 1,
        x2 = 7.3 the bare levels never cross, so the report holds an error
        and the run still exits 0; with x1 and x2 swapped they cross and
        every number of the report is finite."""
        def crossing(x1, x2, out):
            cfg = write_config(tmp_path, "[scenario]\nname = custom\ninitial_states = 01\n\n"
                                         f"[schedule]\nz1 = 0\nz2 = 1.5\nx1 = {x1}\nx2 = {x2}\n"
                                         "j = 1.3\nzz = 0\nt_ad = 10\n\n"
                                         "[simulation]\nn_samples = 50\n", name=f"{out}.ini")
            assert main(["run", cfg, "--out", str(tmp_path / out)]) == 0
            return json.loads((tmp_path / out / "custom_report.json").read_text())["crossing"]

        assert crossing(1, 7.3, "apart")["error"].startswith(
            "WindowOutOfRange: bare levels do not cross")
        crossed = crossing(7.3, 1.0, "crossed")
        assert crossed["min_gap_mhz"] == pytest.approx(0.1113, abs=1e-4)
        assert crossed["crossing_time_us"] == pytest.approx(1.714, abs=1e-3)
        numbers = [crossed["min_gap_mhz"], crossed["crossing_time_us"],
                   crossed["slope_mhz_per_us"], *crossed["per_t_ad"]["10"].values()]
        assert len(numbers) == 8 and all(math.isfinite(v) for v in numbers)

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
        assert not (tmp_path / "o").exists()  # the run created it, and removed it

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        rc = main(["run", "--scenario", "chevron",
                   "--out", str(blocker / "sub")])
        assert rc == 3
        assert "run failed (Unwritable)" in capsys.readouterr().err


def snapshot(directory) -> dict:
    """Every entry of a directory, hidden ones too, with its bytes."""
    return {path.name: path.read_bytes() for path in directory.iterdir()}


class TestStagedOutputs:
    """A run writes its files under hidden names and renames them onto their
    final names only once all of them are written."""

    @pytest.mark.parametrize("earlier", [{}, {"notes.txt": b"unrelated\n",
                                             "table1_report.json": b"{}\n"}],
                             ids=["empty", "earlier-run"])
    def test_failed_run_leaves_directory_as_it_was(self, tmp_path, capsys, earlier):
        """table1 fails at its third duration, after two traces are written."""
        out = tmp_path / "o"
        out.mkdir()
        for name, content in earlier.items():
            (out / name).write_bytes(content)
        cfg = write_config(tmp_path, UNSTABLE_TABLE1.format(x2=55))
        assert main(["run", cfg, "--out", str(out)]) == 3
        assert "run failed (CorrelatorOutOfRange)" in capsys.readouterr().err
        assert snapshot(out) == earlier

    @pytest.mark.parametrize("out", ["o", "new/deeper/o"])
    def test_failed_run_creates_no_directory(self, tmp_path, capsys, out):
        """The same failing table1 into an output directory that does not exist."""
        cfg = write_config(tmp_path, UNSTABLE_TABLE1.format(x2=55))
        assert main(["run", cfg, "--out", str(tmp_path / out)]) == 3
        assert "run failed (CorrelatorOutOfRange)" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["run.ini"]

    def test_successful_run_leaves_no_staged_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[scenario]\nname = fig3\n\n[schedule]\nt_ad = 1\n\n"
                                     "[simulation]\ndt_us = 0.01\nn_samples = 4\n")
        out = tmp_path / "o"
        assert main(["run", cfg, "--out", str(out)]) == 0
        written = [line.strip() for line in capsys.readouterr().out.splitlines()[1:]]
        assert sorted(snapshot(out)) == sorted(os.path.basename(path) for path in written)
        assert sorted(snapshot(out)) == ["fig3a_report.json", "fig3a_trace_tad1.csv",
                                         "fig3b_report.json", "fig3b_trace_tad1.csv"]


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
        # The same run in CSV: the two traces carry the same value texts.
        assert main(["run", write_config(tmp_path, CUSTOM_SMALL, "csv.ini"),
                     "--out", str(tmp_path / "c")]) == 0
        csv_rows = [line.split(",") for line in data_lines(tmp_path / "c" / "custom_trace_tad1.csv")]
        assert json.loads(trace.read_text(), parse_float=str)["rows"] == csv_rows


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

    @pytest.mark.parametrize("text, key", [
        ("[scenario]\nname = fig1\n\n[simulation]\nshots = 100000000000000000000\n"
         "n_samples = 10\n", "simulation.shots"),
        ("[scenario]\nname = fig1\n\n[simulation]\nshots = 1000000001\nn_samples = 10\n",
         "simulation.shots: must be >= 0 and at most 1000000000"),
        ("[scenario]\nname = fig4\ninitial_states = 01, 01\n", "scenario.initial_states"),
        ("[scenario]\nname = table1\ninitial_states = 00, 00\n", "scenario.initial_states"),
        ("[scenario]\nname = fig1\n\n[schedule]\nt_ad = 10, 20\n", "schedule.t_ad: fig1"),
        ("[scenario]\nname = fig1\ninitial_states = 00, 01\n", "scenario.initial_states: fig1"),
        ("[scenario]\nname = chevron\n\n[schedule]\nt_ad = 8, 9\n", "schedule.t_ad: chevron"),
        ("[scenario]\nname = chevron\ninitial_states = 00\n",
         "scenario.initial_states: chevron"),
        *((f"[scenario]\nname = fig1\n\n[schedule]\n{key} = 0.5\n",
           f"schedule.{key}: fig1 does not use it") for key in ("z1", "x1", "j", "zz")),
        *((f"[scenario]\nname = chevron\n\n[schedule]\n{key} = 0.5\n",
           f"schedule.{key}: chevron does not use it")
          for key in ("z1", "z2", "x1", "x2", "zz")),
        ("[scenario]\nname = fig1\n\n[noise]\nenabled = true\n", "noise.enabled: fig1"),
        ("[scenario]\nname = chevron\n\n[noise]\nenabled = true\n", "noise.enabled: chevron"),
        *((f"[scenario]\nname = chevron\n\n[simulation]\ndt_us = {dt}\n",
           "simulation.dt_us: chevron does not use it") for dt in ("0.5", "1e-9")),
        ("[scenario]\nname = fig4\n\n[schedule]\nt_ad = 10, 10.000001, 5\n",
         "schedule.t_ad: durations must be distinct in 6 significant digits, "
         "got 10.0 and 10.000001"),
        ("[scenario]\nname = table1\n\n[schedule]\nt_ad = 10, 10.000001, 5, 20\n",
         "durations must be distinct"),
    ], ids=["shots-beyond-int64", "shots-beyond-cap", "fig4-repeated-state",
            "table1-repeated-state", "fig1-two-durations", "fig1-two-states", "chevron-two-durations",
            "chevron-with-state", "fig1-z1", "fig1-x1", "fig1-j", "fig1-zz", "chevron-z1",
            "chevron-z2", "chevron-x1", "chevron-x2", "chevron-zz", "fig1-noise",
            "chevron-noise", "chevron-dt", "chevron-tiny-dt", "fig4-same-labels",
            "table1-same-labels"])
    def test_config_error_exits_2_from_validate_and_run(self, tmp_path, capsys, text, key):
        cfg = write_config(tmp_path, text)
        assert main(["validate", cfg]) == 2
        assert key in capsys.readouterr().err
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name, schedule, state", [
        ("fig1", "z1 = 0.0\nz2 = 3.0\nx1 = 0.0\nx2 = 2.7\nj = 0.0\nzz = 0.0\n", "01"),
        ("chevron", "z1 = 0.0\nz2 = 0.0\nx1 = 0.0\nx2 = 0.0\nj = 2.0\nzz = 0.0\n", ""),
    ])
    def test_fig1_and_chevron_accept_their_unused_fields_as_zeros(self, tmp_path, name,
                                                                    schedule, state):
        """The preset, and a config laid out as a sampled benchmark run: every
        schedule field stated, the unused ones as zeros, noise off, shots and
        a seed (which chevron, being exact, ignores)."""
        preset = write_config(tmp_path, f"[scenario]\nname = {name}\n", "preset.ini")
        assert main(["validate", preset]) == 0
        cfg = write_config(tmp_path, f"[scenario]\nname = {name}\ninitial_states = {state}\n\n"
                                     f"[schedule]\n{schedule}t_ad = 1\n\n"
                                     "[noise]\nenabled = false\n\n"
                                     "[simulation]\ndt_us = 0.002\nn_samples = 10\n"
                                     "shots = 10000\nseed = 5\n\n[output]\nformat = json\n")
        assert main(["validate", cfg]) == 0
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_largest_shot_count_runs(self, tmp_path):
        cfg = write_config(tmp_path, "[scenario]\nname = fig1\n\n[simulation]\n"
                                     "shots = 1000000000\nn_samples = 10\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["validate", str(tmp_path / "absent.ini")])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_bytes(b"\xff\xfe" + CUSTOM_SMALL.encode())
        assert main(["validate", str(path)]) == 2
        assert "config error: cannot read" in capsys.readouterr().err


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

    @pytest.mark.parametrize("argv", [
        [], ["bogus"], ["run", "--bogus"], ["--bogus", "run"], ["run", "--out"],
        ["run", "--seed", "abc"], ["run", "--s", "1"], ["run", "a.ini", "b.ini"], ["validate"],
        ["list-scenarios", "extra"],
    ], ids=["no-command", "unknown-command", "unknown-option", "unknown-option-before-command",
            "out-without-value", "non-integer-seed", "ambiguous-prefix", "two-configs",
            "validate-without-config", "list-scenarios-with-argument"])
    def test_malformed_command_line_exits_2_with_usage(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(adiasim.cli.__doc__)
        assert re.search(r"^adiasim: error: \S", err, re.MULTILINE)
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["run", "-h"], ["validate", "--help"]])
    def test_help_prints_usage_and_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 0
        assert capsys.readouterr() == (adiasim.cli.__doc__, "")

    def test_run_imports_no_scipy(self, tmp_path):
        """A run loads numpy only, and no run, exact or sampled, loads
        numpy.random (a lazy import of 9-17 ms that pulls in secrets, hmac
        and hashlib) or numpy.ma: shots are drawn from counter streams in
        plain numpy.  Neither a run nor validate loads argparse or locale (the
        command line is read with getopt).  Run in a fresh interpreter
        because other tests may have imported them into this one."""
        for name, text in (
                ("fig4", "[scenario]\nname = fig4\n\n[schedule]\nt_ad = 2\n\n"
                         "[simulation]\nn_samples = 4\n"),
                ("table1", "[scenario]\nname = table1\n\n[schedule]\nt_ad = 1, 1.5, 2\n\n"
                           "[simulation]\ndt_us = 0.01\nn_samples = 4\n"),
                ("fig1", "[scenario]\nname = fig1\n\n"
                         "[simulation]\nn_samples = 20\nshots = 10000\nseed = 3\n")):
            cfg = write_config(tmp_path, text, f"{name}.ini")
            for argv in (["run", cfg, "--out", str(tmp_path / name)], ["validate", cfg]):
                code = ("import sys\n"
                        "import adiasim.cli\n"
                        f"assert adiasim.cli.main({argv!r}) == 0\n"
                        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
                        "print([m for m in ('numpy.random', 'secrets', 'numpy.ma', 'argparse',"
                        " 'locale') if m in sys.modules])\n")
                result = subprocess.run([sys.executable, "-c", code], env=CHILD_ENV,
                                        capture_output=True, text=True, timeout=120)
                assert result.returncode == 0, result.stderr
                assert result.stdout.splitlines()[-2:] == ["[]", "[]"], argv

    def test_module_entry_point(self):
        def run(*argv):
            return subprocess.run([sys.executable, "-m", "adiasim.cli", *argv], env=CHILD_ENV,
                                  capture_output=True, text=True, timeout=60)

        result = run("list-scenarios")
        assert result.returncode == 0
        assert "fig4" in result.stdout
        result = run("-h")
        assert (result.returncode, result.stdout, result.stderr) == (0, adiasim.cli.__doc__, "")
        result = run("run", "--seed", "abc")
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith(adiasim.cli.__doc__)
        assert "Traceback" not in result.stderr


# Schedule values at the edges of the accepted range: zero, negative, tiny,
# large finite and non-finite.  ``None`` keeps the scenario's preset.
EDGE_VALUES = st.one_of(st.sampled_from(["0", "-1", "1e-9", "1e6", "inf", "nan"]), st.none())
# Edge values of the other sections' fields.  dt_us = 1e-9 needs more than
# 1e8 RK4 steps for every drawn t_ad, so validation stops it before any run
# except chevron's, which integrates nothing.
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
    # invalid, a three-duration fig1 run that validation stops (exit 2: fig1
    # takes one duration; test_diverging_fig1_exits_3 pins its diverging
    # one-duration twin), a table1 run whose three durations share one
    # eigensystem, a table1 run whose thermal occupation makes the Lindblad
    # steps diverge (exit 3), a table1 run whose large x2 drives its
    # correlators outside [-1, 1] (exit 3), a table1 run whose Pauli vectors
    # overflow while their trace stays 1 (exit 3), and a sampled fig1 run and
    # a three-duration fig4 run that both exit 0.  Generated ones mostly stop
    # earlier in validation: most edge values of the noise and simulation
    # fields are out of bounds, and fig1 and chevron take one duration.
    @settings(derandomize=True, max_examples=100, deadline=None)
    @example(name="chevron", fields=dict(NO_FIELDS, j="0"), t_ad="2", n_samples=4, other={})
    @example(name="fig1", fields=dict(NO_FIELDS, x2="1e6"), t_ad="0.5, 1, 2", n_samples=4,
             other={})
    @example(name="table1", fields=NO_FIELDS, t_ad="0.5, 1, 2", n_samples=4, other={})
    @example(name="table1", fields=NO_FIELDS, t_ad="0.5, 1, 2", n_samples=4,
             other={("noise", "nth"): "1e6"})
    @example(name="table1", fields=dict(NO_FIELDS, x2="55"), t_ad="1, 2, 3", n_samples=20,
             other={("simulation", "dt_us"): "0.01"})
    @example(name="table1", fields=dict(z1="79.2929", z2="0.0051", x1="0.0", x2="1.077",
                                        j="-8.199", zz="388.9903"), t_ad="1, 2, 3", n_samples=2,
             other={("simulation", "dt_us"): "0.005", ("noise", "t1_us"): "5",
                    ("noise", "t2_us"): "0.5", ("simulation", "shots"): "1"})
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

    def test_diverging_fig1_exits_3(self, tmp_path, capsys):
        """fig1's chirped-frame sweep with x2 = 1e6 diverges in RK4."""
        cfg = write_config(tmp_path, "[scenario]\nname = fig1\n\n[schedule]\nx2 = 1e6\n"
                                     "t_ad = 0.5\n\n[simulation]\nn_samples = 4\n")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "run failed (StepTooLarge)" in capsys.readouterr().err


def run_with_finite_outputs(text: str) -> int:
    """Exit code of ``adiasim run`` on a config text, after checking that
    every file it wrote holds only finite values."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.ini")
        with open(cfg, "w") as handle:
            handle.write(text)
        out = os.path.join(tmp, "o")
        code = main(["run", cfg, "--out", out])
        for file_name in os.listdir(out) if os.path.isdir(out) else ():
            with open(os.path.join(out, file_name)) as handle:
                data = CONFIG_ECHO.sub("", handle.read())
                assert not NON_FINITE_TOKEN.search(data), file_name
    return code


# Each preset cut to short durations and 4 samples, so that a run takes
# milliseconds.  A drawn t_ad replaces the first duration.
SHORT_PRESETS = {"fig1": "1", "chevron": "1", "fig3": "1", "fig4": "1, 2", "table1": "1, 2, 3"}
# Extremes of each field: values at and beyond both ends of its accepted
# range, and inf and nan.  No accepted draw comes near the 1e8-step bound:
# dt_us = 1e-9 needs 1e9 steps and stops in validation (chevron takes only
# its preset 0.002), and the longest run takes 6e4 steps (table1 at
# dt_us = 1e-4).
ONE_FIELD_EXTREMES = [
    (field, value) for field, values in {
        **{("schedule", key): ("-1e6", "-1", "0", "1e-9", "1e6", "inf", "nan")
           for key in NO_FIELDS},
        ("schedule", "t_ad"): ("1e-9", "0.25", "1e6", "inf", "nan"),
        ("noise", "t1_us"): ("1e-9", "1e-3", "1e6", "inf", "nan"),
        ("noise", "t2_us"): ("1e-9", "1e-3", "1e6", "inf", "nan"),
        ("noise", "nth"): ("0", "1e-9", "1e6", "inf", "nan"),
        ("simulation", "dt_us"): ("1e-9", "1e-4", "0.01", "inf", "nan"),
        ("simulation", "n_samples"): ("0", "1", "3", "1000", "1000000"),
        ("simulation", "shots"): ("-1", "1", "1000000", "1e6"),
        ("simulation", "seed"): ("-1", "1", "4294967296", "1e6"),
    }.items() for value in values
]
# The short sweep presets, and a custom sweep of 5 us, at their default 300
# samples; inf and nan are left to the one-field draws.
EQUAL_FIELD_PRESETS = {"fig3": "1", "fig4": "1, 2", "table1": "1, 2, 3", "custom": "5"}
EQUAL_FIELDS = st.sampled_from(["-1e6", "-1", "0", "1e-9", "2", "3", "1e6"])


class TestOneExtremeField:
    # Most draws reach run_scenario, so the runtime guards are exercised:
    # finite extremes of the schedule fields make RK4 diverge (exit 3) or
    # run (exit 0).  The example is a fig1 run whose norm drift, far inside
    # the propagators' limit, puts <ZI> at -1 - 7e-9.
    @settings(derandomize=True, max_examples=100, deadline=None)
    @example(name="fig1", extreme=(("simulation", "dt_us"), "0.01"))
    @given(name=st.sampled_from(sorted(SHORT_PRESETS)), extreme=st.sampled_from(ONE_FIELD_EXTREMES))
    def test_one_extreme_field_exits_0_2_or_3_with_finite_outputs(self, name, extreme):
        (section, key), value = extreme
        durations = SHORT_PRESETS[name].split(", ")
        sections = {"schedule": {"t_ad": ", ".join(durations)}, "noise": {},
                    "simulation": {"n_samples": "4"}}
        if key == "t_ad":
            value = ", ".join([value] + durations[1:])
        sections[section][key] = value
        text = f"[scenario]\nname = {name}\n" + "".join(
            f"\n[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
            for sec, body in sections.items())
        assert run_with_finite_outputs(text) in (0, 2, 3)

    # Equal fields on both uncoupled qubits (z1 = z2, x1 = x2, j = zz = 0)
    # keep levels 2 and 3 degenerate over the whole sweep, so tracking them
    # can tie.  The example is the known failure of identical qubits, which
    # exits 3 with DegenerateTracking until tracking handles degenerate
    # levels; no draw comes near the 1e8-step bound (table1 at 1, 2 and 3 us
    # takes 3e3 steps).
    @settings(derandomize=True, max_examples=100, deadline=None)
    @example(name="custom", z="2", x="3")
    @given(name=st.sampled_from(sorted(EQUAL_FIELD_PRESETS)), z=EQUAL_FIELDS, x=EQUAL_FIELDS)
    def test_equal_fields_exit_0_2_or_3_with_finite_outputs(self, name, z, x):
        text = (f"[scenario]\nname = {name}\n\n[schedule]\nz1 = {z}\nz2 = {z}\n"
                f"x1 = {x}\nx2 = {x}\nj = 0\nzz = 0\nt_ad = {EQUAL_FIELD_PRESETS[name]}\n")
        code = run_with_finite_outputs(text)
        assert code in (0, 2, 3)
        if (name, z, x) == ("custom", "2", "3"):
            assert code == 3


# Durations of at most 2 us at dt_us = 0.01, which every duration's dt <=
# t_ad/100 bound admits; table1 takes all three.
IN_BOUNDS_TADS = ("1", "1.5", "2")
IN_BOUNDS_FIELD = st.sampled_from(["-2.5", "-1", "0", "0.2", "1.3", "2.5", "4.1", "7.3"])
IN_BOUNDS_TIME = st.floats(min_value=5.0, max_value=100.0).map(lambda t: round(t, 2))
# Per qubit: T1, T2 as a fraction of 2*T1 (so T2 <= 2*T1), and n_th.
IN_BOUNDS_NOISE = st.lists(st.tuples(IN_BOUNDS_TIME, st.floats(min_value=0.05, max_value=0.99),
                                     st.floats(min_value=0.0, max_value=0.1)),
                           min_size=2, max_size=2)


class TestInBoundsRuns:
    # Every draw passes validation, so every one reaches run_scenario and
    # checks the runtime guards rather than the validator: a run either
    # writes only finite values (exit 0) or stops with a named runtime
    # error (exit 3), never with a traceback.
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(name=st.sampled_from(["fig4", "table1", "custom"]),
           fields=st.fixed_dictionaries({key: IN_BOUNDS_FIELD for key in NO_FIELDS}),
           t_ad=st.lists(st.sampled_from(IN_BOUNDS_TADS), min_size=1, max_size=3, unique=True),
           states=st.lists(st.sampled_from(["00", "01", "10", "11"]), min_size=1, max_size=4,
                           unique=True),
           n_samples=st.integers(min_value=1, max_value=10),
           noise=st.one_of(st.none(), IN_BOUNDS_NOISE),
           shots=st.sampled_from([0, 1, 1000]),
           seed=st.integers(min_value=0, max_value=2**32),
           fmt=st.sampled_from(["csv", "json"]))
    def test_in_bounds_config_exits_0_or_3_with_finite_outputs(
            self, name, fields, t_ad, states, n_samples, noise, shots, seed, fmt):
        if name == "table1":
            t_ad = IN_BOUNDS_TADS
        text = (f"[scenario]\nname = {name}\ninitial_states = {', '.join(states)}\n\n"
                "[schedule]\n" + "".join(f"{key} = {value}\n" for key, value in fields.items())
                + f"t_ad = {', '.join(t_ad)}\n\n")
        if noise is not None:
            pair = lambda values: ", ".join(repr(v) for v in values)
            t1 = [t for t, _, _ in noise]
            t2 = [round(frac * 2.0 * t, 3) for t, frac, _ in noise]
            text += (f"[noise]\nenabled = true\nt1_us = {pair(t1)}\nt2_us = {pair(t2)}\n"
                     f"nth = {pair(nth for _, _, nth in noise)}\n\n")
        text += (f"[simulation]\ndt_us = 0.01\nn_samples = {n_samples}\nshots = {shots}\n"
                 f"seed = {seed}\n\n[output]\nformat = {fmt}\n")
        assert validate_config(text)[1] == []
        assert run_with_finite_outputs(text) in (0, 3)


def chevron_rabi_fit(tmp_path, schedule="", simulation=""):
    """Exit code and ``rabi_fit`` block of a chevron run with the given lines."""
    cfg = write_config(tmp_path, f"[scenario]\nname = chevron\n\n[schedule]\n{schedule}\n\n"
                                 f"[simulation]\n{simulation}\n")
    rc = main(["run", cfg, "--out", str(tmp_path / "o")])
    return rc, json.loads((tmp_path / "o" / "chevron_report.json").read_text())["rabi_fit"]


NYQUIST = "reaches the Nyquist limit"
RESOLUTION = "under the Fourier resolution"


class TestChevronResolution:
    """A chevron run whose Rabi fit cannot recover j exits 0 and says why in
    ``rabi_fit.unresolved``: the edge columns' frequency sqrt(j^2 + 6^2)
    reaches the Nyquist limit n_samples / (2 t_ad), or j * t_ad < 1."""

    # Runs that exited 0 with a wrong j and no word of it, changed from the
    # defaults t_ad = 8, n_samples = 160 and j = 2, with the j each fits.
    @pytest.mark.parametrize("schedule, simulation, j_fit, reason", [
        ("j = 1e-3", "", 0.0319, RESOLUTION),
        ("j = 12", "", 6.61, NYQUIST),
        ("j = 500", "", 0.0, NYQUIST),
        ("", "n_samples = 3", 0.0, NYQUIST),
        ("", "n_samples = 10", 0.0, NYQUIST),
        ("", "n_samples = 40", 0.0, NYQUIST),
        ("", "n_samples = 80", 0.53, NYQUIST),
        ("t_ad = 0.1", "", 5.77, RESOLUTION),
    ], ids=["j-1e-3", "j-12", "j-500", "n-3", "n-10", "n-40", "n-80", "t_ad-0.1"])
    def test_reproductions_exit_0_flagged(self, tmp_path, schedule, simulation, j_fit, reason):
        rc, fit = chevron_rabi_fit(tmp_path, schedule, simulation)
        assert rc == 0
        assert fit["j_mhz"] == pytest.approx(j_fit, abs=0.01)
        assert reason in fit["unresolved"]

    @pytest.mark.parametrize("schedule, simulation, reason", [
        # sqrt(8^2 + 6^2) = 10 = 160 / (2 * 8): on the edge is out.
        ("j = 8", "", NYQUIST),
        ("j = 7.99", "", None),
        # 101 / 16 = 6.3125 < sqrt(2^2 + 6^2) = 6.3246 < 102 / 16.
        ("", "n_samples = 101", NYQUIST),
        ("", "n_samples = 102", None),
        # j * t_ad = 0.96 and 1.
        ("j = 0.12", "", RESOLUTION),
        ("j = 0.125", "", None),
    ], ids=["nyquist-on", "nyquist-below", "nyquist-samples-below", "nyquist-samples-above",
            "resolution-below", "resolution-on"])
    def test_edges_of_the_window(self, tmp_path, schedule, simulation, reason):
        rc, fit = chevron_rabi_fit(tmp_path, schedule, simulation)
        assert rc == 0
        if reason is None:
            assert "unresolved" not in fit
            assert fit["j_error_relative"] < 0.035
        else:
            assert reason in fit["unresolved"]

    def test_preset_is_resolved(self, tmp_path):
        rc, fit = chevron_rabi_fit(tmp_path)
        assert rc == 0
        assert list(fit) == ["j_mhz", "f_res_mhz", "residual", "j_error_relative",
                             "f_res_error_mhz"]

"""Unit tests for scenario configuration parsing, presets, and validation."""

import math
from pathlib import Path

import pytest

from adiasim.cli import main
from adiasim.config import (
    _FIELDS,
    _SCENARIOS,
    ConfigParse,
    SCENARIO_NAMES,
    SCENARIO_SUMMARIES,
    ScenarioConfig,
    load_config,
    validate_config,
)
from adiasim.dynamics import NoiseModel, UnphysicalNoise
from adiasim.tomography import MAX_SHOTS

CUSTOM_MINIMAL = """\
[scenario]
name = custom

[schedule]
z1 = 2.5
z2 = 1.5
x1 = 2.0
x2 = 4.1
t_ad = 30
"""


def valid(text: str, **kwargs) -> ScenarioConfig:
    config, errors = validate_config(text, **kwargs)
    assert errors == []
    assert config is not None
    return config


def invalid(text: str, **kwargs) -> list:
    config, errors = validate_config(text, **kwargs)
    assert config is None
    assert errors
    return errors


class TestPresets:
    @pytest.mark.parametrize("name", [n for n in SCENARIO_NAMES if n != "custom"])
    def test_named_presets_are_self_contained(self, name):
        config = valid(f"[scenario]\nname = {name}\n")
        assert config.name == name
        assert config.t_ad
        assert name in SCENARIO_SUMMARIES

    def test_asymmetric_sweep_preset(self):
        config = valid("[scenario]\nname = fig4\n")
        assert (config.z1, config.z2) == (2.5, 1.5)
        assert (config.x1, config.x2) == (1.0, 7.3)
        assert config.j == 1.3
        assert config.zz == 0.2
        assert config.t_ad == (5.0, 10.0, 20.0, 30.0)
        assert config.initial_states == ("01",)
        assert config.noise_enabled is False

    def test_crossing_pair_presets(self):
        off = valid("[scenario]\nname = fig3a\n")
        on = valid("[scenario]\nname = fig3b\n")
        for config in (off, on):
            assert (config.z1, config.z2) == (2.5, 1.5)
            assert (config.x1, config.x2) == (2.0, 4.1)
            assert config.zz == 0.2
            assert config.t_ad == (30.0,)
            assert set(config.initial_states) == {"01", "10", "11"}
        assert off.j == 0.0
        assert on.j == 1.7
        both = valid("[scenario]\nname = fig3\n")
        assert both.j == 1.7

    def test_single_qubit_chirp_preset(self):
        config = valid("[scenario]\nname = fig1\n")
        assert (config.z1, config.x1) == (0.0, 0.0)
        assert (config.z2, config.x2) == (3.0, 2.7)
        assert config.j == 0.0 and config.zz == 0.0
        assert config.t_ad == (10.0,)

    def test_noisy_sweep_preset(self):
        config = valid("[scenario]\nname = table1\n")
        assert config.noise_enabled is True
        assert config.t1_us == (50.0, 50.0)
        assert config.t2_us == (40.0, 40.0)
        assert config.nth == (0.01, 0.01)
        assert config.initial_states == ("00", "11")
        assert config.t_ad == (5.0, 10.0, 20.0, 30.0)

    def test_simulation_defaults(self):
        config = valid("[scenario]\nname = fig4\n")
        assert config.dt_us == 0.002
        assert config.n_samples == 300
        assert config.shots == 0
        assert config.seed == 0
        assert config.format == "csv"
        assert config.out_dir == "out"

    def test_calibration_preset_needs_no_initial_states(self):
        config = valid("[scenario]\nname = chevron\n")
        assert config.initial_states == ()

    def test_file_values_override_preset(self):
        config = valid("[scenario]\nname = fig4\n\n[schedule]\nj = 0.9\n"
                       "t_ad = 10\n\n[simulation]\nn_samples = 50\n")
        assert config.j == 0.9
        assert config.t_ad == (10.0,)
        assert config.n_samples == 50
        assert config.x2 == 7.3  # untouched preset value

    def test_override_name_wins_over_file(self):
        config = valid("[scenario]\nname = fig3a\n", override_name="fig4")
        assert config.name == "fig4"
        assert config.j == 1.3

    def test_preset_text_round_trips(self):
        """Each built-in preset prints canonical text that parses back to it;
        custom has no preset, and an unknown name none either."""
        for name in SCENARIO_NAMES:
            if name == "custom":
                invalid(f"[scenario]\nname = {name}\n")
                continue
            preset = valid(f"[scenario]\nname = {name}\n")
            assert valid(preset.to_text()) == preset
        assert any("unknown scenario" in e for e in invalid("[scenario]\nname = fig9\n"))


class TestCustomScenario:
    def test_minimal_custom(self):
        config = valid(CUSTOM_MINIMAL)
        assert config.name == "custom"
        assert config.j == 0.0
        assert config.zz == 0.0
        assert config.t_ad == (30.0,)
        assert config.dt_us == 0.002
        assert config.initial_states == ("01",)

    def test_missing_field_is_named(self):
        text = CUSTOM_MINIMAL.replace("x2 = 4.1\n", "")
        errors = invalid(text)
        assert any("schedule.x2" in e and "missing" in e for e in errors)

    def test_all_missing_fields_listed(self):
        errors = invalid("[scenario]\nname = custom\n")
        for field in ("z1", "z2", "x1", "x2", "t_ad"):
            assert any(f"schedule.{field}" in e for e in errors), field

    def test_missing_duration_is_named_once_among_other_errors(self):
        errors = invalid("[scenario]\nname = custom\n\n"
                         "[schedule]\nz1 = inf\nz2 = 1\nx1 = 1\nx2 = 1\n\n"
                         "[output]\nformat = xml\n\n[simulation]\nshots = -1\n")
        assert sum("t_ad" in e for e in errors) == 1
        for fragment in ("schedule.z1: must be finite", "output.format: must be csv or json",
                         "simulation.shots: must be >= 0"):
            assert any(fragment in e for e in errors), fragment

    def test_multiple_durations(self):
        config = valid(CUSTOM_MINIMAL.replace("t_ad = 30", "t_ad = 5, 10, 20"))
        assert config.t_ad == (5.0, 10.0, 20.0)


class TestValidationErrors:
    def test_empty_config_names_scenario_name_first(self):
        errors = invalid("")
        assert errors[0] == "scenario.name: missing required field"

    def test_unknown_scenario_lists_choices(self):
        errors = invalid("[scenario]\nname = fig7\n")
        assert any("unknown scenario" in e and "fig4" in e for e in errors)

    def test_unknown_section(self):
        errors = invalid("[scenario]\nname = fig4\n\n[sched]\nz1 = 1\n")
        assert any("unknown section [sched]" in e for e in errors)

    def test_unknown_key(self):
        errors = invalid("[scenario]\nname = fig4\n\n[schedule]\nzq = 1\n")
        assert any("unknown key schedule.zq" in e for e in errors)

    def test_dt_too_large(self):
        errors = invalid("[scenario]\nname = fig4\n\n[simulation]\ndt_us = 0.06\n")
        assert any("dt too large" in e for e in errors)
        # Exactly min(t_ad)/100 is still acceptable.
        valid("[scenario]\nname = fig4\n\n[simulation]\ndt_us = 0.05\n")

    def test_nonpositive_duration_names_index(self):
        errors = invalid(CUSTOM_MINIMAL.replace("t_ad = 30", "t_ad = 5, -10, 20"))
        assert any("schedule.t_ad[1]" in e for e in errors)

    def test_duplicate_durations(self):
        """File names and report keys label a duration with %g, so durations
        that agree in 6 significant digits are one duration twice."""
        errors = invalid(CUSTOM_MINIMAL.replace("t_ad = 30", "t_ad = 10, 10"))
        assert any("distinct" in e for e in errors)
        errors = invalid("[scenario]\nname = fig4\n\n[schedule]\nt_ad = 10, 10.000001, 5\n")
        assert errors == ["schedule.t_ad: durations must be distinct in 6 significant digits, "
                          "got 10.0 and 10.000001"]
        valid("[scenario]\nname = fig4\n\n[schedule]\nt_ad = 10, 10.0001, 5\n")

    def test_duplicate_initial_states(self):
        errors = invalid("[scenario]\nname = fig4\ninitial_states = 01, 01\n")
        assert "scenario.initial_states: states must be distinct" in errors
        errors = invalid("[scenario]\nname = table1\ninitial_states = 00, 11, 00\n")
        assert any("scenario.initial_states" in e and "distinct" in e for e in errors)

    def test_non_numeric_field(self):
        errors = invalid(CUSTOM_MINIMAL.replace("z1 = 2.5", "z1 = fast"))
        assert any("schedule.z1" in e and "not a number" in e for e in errors)

    @pytest.mark.parametrize("name, section, line, error", [
        ("fig4", "schedule", "j = fast", "schedule.j: not a number: 'fast'"),
        ("fig4", "schedule", "j = nan", "schedule.j: NaN is not allowed"),
        ("fig4", "schedule", "t_ad = ,", "schedule.t_ad: empty list"),
        ("fig4", "schedule", "t_ad = 5, 1x", "schedule.t_ad: not a number: '1x'"),
        ("table1", "noise", "t1_us = 50, 60, 70",
         "noise.t1_us: expected one or two values, got 3"),
        ("fig4", "simulation", "n_samples = 3.5", "simulation.n_samples: not an integer: '3.5'"),
        ("table1", "noise", "enabled = maybe", "noise.enabled: not a boolean: 'maybe'"),
        ("fig4", "output", "format = xml", "output.format: must be csv or json, got 'xml'"),
    ], ids=["float", "float-nan", "float-list-empty", "float-list-item", "pair", "int", "bool",
            "format"])
    def test_malformed_value_error_text(self, name, section, line, error):
        """A malformed value of each kind of field is reported once, under
        its field, with no other error."""
        assert invalid(f"[scenario]\nname = {name}\n\n[{section}]\n{line}\n") == [error]

    def test_nan_rejected(self):
        errors = invalid(CUSTOM_MINIMAL.replace("z1 = 2.5", "z1 = nan"))
        assert any("schedule.z1" in e for e in errors)

    def test_infinite_frequency_rejected(self):
        errors = invalid(CUSTOM_MINIMAL.replace("z1 = 2.5", "z1 = inf"))
        assert any("schedule.z1" in e and "finite" in e for e in errors)

    def test_step_count_beyond_float_range(self):
        """A step ratio beyond float range, and finite per-duration counts
        whose sum is beyond it, both read as inf steps."""
        for t_ad in ("1e301", "1.5e300, 1e300"):
            errors = invalid(CUSTOM_MINIMAL.replace("t_ad = 30", f"t_ad = {t_ad}")
                             + "\n[simulation]\nn_samples = 1\ndt_us = 1e-8\n")
            assert any("needs inf RK4 steps" in e for e in errors), t_ad

    def test_simulation_bounds(self):
        errors = invalid("[scenario]\nname = fig4\n\n[simulation]\n"
                         "n_samples = 0\nshots = -1\n")
        assert any("n_samples" in e for e in errors)
        assert any("shots" in e for e in errors)

    def test_shots_bounded_by_exact_sampling_cap(self):
        """Shot counts are drawn exactly up to tomography.MAX_SHOTS = 10**9."""
        for shots in (10**9 + 1, 10**20):
            errors = invalid(f"[scenario]\nname = fig1\n\n[simulation]\nshots = {shots}\n")
            assert any(e.startswith("simulation.shots: must be >= 0 and at most 1000000000")
                       for e in errors), shots
        config = valid("[scenario]\nname = fig1\n\n[simulation]\nshots = 1000000000\n")
        assert config.shots == MAX_SHOTS

    def test_noise_consistency(self):
        errors = invalid("[scenario]\nname = table1\n\n[noise]\n"
                         "t1_us = 50, 50\nt2_us = 120, 40\n")
        assert any("qubit 1" in e and "2*T1" in e for e in errors)
        errors = invalid("[scenario]\nname = table1\n\n[noise]\nt1_us = 0, 50\n")
        assert any("qubit 1" in e and "positive" in e for e in errors)
        errors = invalid("[scenario]\nname = table1\n\n[noise]\nnth = -0.1, 0\n")
        assert any("noise.nth" in e for e in errors)

    def test_infinite_t2_means_no_pure_dephasing(self):
        config = valid("[scenario]\nname = table1\n\n[noise]\n"
                       "t1_us = 50, 50\nt2_us = inf, inf\n")
        assert config.t2_us == (math.inf, math.inf)

    def test_noise_pair_broadcast(self):
        config = valid("[scenario]\nname = table1\n\n[noise]\nt1_us = 60\nt2_us = 80\n")
        assert config.t1_us == (60.0, 60.0)
        assert config.t2_us == (80.0, 80.0)

    def test_unknown_initial_state(self):
        errors = invalid("[scenario]\nname = fig4\ninitial_states = 01, 02\n")
        assert any("unknown state '02'" in e for e in errors)

    def test_no_initial_states(self):
        errors = invalid("[scenario]\nname = fig4\ninitial_states =\n")
        assert any("at least one initial state" in e for e in errors)

    def test_fig1_takes_one_duration_and_one_state(self):
        """fig1 runs one state at one duration; a list it would drop is an error."""
        errors = invalid("[scenario]\nname = fig1\ninitial_states = 00, 01\n\n"
                         "[schedule]\nt_ad = 10, 20\n")
        assert "schedule.t_ad: fig1 takes one duration, got 2" in errors
        assert "scenario.initial_states: fig1 takes one state, got 2" in errors
        config = valid("[scenario]\nname = fig1\ninitial_states = 10\n\n"
                       "[schedule]\nt_ad = 20\n")
        assert (config.initial_states, config.t_ad) == (("10",), (20.0,))

    def test_chevron_takes_one_duration_and_no_state(self):
        errors = invalid("[scenario]\nname = chevron\n\n[schedule]\nt_ad = 8, 9\n")
        assert errors == ["schedule.t_ad: chevron takes one duration, got 2"]
        errors = invalid("[scenario]\nname = chevron\ninitial_states = 00\n")
        assert errors == ["scenario.initial_states: chevron takes no initial state"]
        assert valid("[scenario]\nname = chevron\ninitial_states =\n").initial_states == ()

    def test_chevron_has_no_step_bounds(self):
        """chevron integrates nothing: a duration below 100 dt is accepted."""
        assert valid("[scenario]\nname = chevron\n\n[schedule]\nt_ad = 0.1\n").t_ad == (0.1,)

    def test_chevron_takes_only_its_preset_dt(self):
        """chevron ignores dt_us, so a stated dt_us must be the preset 0.002."""
        assert valid("[scenario]\nname = chevron\n\n[simulation]\ndt_us = 0.002\n").dt_us == 0.002
        for dt in ("0.5", "1e-9", "0.001"):
            errors = invalid(f"[scenario]\nname = chevron\n\n[simulation]\ndt_us = {dt}\n")
            assert errors == [f"simulation.dt_us: chevron does not use it and needs 0.002, "
                              f"got {float(dt)}"]

    def test_output_validation(self):
        errors = invalid("[scenario]\nname = fig4\n\n[output]\nformat = xml\n")
        assert any("csv or json" in e for e in errors)
        errors = invalid("[scenario]\nname = fig4\n\n[output]\ndirectory =\n")
        assert any("output.directory" in e for e in errors)

    def test_all_violations_reported_together(self):
        errors = invalid(
            "[scenario]\nname = fig4\ninitial_states = 01, 02\n\n"
            "[simulation]\ndt_us = 0.06\nn_samples = 0\n\n"
            "[output]\nformat = xml\n")
        assert len(errors) >= 4
        joined = "\n".join(errors)
        for fragment in ("dt too large", "n_samples", "unknown state", "csv or json"):
            assert fragment in joined

    def test_malformed_ini_reports_parse_error(self):
        errors = invalid("not an ini file at all\n")
        assert any("parse error" in e for e in errors)


BUILT_IN = [name for name in SCENARIO_NAMES if name != "custom"]


def refused_fields(tmp_path, capsys, text: str) -> set:
    """The fields that ``adiasim validate`` names, after checking it exits 2."""
    path = tmp_path / "run.ini"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    problems = capsys.readouterr().err.splitlines()[1:]
    return {problem.removeprefix("  - ").split(":")[0] for problem in problems}


class TestScenarioRows:
    """Each row of _SCENARIOS: its preset, its counts and its fixed fields."""

    @pytest.mark.parametrize("name", BUILT_IN)
    def test_row_bounds_are_enforced(self, tmp_path, capsys, name):
        """One duration or state beyond each count bound, and each fixed field
        off its preset, is refused naming only that field."""
        row = _SCENARIOS[name]
        preset = valid(f"[scenario]\nname = {name}\n")
        durations = lambda n: ", ".join(str(10.0 + k) for k in range(n))
        states = lambda n: ", ".join(["00", "01", "10", "11"][:n])
        cases = []
        for field, count, (fewest, most) in (("schedule.t_ad", durations, row.durations),
                                             ("scenario.initial_states", states, row.states)):
            cases += [(field, count(fewest - 1))] if fewest > 0 else []
            cases += [(field, count(most + 1))] if most < math.inf else []
        for section, key, attr, (_, fmt), *_ in _FIELDS:
            if attr in row.fixed:
                value = getattr(preset, attr)
                changed = (not value) if isinstance(value, bool) else value + 0.5
                cases.append((f"{section}.{key}", fmt(changed)))
        assert len(cases) >= 1 + len(row.fixed)
        for field, value in cases:
            section, key = field.split(".")
            text = (f"[scenario]\nname = {name}\n"
                    + ("" if section == "scenario" else f"\n[{section}]\n") + f"{key} = {value}\n")
            assert refused_fields(tmp_path, capsys, text) == {field}, text

    @pytest.mark.parametrize("kwargs, accepted", [
        *((kwargs, False) for kwargs in (
            dict(t1=0.0), dict(t1=50.0, t2=-1.0), dict(n_th=-0.1), dict(t1=math.nan),
            dict(t2=math.nan), dict(t1=50.0, n_th=math.inf), dict(t1=10.0, t2=21.0))),
        *((kwargs, True) for kwargs in (
            dict(), dict(t1=10.0, t2=20.0), dict(t1=50.0, t2=40.0, n_th=0.01),
            dict(t1=math.inf, t2=5.0))),
    ])
    def test_noise_model_and_validation_agree(self, kwargs, accepted):
        try:
            NoiseModel(**kwargs)
        except UnphysicalNoise:
            model_accepts = False
        else:
            model_accepts = True
        noise = dict(dict(t1=math.inf, t2=math.inf, n_th=0.0), **kwargs)
        config, _ = validate_config("[scenario]\nname = table1\n\n[noise]\n"
                                    f"t1_us = {noise['t1']!r}\nt2_us = {noise['t2']!r}\n"
                                    f"nth = {noise['n_th']!r}\n")
        assert model_accepts == (config is not None) == accepted

    def test_noise_violations_of_both_qubits_reported(self):
        errors = invalid("[scenario]\nname = table1\n\n[noise]\n"
                         "t1_us = 0, -1\nnth = -0.1, inf\n")
        for prefix in ("noise: qubit 1:", "noise: qubit 2:",
                       "noise.nth: qubit 1:", "noise.nth: qubit 2:"):
            assert sum(e.startswith(prefix) for e in errors) == 1, prefix
        errors = invalid("[scenario]\nname = table1\n\n[noise]\nt1_us = 10\nt2_us = 25, 30\n")
        assert [e.split(" = ")[0] for e in errors] == ["noise: qubit 1: T2", "noise: qubit 2: T2"]


class TestExactModeSeed:
    def test_seed_canonicalized_without_sampling(self):
        config = valid("[scenario]\nname = fig4\n\n[simulation]\nseed = 7\n")
        assert config.shots == 0
        assert config.seed == 0

    def test_seed_kept_with_sampling(self):
        config = valid("[scenario]\nname = fig4\n\n[simulation]\n"
                       "shots = 400\nseed = 7\n")
        assert config.shots == 400
        assert config.seed == 7


class TestRoundTrip:
    @pytest.mark.parametrize("name", [n for n in SCENARIO_NAMES if n != "custom"])
    def test_presets_round_trip_through_text(self, name):
        config = valid(f"[scenario]\nname = {name}\n")
        assert valid(config.to_text()) == config

    def test_custom_round_trip(self):
        text = (CUSTOM_MINIMAL
                + "j = 0.77\nzz = 0.13\n\n[simulation]\ndt_us = 0.004\n"
                  "n_samples = 123\nshots = 250\nseed = 42\n\n"
                  "[output]\ndirectory = elsewhere\nformat = json\n")
        config = valid(text)
        again = valid(config.to_text())
        assert again == config
        assert again.to_text() == config.to_text()

    def test_derived_objects(self):
        config = valid("[scenario]\nname = fig4\n")
        sched = config.schedule()
        assert (sched.z1, sched.z2, sched.x1, sched.x2) == (2.5, 1.5, 1.0, 7.3)
        assert (sched.j_final, sched.zz) == (1.3, 0.2)
        # The schedule is the sweep shape; each duration enters the propagators.
        assert not hasattr(sched, "t_ad")
        assert config.noise_model() is None
        noisy = valid("[scenario]\nname = table1\n")
        model = noisy.noise_model()
        assert model is not None
        assert model.t1 == (50.0, 50.0)


class TestReadmeExample:
    def test_readme_config_block_is_the_fig4_preset(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Configuration format", 1)[1]
        block = section.split("```ini\n", 1)[1].split("```", 1)[0]
        assert valid(block).to_text() == valid("[scenario]\nname = fig4\n").to_text()

    def test_readme_library_block_runs(self):
        """The README's library example runs as written on the fig4 sweep
        shape: its gap and slope are those of the fig4 report."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Library use", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        names: dict = {}
        exec(block, names)
        assert names["a"] == pytest.approx(0.2315, abs=1e-4)
        assert names["s_c"] * names["t_ad"] == pytest.approx(3.2018, abs=1e-4)
        assert names["slope"] == pytest.approx(7.2616, abs=1e-4)
        assert 0.0 < names["p"] < 1.0
        assert names["traj"].times[-1] == names["t_ad"] == 15.0
        assert names["traj"].max_drift < 1e-6


class TestLoadConfig:
    def test_reads_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(CUSTOM_MINIMAL)
        config = load_config(str(path))
        assert config.name == "custom"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigParse, match="cannot read"):
            load_config(str(tmp_path / "absent.ini"))

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_bytes(b"\xff\xfe" + CUSTOM_MINIMAL.encode())
        with pytest.raises(ConfigParse, match="cannot read"):
            load_config(str(path))

    def test_invalid_content(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[scenario]\nname = fig4\n\n[simulation]\ndt_us = 0.06\n")
        with pytest.raises(ConfigParse, match="dt too large"):
            load_config(str(path))

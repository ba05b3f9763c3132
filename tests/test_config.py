"""Unit tests for scenario configuration parsing, presets, and validation."""

import math
from pathlib import Path

import pytest

from adiasim.config import (
    ConfigParse,
    SCENARIO_NAMES,
    SCENARIO_SUMMARIES,
    ScenarioConfig,
    load_config,
    preset_text,
    validate_config,
)

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
        for name in SCENARIO_NAMES:
            if name == "custom":
                with pytest.raises(ConfigParse):
                    preset_text(name)
                continue
            text = preset_text(name)
            assert valid(text) == valid(text)
        with pytest.raises(ConfigParse, match="unknown scenario"):
            preset_text("fig9")


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
        errors = invalid(CUSTOM_MINIMAL.replace("t_ad = 30", "t_ad = 10, 10"))
        assert any("distinct" in e for e in errors)

    def test_non_numeric_field(self):
        errors = invalid(CUSTOM_MINIMAL.replace("z1 = 2.5", "z1 = fast"))
        assert any("schedule.z1" in e and "not a number" in e for e in errors)

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
        assert sched.t_ad == 5.0
        assert sched.j_final == 1.3
        assert config.schedule(20.0).t_ad == 20.0
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
        assert valid(block).to_text() == preset_text("fig4")


class TestLoadConfig:
    def test_reads_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(CUSTOM_MINIMAL)
        config = load_config(str(path))
        assert config.name == "custom"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigParse, match="cannot read"):
            load_config(str(tmp_path / "absent.ini"))

    def test_invalid_content(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[scenario]\nname = fig4\n\n[simulation]\ndt_us = 0.06\n")
        with pytest.raises(ConfigParse, match="dt too large"):
            load_config(str(path))

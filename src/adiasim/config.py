"""Scenario configuration: INI-style files, presets, validation, round-trip.

A configuration is flat key/value text with named sections:

    [scenario]
    name = fig4
    initial_states = 01

    [schedule]
    z1 = 2.5
    z2 = 1.5
    x1 = 1.0
    x2 = 7.3
    j = 1.3
    zz = 0.2
    t_ad = 5, 10, 20, 30

    [noise]
    enabled = false
    t1_us = 50, 50
    t2_us = 40, 40
    nth = 0.01, 0.01

    [simulation]
    dt_us = 0.002
    n_samples = 300
    shots = 0
    seed = 0

    [output]
    directory = out
    format = csv

Each field is one row of ``_FIELDS``: its section and key, how it is
parsed and printed, its default and its single-value bound.  Parsing,
defaults, bounds and ``ScenarioConfig.to_text`` all read that table, so
text printed from a config parses back to it.  A field without a default
(z1, z2, x1, x2, t_ad) is prefilled by every built-in scenario and must be
stated by a ``custom`` file; a file only needs to state what differs.
Checks that span several fields (durations, the dt and RK4-step bounds,
T2 <= 2*T1, initial states) are written out after the table loop.

``validate_config`` returns either a fully-defaulted ``ScenarioConfig`` or
the complete list of violations.  In exact mode (shots = 0) the seed is
canonicalized to 0, keeping outputs manifestly seed-independent.
"""

from __future__ import annotations

import configparser
import itertools
import math
from dataclasses import dataclass, replace

from .dynamics import BASIS_LABELS, NoiseModel, steps_per_interval
from .schedule import ProtocolSchedule

__all__ = [
    "ConfigParse",
    "ScenarioConfig",
    "SCENARIO_NAMES",
    "SCENARIO_SUMMARIES",
    "validate_config",
    "load_config",
    "preset_text",
]


class ConfigParse(ValueError):
    """Raised by loaders when a configuration is unusable."""


_FIG3 = dict(z1=2.5, z2=1.5, x1=2.0, x2=4.1, zz=0.2)
_FIG4 = dict(z1=2.5, z2=1.5, x1=1.0, x2=7.3, j=1.3, zz=0.2)

# Each scenario's summary and the fields it prefills over the defaults of
# _FIELDS.
_SCENARIOS: dict[str, tuple[str, dict]] = {
    "fig1": ("single-qubit chirped sweep (z=3, x=2.7 MHz), both drive frames",
             dict(z1=0.0, z2=3.0, x1=0.0, x2=2.7, t_ad=(10.0,))),
    "chevron": ("calibration pipeline: chevron map, Rabi/dispersive/coupling fits",
                dict(z1=0.0, z2=0.0, x1=0.0, x2=0.0, j=2.0, t_ad=(8.0,),
                     n_samples=160, initial_states=())),
    "fig3": ("both two-qubit sweep variants: crossing (j=0) and avoided crossing (j=1.7)",
             dict(**_FIG3, j=1.7, t_ad=(30.0,), initial_states=("01", "10", "11"))),
    "fig3a": ("two-qubit sweep with coupling off (j=0): levels cross",
              dict(**_FIG3, j=0.0, t_ad=(30.0,), initial_states=("01", "10", "11"))),
    "fig3b": ("two-qubit sweep with j=1.7 MHz: avoided crossing, adiabatic passage",
              dict(**_FIG3, j=1.7, t_ad=(30.0,), initial_states=("01", "10", "11"))),
    "fig4": ("asymmetric sweep (j=1.3 MHz) over a t_ad sweep: diabatic-to-adiabatic crossover",
             dict(**_FIG4, t_ad=(5.0, 10.0, 20.0, 30.0))),
    "table1": ("fig4 sweep with noise from |00> and |11> plus zero-time mitigation report",
               dict(**_FIG4, t_ad=(5.0, 10.0, 20.0, 30.0), noise_enabled=True,
                    initial_states=("00", "11"))),
    "custom": ("user-supplied schedule parameters", dict()),
}
SCENARIO_NAMES = tuple(_SCENARIOS)
SCENARIO_SUMMARIES = {name: summary for name, (summary, _) in _SCENARIOS.items()}

# Upper bound on simulation.n_samples: a Lindblad run keeps one 16x16
# complex map per sample interval, about 410 MB at the bound.
_MAX_N_SAMPLES = 100_000
# Upper bound on the RK4 steps of one run over all its durations: at about
# 4 us per 16x16 Lindblad step (2-CPU x86-64 host), minutes rather than days.
_MAX_RK4_STEPS = 10**8


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully-resolved scenario description (all defaults applied)."""

    name: str
    z1: float
    z2: float
    x1: float
    x2: float
    j: float
    zz: float
    t_ad: tuple[float, ...]
    noise_enabled: bool
    t1_us: tuple[float, float]
    t2_us: tuple[float, float]
    nth: tuple[float, float]
    dt_us: float
    n_samples: int
    shots: int
    seed: int
    initial_states: tuple[str, ...]
    out_dir: str
    format: str

    def schedule(self, t_ad: float | None = None) -> ProtocolSchedule:
        """ProtocolSchedule for one duration (default: the first listed)."""
        duration = self.t_ad[0] if t_ad is None else t_ad
        return ProtocolSchedule(z1=self.z1, z2=self.z2, x1=self.x1, x2=self.x2,
                                j_final=self.j, zz=self.zz, t_ad=duration)

    def noise_model(self) -> NoiseModel | None:
        """NoiseModel when noise is enabled, else None."""
        if not self.noise_enabled:
            return None
        return NoiseModel(t1=self.t1_us, t2=self.t2_us, n_th=self.nth)

    def with_(self, **changes) -> "ScenarioConfig":
        return replace(self, **changes)

    def to_text(self) -> str:
        """Canonical INI text that re-parses to this exact config."""
        lines = []
        for section, rows in itertools.groupby(_FIELDS, key=lambda row: row[0]):
            lines += ["", f"[{section}]"]
            lines += [f"{key} = {fmt(getattr(self, attr))}"
                      for _, key, attr, (_, fmt), _, _ in rows]
        return "\n".join(lines[1:]) + "\n"


def _parse_float(raw: str, where: str, errors: list[str]) -> float | None:
    try:
        value = float(raw)
    except ValueError:
        errors.append(f"{where}: not a number: {raw!r}")
        return None
    if math.isnan(value):
        errors.append(f"{where}: NaN is not allowed")
        return None
    return value


def _parse_float_list(raw: str, where: str, errors: list[str]) -> tuple[float, ...] | None:
    items = [piece.strip() for piece in raw.split(",") if piece.strip()]
    if not items:
        errors.append(f"{where}: empty list")
        return None
    out = []
    for piece in items:
        value = _parse_float(piece, where, errors)
        if value is None:
            return None
        out.append(value)
    return tuple(out)


def _parse_pair(raw: str, where: str, errors: list[str]) -> tuple[float, float] | None:
    values = _parse_float_list(raw, where, errors)
    if values is None:
        return None
    if len(values) == 1:
        return (values[0], values[0])
    if len(values) == 2:
        return (values[0], values[1])
    errors.append(f"{where}: expected one or two values, got {len(values)}")
    return None


def _parse_int(raw: str, where: str, errors: list[str]) -> int | None:
    try:
        return int(raw)
    except ValueError:
        errors.append(f"{where}: not an integer: {raw!r}")
        return None


def _parse_bool(raw: str, where: str, errors: list[str]) -> bool | None:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    errors.append(f"{where}: not a boolean: {raw!r}")
    return None


# (parser, formatter) of each kind of field.
_FLOAT = (_parse_float, lambda value: repr(float(value)))
_FLOATS = (_parse_float_list, lambda values: ", ".join(repr(float(v)) for v in values))
_PAIR = (_parse_pair, _FLOATS[1])
_INT = (_parse_int, str)
_TEXT = (lambda raw, where, errors: raw.strip(), str)

# Single-value bounds, as (predicate, error text formatted with the value).
_FINITE = (math.isfinite, "must be finite, got {!r}")
_NONNEGATIVE = (lambda value: value >= 0, "must be >= 0, got {!r}")

# Every config-file field, as (section, key, ScenarioConfig attribute, kind,
# default, bound), in the order of ScenarioConfig.to_text.  A field whose
# default is None is required: a built-in scenario prefills it and a custom
# file must state it.  A bound of None means any parsed value is allowed.
_FIELDS = (
    ("scenario", "name", "name", _TEXT, None, None),
    ("scenario", "initial_states", "initial_states",
     (lambda raw, where, errors: tuple(p.strip() for p in raw.split(",") if p.strip()),
      ", ".join), ("01",), None),
    *(("schedule", key, key, _FLOAT, None, _FINITE) for key in ("z1", "z2", "x1", "x2")),
    *(("schedule", key, key, _FLOAT, 0.0, _FINITE) for key in ("j", "zz")),
    ("schedule", "t_ad", "t_ad", _FLOATS, None, None),
    ("noise", "enabled", "noise_enabled",
     (_parse_bool, lambda on: "true" if on else "false"), False, None),
    ("noise", "t1_us", "t1_us", _PAIR, (50.0, 50.0), None),
    ("noise", "t2_us", "t2_us", _PAIR, (40.0, 40.0), None),
    ("noise", "nth", "nth", _PAIR, (0.01, 0.01), None),
    ("simulation", "dt_us", "dt_us", _FLOAT, 0.002,
     (lambda dt: math.isfinite(dt) and dt > 0.0, "must be positive, got {!r}")),
    ("simulation", "n_samples", "n_samples", _INT, 300,
     (lambda n: 1 <= n <= _MAX_N_SAMPLES, f"must be in 1..{_MAX_N_SAMPLES}, got {{!r}}")),
    *(("simulation", key, key, _INT, 0, _NONNEGATIVE) for key in ("shots", "seed")),
    ("output", "directory", "out_dir", _TEXT, "out", (bool, "must be nonempty")),
    ("output", "format", "format", (lambda raw, where, errors: raw.strip().lower(), str), "csv",
     (lambda fmt: fmt in ("csv", "json"), "must be csv or json, got {!r}")),
)
_KNOWN_KEYS = {section: tuple(row[1] for row in rows)
               for section, rows in itertools.groupby(_FIELDS, key=lambda row: row[0])}


def validate_config(text: str, override_name: str | None = None) -> tuple[ScenarioConfig | None, list[str]]:
    """Parse and validate configuration text.

    Returns ``(config, errors)``: a fully-defaulted config and an empty
    list on success, or ``None`` and the complete list of violations.
    ``override_name`` substitutes the scenario name before preset
    resolution (the CLI's --scenario flag).
    """
    errors: list[str] = []
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        return None, [f"parse error: {exc}"]

    raw: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            errors.append(f"unknown section [{section}]")
            continue
        raw[section] = {}
        for key, value in parser.items(section):
            if key not in _KNOWN_KEYS[section]:
                errors.append(f"unknown key {section}.{key}")
            else:
                raw[section][key] = value
    if override_name is not None:
        raw.setdefault("scenario", {})["name"] = override_name

    name = raw.get("scenario", {}).get("name")
    if name is None:
        errors.append("scenario.name: missing required field")
        return None, errors
    name = name.strip()
    if name not in _SCENARIOS:
        errors.append(
            f"scenario.name: unknown scenario {name!r}; choose from {', '.join(SCENARIO_NAMES)}"
        )
        return None, errors

    merged = {attr: default for _, _, attr, _, default, _ in _FIELDS if default is not None}
    merged.update(_SCENARIOS[name][1])
    out_of_bounds = set()
    for section, key, attr, (parse, _), _, bound in _FIELDS:
        if key in raw.get(section, {}):
            value = parse(raw[section][key], f"{section}.{key}", errors)
            if value is not None:
                merged[attr] = value
        elif attr not in merged:
            errors.append(f"{section}.{key}: missing required field for a custom scenario")
        if bound is not None and attr in merged and not bound[0](merged[attr]):
            errors.append(f"{section}.{key}: {bound[1].format(merged[attr])}")
            out_of_bounds.add(attr)

    # Checks that span several fields (collected, not short-circuited).
    t_ads = merged.get("t_ad", ())
    if name == "chevron" and merged["j"] <= 0.0:
        errors.append(f"schedule.j: chevron needs a positive coupling, got {merged['j']}")
    for idx, t_ad in enumerate(t_ads):
        if not math.isfinite(t_ad) or t_ad <= 0.0:
            errors.append(f"schedule.t_ad[{idx}]: must be positive and finite, got {t_ad}")
    if len(set(t_ads)) != len(t_ads):
        errors.append("schedule.t_ad: durations must be distinct")
    if name == "table1" and len(set(t_ads)) < 3:
        errors.append("schedule.t_ad: table1 extrapolates to zero duration and "
                      "needs at least 3 distinct durations")

    dt, n_samples = merged["dt_us"], merged["n_samples"]
    finite_tads = [t for t in t_ads if math.isfinite(t) and t > 0.0]
    if "dt_us" not in out_of_bounds and finite_tads and dt > min(finite_tads) / 100.0:
        errors.append(
            f"simulation.dt_us: dt too large; need dt <= min(t_ad)/100 = "
            f"{min(finite_tads) / 100.0}"
        )
    if name == "chevron" and "n_samples" not in out_of_bounds and n_samples < 3:
        errors.append(f"simulation.n_samples: chevron needs at least 3, got {n_samples}")
    elif not out_of_bounds & {"dt_us", "n_samples"}:
        try:  # a float sum, so that a step count beyond float range reads inf
            steps = sum(n_samples * float(steps_per_interval(t, dt, n_samples))
                        for t in finite_tads)
        except OverflowError:  # t_ad / n_samples / dt is inf
            steps = math.inf
        if steps > _MAX_RK4_STEPS:
            errors.append(f"simulation.dt_us: {dt} needs {steps:.3g} RK4 steps over all "
                          f"durations; at most {_MAX_RK4_STEPS:.0e} are allowed")

    for q in range(2):
        t1, t2 = merged["t1_us"][q], merged["t2_us"][q]
        if t1 <= 0 or t2 <= 0:
            errors.append(f"noise: qubit {q + 1} T1/T2 must be positive (use inf to disable)")
        elif math.isfinite(t2) and t2 > 2.0 * t1:
            errors.append(
                f"noise: qubit {q + 1} has T2 = {t2} > 2*T1 = {2 * t1} "
                f"(negative pure-dephasing rate)"
            )
        if not 0 <= merged["nth"][q] < math.inf:
            errors.append(f"noise.nth: qubit {q + 1} must be finite and >= 0")

    for state in merged["initial_states"]:
        if state not in BASIS_LABELS:
            errors.append(
                f"scenario.initial_states: unknown state {state!r}; "
                f"choose from {', '.join(BASIS_LABELS)}"
            )
    if not merged["initial_states"] and name != "chevron":
        errors.append("scenario.initial_states: at least one initial state required")

    if errors:
        return None, errors

    # Exact mode draws no random numbers; canonicalize the seed so equal
    # outputs come from equal configs.
    if merged["shots"] == 0:
        merged["seed"] = 0

    config = ScenarioConfig(**merged)
    return config, []


def load_config(path: str) -> ScenarioConfig:
    """Read and validate a config file; raise ConfigParse on any violation."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigParse(f"cannot read config {path}: {exc}") from exc
    config, errors = validate_config(text)
    if config is None:
        raise ConfigParse("; ".join(errors))
    return config


def preset_text(name: str) -> str:
    """Canonical config text for a built-in scenario."""
    if name not in SCENARIO_NAMES:
        raise ConfigParse(f"unknown scenario {name!r}")
    config, errors = validate_config(f"[scenario]\nname = {name}\n")
    if config is None:
        raise ConfigParse("; ".join(errors))
    return config.to_text()

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
Each scenario is one row of ``_SCENARIOS``: its preset, how many durations
and initial states it takes, the fields it does not use (held at their
preset) and its own bounds; every check that spans fields reads that row.

``validate_config`` returns either a fully-defaulted ``ScenarioConfig`` or
the complete list of violations.  In exact mode (shots = 0) the seed is
canonicalized to 0, keeping outputs manifestly seed-independent.
"""

from __future__ import annotations

import configparser
import itertools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from .dynamics import BASIS_LABELS, NoiseModel, noise_violations, steps_per_interval
from .schedule import ProtocolSchedule
from .tomography import MAX_SHOTS

__all__ = [
    "ConfigParse",
    "ScenarioConfig",
    "SCENARIO_NAMES",
    "SCENARIO_SUMMARIES",
    "validate_config",
    "load_config",
    "read_config_text",
]


class ConfigParse(ValueError):
    """Raised by loaders when a configuration is unusable."""


class _Scenario(NamedTuple):
    """What one scenario takes, read by ``validate_config``."""

    summary: str
    preset: dict  # fields prefilled over the defaults of _FIELDS
    durations: tuple[int, float] = (1, math.inf)  # (min distinct, max) count of t_ad
    states: tuple[int, float] = (1, math.inf)  # (min, max) count of initial states
    # Fields the scenario does not use, held at their preset.  One that holds
    # dt_us integrates nothing, so the dt and RK4-step bounds skip it.
    fixed: tuple[str, ...] = ()
    bounds: dict = {}  # attribute -> (predicate, error text), as in _FIELDS


_FIG3 = dict(z1=2.5, z2=1.5, x1=2.0, x2=4.1, zz=0.2, t_ad=(30.0,),
             initial_states=("01", "10", "11"))
_FIG4 = dict(z1=2.5, z2=1.5, x1=1.0, x2=7.3, j=1.3, zz=0.2, t_ad=(5.0, 10.0, 20.0, 30.0))
_SCENARIOS = {
    "fig1": _Scenario("single-qubit chirped sweep (z=3, x=2.7 MHz), both drive frames",
                      dict(z1=0.0, z2=3.0, x1=0.0, x2=2.7, t_ad=(10.0,)),
                      durations=(1, 1), states=(1, 1),
                      fixed=("z1", "x1", "j", "zz", "noise_enabled")),
    "chevron": _Scenario(
        "calibration pipeline: chevron map, Rabi/dispersive/coupling fits",
        dict(z1=0.0, z2=0.0, x1=0.0, x2=0.0, j=2.0, t_ad=(8.0,), n_samples=160,
             initial_states=()),
        durations=(1, 1), states=(0, 0),
        fixed=("z1", "z2", "x1", "x2", "zz", "noise_enabled", "dt_us"),
        bounds={"j": (lambda j: j > 0.0, "chevron needs a positive coupling, got {!r}"),
                "n_samples": (lambda n: n >= 3, "chevron needs at least 3, got {!r}")}),
    "fig3": _Scenario("both two-qubit sweep variants: crossing (j=0) and avoided crossing (j=1.7)",
                      dict(**_FIG3, j=1.7)),
    "fig3a": _Scenario("two-qubit sweep with coupling off (j=0): levels cross",
                       dict(**_FIG3, j=0.0)),
    "fig3b": _Scenario("two-qubit sweep with j=1.7 MHz: avoided crossing, adiabatic passage",
                       dict(**_FIG3, j=1.7)),
    "fig4": _Scenario("asymmetric sweep (j=1.3 MHz) over a t_ad sweep: "
                      "diabatic-to-adiabatic crossover", _FIG4),
    "table1": _Scenario("fig4 sweep with noise from |00> and |11> plus zero-time mitigation report",
                        dict(**_FIG4, noise_enabled=True, initial_states=("00", "11")),
                        durations=(3, math.inf)),
    "custom": _Scenario("user-supplied schedule parameters", {}),
}
SCENARIO_NAMES = tuple(_SCENARIOS)
SCENARIO_SUMMARIES = {name: row.summary for name, row in _SCENARIOS.items()}
# Where validate_config reports each kind of broken noise rule.
_NOISE_WHERE = {"t1/t2": "noise", "n_th": "noise.nth"}

# Upper bound on simulation.n_samples: at the bound a Lindblad run holds 12.8 MB
# of Pauli vectors per initial state, and table1 peaks at 164 MB RSS.
_MAX_N_SAMPLES = 100_000
# Upper bound on the RK4 steps of one run over all its durations: at 0.6 us per
# 16x16 Lindblad step in four-step blocks (2-CPU x86-64 host), a minute, not days.
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

    def schedule(self) -> ProtocolSchedule:
        """The sweep shape H(s) shared by every listed duration."""
        return ProtocolSchedule(z1=self.z1, z2=self.z2, x1=self.x1, x2=self.x2,
                                j_final=self.j, zz=self.zz)

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


def _parse_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"not a number: {raw!r}") from None
    if math.isnan(value):
        raise ValueError("NaN is not allowed")
    return value


def _parse_float_list(raw: str) -> tuple[float, ...]:
    items = [piece.strip() for piece in raw.split(",") if piece.strip()]
    if not items:
        raise ValueError("empty list")
    return tuple(_parse_float(piece) for piece in items)


def _parse_pair(raw: str) -> tuple[float, float]:
    values = _parse_float_list(raw)
    if len(values) > 2:
        raise ValueError(f"expected one or two values, got {len(values)}")
    return (values[0], values[-1])


def _parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"not an integer: {raw!r}") from None


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# (parser, formatter) of each kind of field.  A parser raises ValueError
# with the text that validate_config reports under the field.
_FLOAT = (_parse_float, lambda value: repr(float(value)))
_FLOATS = (_parse_float_list, lambda values: ", ".join(repr(float(v)) for v in values))
_PAIR = (_parse_pair, _FLOATS[1])
_INT = (_parse_int, str)
_TEXT = (str.strip, str)

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
     (lambda raw: tuple(p.strip() for p in raw.split(",") if p.strip()),
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
    ("simulation", "shots", "shots", _INT, 0,
     (lambda n: 0 <= n <= MAX_SHOTS, f"must be >= 0 and at most {MAX_SHOTS}, got {{!r}}")),
    ("simulation", "seed", "seed", _INT, 0, _NONNEGATIVE),
    ("output", "directory", "out_dir", _TEXT, "out", (bool, "must be nonempty")),
    ("output", "format", "format", (lambda raw: raw.strip().lower(), str), "csv",
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
    row = _SCENARIOS.get(name)
    if row is None:
        errors.append(f"scenario.name: unknown scenario {name!r}; "
                      f"choose from {', '.join(SCENARIO_NAMES)}")
        return None, errors

    preset = {attr: default for _, _, attr, _, default, _ in _FIELDS if default is not None}
    preset.update(row.preset)
    merged = dict(preset)
    out_of_bounds = set()
    for section, key, attr, (parse, fmt), _, bound in _FIELDS:
        where = f"{section}.{key}"
        if key in raw.get(section, {}):
            try:
                merged[attr] = parse(raw[section][key])
            except ValueError as exc:
                errors.append(f"{where}: {exc}")
        elif attr not in merged:
            errors.append(f"{where}: missing required field for a custom scenario")
        if attr not in merged:  # missing, or unparseable without a preset
            continue
        # A value is reported by the first bound it breaks; an unused field keeps its preset.
        for ok, text in filter(None, (bound, row.bounds.get(attr))):
            if not ok(merged[attr]):
                errors.append(f"{where}: {text.format(merged[attr])}")
                out_of_bounds.add(attr)
                break
        else:
            if attr in row.fixed and merged[attr] != preset[attr]:
                errors.append(f"{where}: {name} does not use it and needs "
                              f"{fmt(preset[attr])}, got {fmt(merged[attr])}")

    # Checks that span several fields (collected, not short-circuited).
    t_ads = merged.get("t_ad", ())
    for idx, t_ad in enumerate(t_ads):
        if not math.isfinite(t_ad) or t_ad <= 0.0:
            errors.append(f"schedule.t_ad[{idx}]: must be positive and finite, got {t_ad}")
    # File names and report keys label a duration with its %g text.
    labels: dict[str, float] = {}
    for t_ad in t_ads:
        label = f"{t_ad:g}"
        if label in labels:
            errors.append(f"schedule.t_ad: durations must be distinct in 6 significant "
                          f"digits, got {labels[label]!r} and {t_ad!r}")
            break
        labels[label] = t_ad
    fewest, most = row.durations
    if len(t_ads) > most:  # a row takes one duration or any number
        errors.append(f"schedule.t_ad: {name} takes one duration, got {len(t_ads)}")
    if t_ads and len(set(t_ads)) < fewest:
        errors.append(f"schedule.t_ad: {name} needs at least {fewest} distinct durations")

    dt, n_samples = merged["dt_us"], merged["n_samples"]
    finite_tads = [t for t in t_ads if math.isfinite(t) and t > 0.0]
    if finite_tads and "dt_us" not in out_of_bounds.union(row.fixed):
        if dt > min(finite_tads) / 100.0:
            errors.append(f"simulation.dt_us: dt too large; need dt <= min(t_ad)/100 = "
                          f"{min(finite_tads) / 100.0}")
        if "n_samples" not in out_of_bounds:
            try:  # a float sum, so that a step count beyond float range reads inf
                steps = sum(n_samples * float(steps_per_interval(t, dt, n_samples))
                            for t in finite_tads)
            except OverflowError:  # t_ad / n_samples / dt is inf
                steps = math.inf
            if steps > _MAX_RK4_STEPS:
                errors.append(f"simulation.dt_us: {dt} needs {steps:.3g} RK4 steps over all "
                              f"durations; at most {_MAX_RK4_STEPS:.0e} are allowed")

    for q in range(2):
        broken = noise_violations(merged["t1_us"][q], merged["t2_us"][q], merged["nth"][q])
        errors += [f"{_NOISE_WHERE[rule]}: qubit {q + 1}: {reason}"
                   for rule, reason in broken.items()]

    states = merged["initial_states"]
    for state in states:
        if state not in BASIS_LABELS:
            errors.append(f"scenario.initial_states: unknown state {state!r}; "
                          f"choose from {', '.join(BASIS_LABELS)}")
    if len(set(states)) != len(states):
        errors.append("scenario.initial_states: states must be distinct")
    fewest, most = row.states
    if len(states) > most:  # a row takes no state or one
        errors.append(f"scenario.initial_states: {name} takes no initial state" if most == 0
                      else f"scenario.initial_states: {name} takes one state, got {len(states)}")
    elif len(states) < fewest:
        errors.append("scenario.initial_states: at least one initial state required")

    if errors:
        return None, errors

    # Exact mode draws no random numbers; canonicalize the seed so equal
    # outputs come from equal configs.
    if merged["shots"] == 0:
        merged["seed"] = 0

    config = ScenarioConfig(**merged)
    return config, []


def read_config_text(path: str) -> str:
    """The text of a UTF-8 config file, without the byte-order mark that some
    editors write first; ConfigParse if it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read().removeprefix("\ufeff")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigParse(f"cannot read config {path}: {exc}") from exc


def load_config(path: str) -> ScenarioConfig:
    """Read and validate a config file; raise ConfigParse on any violation."""
    config, errors = validate_config(read_config_text(path))
    if config is None:
        raise ConfigParse("; ".join(errors))
    return config

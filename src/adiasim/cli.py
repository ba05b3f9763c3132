from __future__ import annotations

import getopt
import os
import sys
from typing import NoReturn

from ._version import __version__
from .analysis import DegenerateTracking, NoInteriorMinimum, WindowOutOfRange, ZeroSlope
from .config import (
    ConfigParse,
    SCENARIO_NAMES,
    SCENARIO_SUMMARIES,
    ScenarioConfig,
    read_config_text,
    validate_config,
)
from .dynamics import StepTooLarge, UnphysicalNoise
from .scenarios import NonFiniteOutput, Unwritable, run_scenario
from .tomography import CorrelatorOutOfRange

# The help that -h and a malformed command line print.  It is the module's
# docstring by assignment, which python -OO does not strip.
_HELP = """adiasim: two-qubit adiabatic-sweep simulator and analysis toolkit.

Usage:

    adiasim run [config] [--scenario NAME] [--out DIR] [--seed N]
    adiasim validate <config>
    adiasim list-scenarios
    adiasim --version
    adiasim [command] -h | --help

``run`` takes a config file, a built-in scenario name, or both (the name
then overrides the one in the file).  Options may come before or after the
config, as ``--out DIR`` or ``--out=DIR``, and by any unique prefix
(``--sc fig4``).  Output-directory precedence: ``--out`` flag, then the
ADIASIM_OUT_DIR environment variable, then the config.  ``validate``
checks a config file and lists every problem; ``list-scenarios`` lists
the built-in scenarios.

Exit codes: 0 success, 2 configuration error (a malformed command line
included), 3 numeric or I/O failure during the run.
"""
__doc__ = _HELP

OUT_DIR_ENV = "ADIASIM_OUT_DIR"

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_NUMERIC = 3

_RUNTIME_ERRORS = (
    StepTooLarge,
    UnphysicalNoise,
    DegenerateTracking,
    NoInteriorMinimum,
    WindowOutOfRange,
    ZeroSlope,
    Unwritable,
    NonFiniteOutput,
    CorrelatorOutOfRange,
)

# Each command's long options besides --help (a trailing "=" marks one that
# takes a value) and the least and most positional arguments it takes.
_COMMANDS = {
    "run": (["scenario=", "out=", "seed="], (0, 1)),
    "validate": ([], (1, 1)),
    "list-scenarios": ([], (0, 0)),
}


def _fail(message: str) -> NoReturn:
    print(_HELP, file=sys.stderr)
    print(f"adiasim: error: {message}", file=sys.stderr)
    raise SystemExit(_EXIT_CONFIG)


def _exit_on_help_or_version(opts: list[tuple[str, str]]) -> None:
    for name, _ in opts:
        if name in ("-h", "--help"):
            print(_HELP, end="")
            raise SystemExit(_EXIT_OK)
        if name == "--version":
            print(f"adiasim {__version__}")
            raise SystemExit(_EXIT_OK)


def _parse(argv: list[str]) -> tuple[str, dict, list[str]]:
    """``(command, options, positional arguments)`` of a command line.

    Ends with SystemExit: 0 after printing the help or the version, 2 after
    printing the usage and the error of a malformed line.
    """
    try:
        # Before the command only -h, --help and --version are options.
        opts, rest = getopt.getopt(argv, "h", ["help", "version"])
        _exit_on_help_or_version(opts)
        if not rest:
            _fail("no command given")
        command = rest[0]
        if command not in _COMMANDS:
            _fail(f"unknown command {command!r} (choose from {', '.join(_COMMANDS)})")
        long_opts, (least, most) = _COMMANDS[command]
        opts, args = getopt.gnu_getopt(rest[1:], "h", ["help", *long_opts])
    except getopt.GetoptError as exc:
        _fail(str(exc))
    _exit_on_help_or_version(opts)
    if not least <= len(args) <= most:
        _fail(f"{command}: expected {'at most ' if least < most else ''}{most} "
              f"argument(s), got {len(args)}")
    options = {name[2:]: value for name, value in opts}
    if "seed" in options:
        try:
            options["seed"] = int(options["seed"])
        except ValueError:
            _fail(f"option --seed: invalid integer {options['seed']!r}")
    return command, options, args


def _load_run_config(config_path: str | None, options: dict) -> ScenarioConfig:
    scenario, seed = options.get("scenario"), options.get("seed")
    if config_path is None and scenario is None:
        raise ConfigParse("provide a config file, --scenario, or both")
    text = "" if config_path is None else read_config_text(config_path)
    config, errors = validate_config(text, override_name=scenario)
    if config is None:
        raise ConfigParse("; ".join(errors))
    out_dir = options.get("out") or os.environ.get(OUT_DIR_ENV)
    if out_dir:
        config = config.with_(out_dir=out_dir)
    if seed is not None and seed < 0:
        raise ConfigParse(f"--seed must be >= 0, got {seed}")
    if seed is not None and config.shots > 0:
        config = config.with_(seed=seed)
    return config


def _cmd_run(config_path: str | None, options: dict) -> int:
    try:
        config = _load_run_config(config_path, options)
    except ConfigParse as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    try:
        paths = run_scenario(config)
    except _RUNTIME_ERRORS as exc:
        print(f"run failed ({type(exc).__name__}): {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    print(f"scenario {config.name}: wrote {len(paths)} files to {config.out_dir}")
    for path in paths:
        print(f"  {path}")
    return _EXIT_OK


def _cmd_validate(path: str) -> int:
    try:
        text = read_config_text(path)
    except ConfigParse as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    config, errors = validate_config(text)
    if config is None:
        print(f"invalid config ({len(errors)} problem(s)):", file=sys.stderr)
        for error in errors:
            print(f"  - {error}", file=sys.stderr)
        return _EXIT_CONFIG
    print("valid config; effective settings:")
    print(config.to_text(), end="")
    return _EXIT_OK


def _cmd_list_scenarios() -> int:
    width = max(len(name) for name in SCENARIO_NAMES)
    for name in SCENARIO_NAMES:
        print(f"{name:<{width}}  {SCENARIO_SUMMARIES[name]}")
    return _EXIT_OK


def main(argv: list[str] | None = None) -> int:
    command, options, args = _parse(sys.argv[1:] if argv is None else argv)
    if command == "run":
        return _cmd_run(args[0] if args else None, options)
    if command == "validate":
        return _cmd_validate(args[0])
    return _cmd_list_scenarios()


if __name__ == "__main__":
    sys.exit(main())

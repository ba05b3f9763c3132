"""Command-line interface: run scenarios, validate configs, list presets.

Commands:

    adiasim run [config] [--scenario NAME] [--out DIR] [--seed N]
    adiasim validate <config>
    adiasim list-scenarios

``run`` takes a config file, a built-in scenario name, or both (the name
then overrides the one in the file).  Output-directory precedence:
``--out`` flag, then the ADIASIM_OUT_DIR environment variable, then the
config.  Exit codes: 0 success, 2 configuration error, 3 numeric or I/O
failure during the run.
"""

from __future__ import annotations

import argparse
import os
import sys

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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adiasim",
        description="two-qubit adiabatic-sweep simulator and analysis toolkit",
    )
    parser.add_argument("--version", action="version", version=f"adiasim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and write its data files")
    run_p.add_argument("config", nargs="?", default=None,
                       help="path to a config file (optional when --scenario is given)")
    run_p.add_argument("--scenario", default=None, choices=SCENARIO_NAMES,
                       help="built-in scenario name (overrides the config file's)")
    run_p.add_argument("--out", default=None, help="output directory override")
    run_p.add_argument("--seed", type=int, default=None, help="seed override")

    val_p = sub.add_parser("validate", help="check a config file, list all violations")
    val_p.add_argument("config", help="path to a config file")

    sub.add_parser("list-scenarios", help="list built-in scenarios")
    return parser


def _load_run_config(args) -> ScenarioConfig:
    if args.config is None and args.scenario is None:
        raise ConfigParse("provide a config file, --scenario, or both")
    text = "" if args.config is None else read_config_text(args.config)
    config, errors = validate_config(text, override_name=args.scenario)
    if config is None:
        raise ConfigParse("; ".join(errors))
    out_dir = args.out or os.environ.get(OUT_DIR_ENV)
    if out_dir:
        config = config.with_(out_dir=out_dir)
    if args.seed is not None and args.seed < 0:
        raise ConfigParse(f"--seed must be >= 0, got {args.seed}")
    if args.seed is not None and config.shots > 0:
        config = config.with_(seed=args.seed)
    return config


def _cmd_run(args) -> int:
    try:
        config = _load_run_config(args)
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


def _cmd_validate(args) -> int:
    try:
        text = read_config_text(args.config)
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
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "validate":
        return _cmd_validate(args)
    return _cmd_list_scenarios()


if __name__ == "__main__":
    sys.exit(main())

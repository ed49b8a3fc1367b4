"""Command-line entry point.

Each experiment of ``harness.REGISTRY`` is a subcommand; each accepts
--config (JSON overrides merged onto the experiment's defaults), --out,
--seed, and --format. Exit codes: 0 all assertions passed, 1 an experiment-level
assertion failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .harness import (
    REGISTRY,
    ExperimentConfig,
    default_config_for,
    emit,
    merge_config,
    run_experiment,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adamlab",
        description="Reshuffled-Adam experiments on non-uniformly smooth finite sums",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for exp in REGISTRY.values():
        p = sub.add_parser(exp.command, help=f"run the {exp.name} experiment")
        p.add_argument("--config", type=str, default=None, help="JSON config overrides")
        p.add_argument("--out", type=str, default=None, help="output directory (default: out)")
        p.add_argument("--seed", type=int, default=None, help="replace the seed list with one seed")
        p.add_argument("--format", type=str, choices=("csv", "json"), default=None)
    return parser


def load_config(command: str, args: argparse.Namespace) -> ExperimentConfig:
    [name] = [exp.name for exp in REGISTRY.values() if exp.command == command]
    config = default_config_for(name)
    if args.config is not None:
        with open(args.config) as fh:
            overrides = json.load(fh)
        if not isinstance(overrides, dict):
            raise ValueError("config file must hold a JSON object")
        if overrides.setdefault("experiment", name) != name:
            raise ValueError(f"config experiment {overrides['experiment']!r} does not match subcommand")
        config = merge_config(config, overrides)
    if args.seed is not None:
        config.seeds = [args.seed]
    if args.format is not None:
        config.format = args.format
    if args.out is not None:
        config.out_dir = args.out
    config.validate()
    return config


def check_out_root(path: str) -> None:
    """Refuse an output root that emit cannot create; creates nothing."""
    probe = os.path.abspath(path)
    while not os.path.lexists(probe):
        probe = os.path.dirname(probe)
    if not (os.path.isdir(probe) and os.access(probe, os.W_OK | os.X_OK)):
        raise OSError(f"{path}: unusable output directory ({probe} is not a writable directory)")


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.command, args)
        out_root = config.out_dir or "out"
        check_out_root(out_root)
        result = run_experiment(config)
        paths = emit(result, out_root, config.format)
    except (ValueError, OSError) as exc:  # theory.ConstraintViolation included
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    conclusions = result.report["conclusions"]
    print(f"experiment: {config.experiment}")
    for key in sorted(conclusions):
        print(f"  {key}: {conclusions[key]}")
    print(f"wrote {len(paths)} files under {out_root}/{config.experiment}")
    if not result.ok:
        print("assertion failure: see report.json conclusions", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

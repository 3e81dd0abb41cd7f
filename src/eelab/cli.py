"""Command-line entry point.

    eelab <experiment> [--config FILE] [--seed N] [--out DIR] [--force]

Exit codes: 0 success, 1 config error, 2 runtime/numeric/I-O error.
"""

from __future__ import annotations

import argparse
import sys

from .config import EXPERIMENTS, read_config, validate_config
from .errors import ConfigError, EelabError
from .experiments import run_experiment


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as config errors (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eelab",
        description="Desk-scale MCMC experiments: equi-energy ladders, "
                    "kernel spectra, and cluster-move segmentation.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS,
                        help="which experiment to run")
    parser.add_argument("--config", metavar="FILE",
                        help="JSON config file (defaults apply without one)")
    parser.add_argument("--seed", type=int, metavar="N",
                        help="override the config seed")
    parser.add_argument("--out", metavar="DIR",
                        help="output directory (default runs/<experiment>)")
    parser.add_argument("--force", action="store_true",
                        help="overwrite a non-empty output directory")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        raw = read_config(args.config) if args.config is not None else {}
        if args.seed is not None and isinstance(raw, dict):
            raw = {**raw, "seed": args.seed}  # validated like a config key
        # validated once, so the model is built once
        config = validate_config(raw, experiment=args.experiment)
        out = run_experiment(config, out_dir=args.out, force=args.force)
    except ConfigError as exc:
        print(f"eelab: config error: {exc}", file=sys.stderr)
        return 1
    except (EelabError, OSError, FloatingPointError) as exc:
        print(f"eelab: error: {exc}", file=sys.stderr)
        return 2
    print(f"eelab: {config.experiment} complete, artifacts in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line harness: dataset -> engine -> counts -> table.

Exit codes: 0 on success, 1 when verification finds a failure, 2 on an
invalid or refused configuration.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .bench import (
    _DEFAULTS, ConfigError, ExperimentConfig, render_table, run_experiment, run_verify
)
from .datasets import DatasetKind


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopsort",
        description="Comparison-count benchmarks for the hop-link mergesort.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run a dataset sweep of both engines and emit the table")
    bench.add_argument("--dataset", required=True, choices=[k.value for k in DatasetKind])
    bench.add_argument("--k", type=int, help=f"distinct-key bound (default {_DEFAULTS['k']})")
    bench.add_argument("--exp-min", type=int, default=7, help="smallest n as a power of two")
    bench.add_argument("--exp-max", type=int, default=16, help="largest n as a power of two")
    trials_help = f"seeded trials per row (default {_DEFAULTS['trials']})"
    bench.add_argument("--trials", type=int, help=trials_help)
    seed_help = f"base seed; trial t uses seed+t (default {_DEFAULTS['base_seed']})"
    bench.add_argument("--seed", dest="base_seed", metavar="SEED", type=int, help=seed_help)

    verify = sub.add_parser("verify", help="randomized audit of both engines")
    verify.add_argument("--trials", type=int, default=1000)
    verify.add_argument("--max-n", type=int, default=256)
    verify.add_argument("--max-key", type=int, default=16)
    verify.add_argument("--seed", type=int, default=1)

    return parser


def _cmd_bench(args: argparse.Namespace) -> int:
    config = ExperimentConfig(**{f.name: getattr(args, f.name) for f in fields(ExperimentConfig)})
    sys.stdout.write(render_table(run_experiment(config).rows))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    summary = run_verify(args.trials, args.max_n, args.max_key, args.seed)
    print(f"verify: {summary.passed}/{summary.trials} trials passed")
    if summary.ok:
        return 0
    trial, reason = summary.failures[0]
    print(f"first failure: trial {trial} (seed {args.seed + trial}): {reason}")
    print(f"failing trials: {len(summary.failures)}")
    return 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_verify(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

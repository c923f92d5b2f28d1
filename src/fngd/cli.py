"""Command-line front door: train, verify, bench.

The FNGD_OUTPUT_DIR environment variable, when set, redirects every
output file of a run into that directory (file names kept).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import theory
from .config import ConfigError, load_train_config
from .train import TrainingError, run_bench, run_train

__all__ = ["main"]

OUTPUT_DIR_ENV = "FNGD_OUTPUT_DIR"


def _seed(text: str) -> int:
    """A seed for numpy's PCG64, which refuses negative ones."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


class _Parser(argparse.ArgumentParser):
    """Refuses bad arguments with one `error:` line and exit 2, as every
    other set-up refusal does; subparsers are made from this class too."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fngd",
        description="Natural gradient descent as a weighted sum of per-sample "
                    "gradients, with epoch-one coefficient sharing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a model per a config file")
    train.add_argument("--config", required=True, help="path to the run config")

    verify = sub.add_parser("verify", help="run the identity and convergence checks")
    verify.add_argument("--seed", type=_seed, default=0)
    verify.add_argument("--verbose", action="store_true",
                        help="also print each check's description")

    bench = sub.add_parser("bench", help="train every optimizer variant; per-phase "
                                         "epoch time and final accuracy")
    bench.add_argument("--config", required=True)
    return parser


def _run_verify(seed: int, verbose: bool) -> int:
    failures = 0
    for res in theory.run_checks(seed=seed):
        status = "PASS" if res.passed else "FAIL"
        line = (f"{status} {res.name:28s} measured={res.measured:.3e} "
                f"threshold={res.threshold:.1e}")
        if verbose and res.detail:
            line += f"  ({res.detail})"
        print(line)
        failures += 0 if res.passed else 1
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "verify":
        return _run_verify(args.seed, args.verbose)

    out_dir = os.environ.get(OUTPUT_DIR_ENV) or None
    try:
        cfg = load_train_config(args.config, out_dir=out_dir)
        if args.command == "train":
            result = run_train(cfg, log=print)
            print(f"metrics written to {result.metrics_path}")
        else:
            out = run_bench(cfg, log=print)
            print(f"bench table written to {out}")
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

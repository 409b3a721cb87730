"""Command-line entry point.

Subcommands map to experiment families: plain runs, the stability-boundary
sweep, and treatment/control comparisons. ``run`` and ``compare`` run a cell
for every delay process the config lists.
Configurations come from a preset name or an INI file; a few flags override
the basics. A config with an ``[environment.sweep]`` runs the subcommand once
per swept position, each under its own label and output subdirectory.
"""

from __future__ import annotations

import argparse
import sys

from delayopt.config import ConfigError, _int_list, load_config
from delayopt.harness import (
    print_summary,
    run_controlled_comparison,
    run_experiment,
    run_stability_sweep,
)
from delayopt.metrics import SearchError
from delayopt.presets import load_preset, preset_names


# subcommand -> (help, entry point taking the config and the worker count)
COMMANDS = {
    "run": ("run every (algorithm, delay, seed) cell and summarize",
            lambda cfg, parallel: print_summary(run_experiment(cfg, parallel=parallel).summary)),
    "stability": ("binary-search the maximum stable learning rate", run_stability_sweep),
    "compare": ("treatment vs control regret with Welch p-values", run_controlled_comparison),
}


def _add_common(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="path to an INI experiment config")
    src.add_argument("--preset", help=f"built-in preset ({', '.join(preset_names())})")
    p.add_argument("--out", help="output directory override")
    p.add_argument("--seeds", help="comma-separated seed list override")
    p.add_argument("--parallel", type=int, default=1, help="worker processes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="delayopt", description="Online bilevel optimization under "
                                     "delayed feedback: experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in COMMANDS.items():
        _add_common(sub.add_parser(name, help=help_text))
    return parser


def _load(args) -> "ExperimentConfig":
    if args.parallel < 1:
        raise ConfigError(f"--parallel must be >= 1, got {args.parallel}")
    cfg = load_config(args.config) if args.config else load_preset(args.preset)
    # an empty override is an error for validate(), not a fall-back to the config
    if args.out is not None:
        cfg.out_dir = args.out
    if args.seeds is not None:
        cfg.seeds = _int_list(args.seeds, "--seeds")
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        for label, variant in cfg.variants():
            if label:
                print(f"-- {label}")
            COMMANDS[args.command][1](variant, parallel=args.parallel)
    except (ConfigError, SearchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Subcommands map to experiment families: plain runs, the stability-boundary
sweep, treatment/control comparisons, the inner-iteration sweep, and the
delay-pattern comparison. Configurations come from a preset name or an INI
file; a few flags override the basics.
"""

from __future__ import annotations

import argparse
import sys

from delayopt.config import ConfigError, _int_list, load_config
from delayopt.harness import (
    print_summary,
    run_controlled_comparison,
    run_delay_patterns,
    run_experiment,
    run_k_sweep,
    run_stability_sweep,
)
from delayopt.metrics import SearchError
from delayopt.presets import load_preset, preset_names


def _add_common(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="path to an INI experiment config")
    src.add_argument("--preset", help=f"built-in preset ({', '.join(preset_names())})")
    p.add_argument("--out", help="output directory override")
    p.add_argument("--seeds", help="comma-separated seed list override")
    p.add_argument("--parallel", type=int, default=1, help="worker processes")


def _load(args) -> "ExperimentConfig":
    cfg = load_config(args.config) if args.config else load_preset(args.preset)
    if args.out:
        cfg.out_dir = args.out
    if args.seeds:
        cfg.seeds = _int_list(args.seeds, "--seeds")
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="delayopt",
        description="Online bilevel optimization under delayed feedback: experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run every (algorithm, delay, seed) cell and summarize")
    _add_common(p_run)

    p_st = sub.add_parser("stability", help="binary-search the maximum stable learning rate")
    _add_common(p_st)

    p_cmp = sub.add_parser("compare", help="treatment vs control regret with Welch p-values")
    _add_common(p_cmp)

    p_k = sub.add_parser("sweep-k", help="controlled comparison across inner-solver budgets")
    _add_common(p_k)
    p_k.add_argument("--k-values", default="1,3,5,10,20,50", help="inner iteration counts")

    p_pat = sub.add_parser("delay-patterns", help="constant vs uniform vs bursty delays")
    _add_common(p_pat)

    args = parser.parse_args(argv)
    try:
        cfg = _load(args)
        if args.command == "sweep-k":
            ks = _int_list(args.k_values, "--k-values")
    except (ConfigError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "run":
            result = run_experiment(cfg, parallel=args.parallel)
            print_summary(result.summary)
        elif args.command == "stability":
            run_stability_sweep(cfg, parallel=args.parallel)
        elif args.command == "compare":
            run_controlled_comparison(cfg, parallel=args.parallel)
        elif args.command == "sweep-k":
            run_k_sweep(cfg, ks, parallel=args.parallel)
        elif args.command == "delay-patterns":
            run_delay_patterns(cfg, parallel=args.parallel)
    except (ConfigError, SearchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

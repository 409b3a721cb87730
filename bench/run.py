"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload sinkhorn_compare --seed 0 --seconds 20 --trace 0

``--trace 0`` runs the workload's harness call at least three times, and again
while ``--seconds`` last, and reports the end-to-end metrics; ``--trace 1``
then also runs two traced calls and reports the per-layer metrics instead. A readable report goes first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. Workloads: sinkhorn_compare, grid_transport, lqr_stability.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# the baseline seed; a claimed gain tuned on it is confirmed on the held-out one
DEFAULT_SEED = 0
HELD_OUT_SEED = 17


def pin_threads() -> None:
    """One BLAS thread: must run before numpy is first imported."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"


def use_checkout_source() -> None:
    """Import delayopt from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "delayopt", "__init__.py")):
        sys.exit(f"bench: no delayopt sources under {SRC}")
    sys.path.insert(0, SRC)
    import delayopt

    if os.path.dirname(os.path.dirname(os.path.abspath(delayopt.__file__))) != SRC:
        sys.exit(f"bench: delayopt imported from {delayopt.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (baseline {DEFAULT_SEED}, held out {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="repeat the harness call while this lasts (at least 3 calls)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run two traced calls and report per-layer metrics")
    args = parser.parse_args(argv)

    pin_threads()
    use_checkout_source()
    import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    out = measure.run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in out["report"]:
        print(line)
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

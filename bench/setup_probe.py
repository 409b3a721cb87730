"""Set-up time of one workload in a fresh process.

Prints the seconds from this process's start, before delayopt is imported, to
the workload's first ``begin_round``: imports, config parse, and the harness's
work up to the first round, including the first environment build. The
harness call is abandoned at that point. Then it prints the median speed probe
(ms) measured right afterwards, so the time can be scaled to the reference
host speed.

    python3 bench/setup_probe.py --workload lqr_stability --seed 0 --out DIR
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import run  # noqa: E402


class FirstRound(Exception):
    """Raised from the first begin_round to abandon the harness call."""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="bench")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    run.pin_threads()
    run.use_checkout_source()
    from instrument import Patches, speed_probe
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    cfg = workload.config(args.seed, args.size, args.out)
    reached: list[float] = []

    def stop_at_first_round(run_online):
        def first_round_only(env, *a, **kw):
            def begin_round(t):
                reached.append(perf_counter())
                raise FirstRound

            env.begin_round = begin_round
            return run_online(env, *a, **kw)
        return first_round_only

    with Patches() as patches:
        patches.replace(importlib.import_module("delayopt.harness"), "run_online", stop_at_first_round)
        try:
            workload.call(cfg)
        except FirstRound:
            pass
    if not reached:
        sys.exit("setup probe: the workload never reached begin_round")
    # host speed right after, outside the measured interval
    probe_ms = statistics.median(speed_probe() for _ in range(50))
    print(f"{reached[0] - T0:.9f} {probe_ms:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

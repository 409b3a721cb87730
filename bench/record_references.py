"""Record the reference outputs the benchmark checks against.

    python3 bench/record_references.py --workload grid_transport --seeds 0-31

Runs the workload's harness call once per seed at bench size and stores what
the output checks compare: the per-cell mean loss (sinkhorn_compare,
grid_transport) or each eta_max (lqr_stability). Entries are keyed by a
fingerprint of the workload config, so a changed config makes its old
references unusable rather than silently wrong. A seed whose call raises or
fails an invariant is not recorded. Re-record only when a workload's config
changes, or when a change to delayopt alters these outputs on purpose.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

import run


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 0-31 or 0,17")
    args = parser.parse_args()

    run.pin_threads()
    run.use_checkout_source()
    import measure
    from workloads import REFERENCES, WORKLOADS

    workload = WORKLOADS[args.workload]
    recorded: dict[str, dict[str, float]] = {}
    for seed in parse_seeds(args.seeds):
        os.makedirs(measure.OUT_ROOT, exist_ok=True)
        out_dir = tempfile.mkdtemp(prefix=f"ref-{workload.name}-", dir=measure.OUT_ROOT)
        try:
            call = measure.run_call(workload, seed, "bench", out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if call.failures:
            print(f"seed {seed}: NOT recorded: {[f.message for f in call.failures]}", file=sys.stderr)
            continue
        recorded[str(seed)] = workload.observe(call.cfg, call.output, call.runs)
        print(f"seed {seed}: {call.wall_s:.1f}s {recorded[str(seed)]}", flush=True)

    stored = {}
    if os.path.exists(REFERENCES):
        with open(REFERENCES, encoding="utf-8") as fh:
            stored = json.load(fh)
    entry = stored.get(workload.name, {})
    fingerprint = measure.config_fingerprint(workload)
    if entry.get("config") != fingerprint:
        entry = {"config": fingerprint, "seeds": {}}
    entry["seeds"].update(recorded)
    entry["seeds"] = dict(sorted(entry["seeds"].items(), key=lambda kv: int(kv[0])))
    stored[workload.name] = entry
    tmp = REFERENCES + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(stored.items())), fh, indent=1)
        fh.write("\n")
    os.replace(tmp, REFERENCES)
    return 0


if __name__ == "__main__":
    sys.exit(main())

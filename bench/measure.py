"""One benchmark run of one workload: repeated harness calls, output checks,
set-up probes, and (traced) per-layer metrics.

The workload's harness call runs at least ``MIN_CALLS`` times and repeats
while the requested seconds last; the end-to-end metrics come from these
calls. Traced, two further calls run under the span tracer; their exact
operation counts must agree, and their spans give the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import warnings
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Optional

import numpy as np

from instrument import Patches, RoundClock, RunRecord, Tracer, speed_probe
from workloads import HERE, REFERENCES, WORKLOADS, Failure, Workload

ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 7
# per-round minima over calls need repeats; more run while --seconds last
MIN_CALLS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "rounds_per_s": "rounds/s",
    "round_ms.p50": "ms",
    "round_ms.p99": "ms",
    "loss_per_round": "loss/round",
    "peak_rss_mb": "MB",
}

# speed-probe duration (ms) on the development host (2-core x86-64 VM,
# Python 3.11, numpy 2.4, one BLAS thread) when its hyperthread sibling is
# idle; timed metrics are scaled to a host that runs the probe this fast
PROBE_REFERENCE_MS = 0.055
# rounds on each side of a round whose probes give its local host speed
PROBE_HALF_WINDOW = 4


@dataclass
class Call:
    """One harness call: its wall time, runs, output, and check results."""

    wall_s: float
    runs: list[RunRecord]
    output: Any
    attempted: int
    failures: list[Failure] = field(default_factory=list)
    warnings: int = 0
    tracer: Optional[Tracer] = None
    cfg: Any = None


def host_scale(probe_ms: np.ndarray) -> np.ndarray:
    """Per-round factor that maps a round's time to the reference host speed.

    The local speed is the median probe over the round and its neighbours:
    the host switches speed every second or so, far slower than a round.
    """
    if len(probe_ms) == 0:
        return np.ones(0)
    padded = np.pad(probe_ms, PROBE_HALF_WINDOW, mode="edge")
    window = np.lib.stride_tricks.sliding_window_view(padded, 2 * PROBE_HALF_WINDOW + 1)
    return PROBE_REFERENCE_MS / np.median(window, axis=1)


def config_fingerprint(workload: Workload) -> str:
    text = workload.template + repr(sorted(workload.sizes["bench"].items()))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def load_reference(workload: Workload, seed: int, size: str) -> Optional[dict[str, float]]:
    if size != "bench" or not os.path.exists(REFERENCES):
        return None
    with open(REFERENCES, encoding="utf-8") as fh:
        stored = json.load(fh).get(workload.name)
    if stored is None or stored["config"] != config_fingerprint(workload):
        return None
    return stored["seeds"].get(str(seed))


def run_call(workload: Workload, seed: int, size: str, out_dir: str, trace: bool = False) -> Call:
    """Run the workload's harness call once and check its outputs."""
    cfg = workload.config(seed, size, out_dir)
    tracer = Tracer() if trace else None
    # traced, the probe is a span of its own so no layer's self time holds it
    clock = RoundClock(tracer.wrap(speed_probe, "bench.speed_probe") if tracer else speed_probe)
    output, error = None, None
    # the harness prints progress lines; keep stdout for the report
    with Patches() as patches, warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        clock.install(patches)
        if tracer is not None:
            tracer.install(patches)
            # the parse is set-up work; traced for config.parse_config.ms only
            cfg = workload.config(seed, size, out_dir)
        t0 = perf_counter()
        try:
            output = workload.call(cfg)
        except Exception as exc:  # a failed call is counted, not fatal
            error = exc
            traceback.print_exc(file=sys.stderr)
        wall = perf_counter() - t0
    attempted = max(workload.planned_runs(cfg), clock.started, 1)
    call = Call(wall_s=wall, runs=clock.runs, output=output, attempted=attempted,
                warnings=len(caught), tracer=tracer, cfg=cfg)
    if error is not None:
        call.failures.append(Failure(attempted, f"harness call raised {error!r}"))
    else:
        call.failures.extend(workload.invariants(cfg, output, clock.runs))
    return call


def check_against(workload: Workload, call: Call, reference: dict[str, float]) -> None:
    """Compare the call's observed values with a reference, key by key."""
    if call.output is None:
        return
    observed = workload.observe(call.cfg, call.output, call.runs)
    for key in sorted(set(reference) | set(observed)):
        if key not in observed or key not in reference:
            call.failures.append(Failure(1, f"{key}: present on one side only"))
        elif not workload.matches(call.cfg, observed[key], reference[key]):
            call.failures.append(Failure(
                max(1, workload.runs_of_key(key, call.runs)),
                f"{key}: {observed[key]!r} != reference {reference[key]!r}"))


def setup_probe(workload: Workload, seed: int, size: str, out_dir: str) -> tuple[float, float]:
    """Seconds from a fresh process's start to the workload's first
    begin_round, and the speed probe (ms) that process measured right after."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"),
         "--workload", workload.name, "--seed", str(seed), "--size", size, "--out", out_dir],
        capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, probe_ms = proc.stdout.split()[-2:]
    return float(seconds), float(probe_ms)


def environment_info(seed: int) -> dict[str, Any]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def _arrivals(run: RunRecord) -> int:
    # constant delay d: round s arrives at s + d, processed while s + d <= rounds run
    if run.delay_kind != "constant":
        raise ValueError("arrival count is defined for constant delays only")
    return max(0, run.result.rounds_logged - run.d)


def _shape(call: Call) -> list[tuple]:
    return [(r.algorithm, r.delay, r.seed, len(r.round_ms)) for r in call.runs]


def outside_rounds_s(call: Call) -> float:
    """Seconds of a call spent outside rounds and probes: environment builds,
    CSV writing, summaries."""
    return call.wall_s - sum(float(r.round_ms.sum() + r.probe_ms.sum()) for r in call.runs) / 1e3


def steady_times(calls: list[Call]) -> tuple[np.ndarray, float]:
    """Per-round times (ms) and the call time they add up to (s), at the
    reference host speed and with host disturbances removed.

    Each round's time is scaled by the host speed the probes measured around
    it. The scaling is approximate: slow spells still read somewhat slow. The
    calls of a run repeat identical, deterministic work, so a cost the code
    causes recurs in every call while a host disturbance does not. Each
    round's scaled time is therefore its minimum over the calls, and so is the
    scaled time a call spends outside rounds. Probe time counts nowhere.
    """
    per_call = []
    for c in calls:
        scales = [host_scale(r.probe_ms) for r in c.runs]
        rounds = np.concatenate([r.round_ms * k for r, k in zip(c.runs, scales)])
        outside = outside_rounds_s(c) * float(np.median(np.concatenate(scales)))
        per_call.append((rounds, outside))
    round_ms = np.min(np.stack([rounds for rounds, _ in per_call]), axis=0)
    outside = min(o for _, o in per_call)
    return round_ms, float(round_ms.sum()) / 1e3 + outside


def end_to_end(calls: list[Call]) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
    """End-to-end values over untraced calls, their sample counts, and the
    unscaled, unfiltered values over all calls for comparison.

    Only calls that repeat the first call's runs are used.
    """
    calls = [c for c in calls if c.runs and _shape(c) == _shape(calls[0])]
    if not calls:
        raise RuntimeError("no harness call completed a run; nothing to measure")
    runs = [r for c in calls for r in c.runs]
    all_ms = np.concatenate([r.round_ms for r in runs])
    round_ms, call_s = steady_times(calls)
    kept = [r for r in calls[0].runs if not r.result.diverged]
    arrivals = sum(_arrivals(r) for r in runs)
    values = {
        "rounds_per_s": len(round_ms) / call_s,
        "round_ms.p50": float(np.percentile(round_ms, 50)),
        "round_ms.p99": float(np.percentile(round_ms, 99)),
        # median over runs: a stability sweep's mean is dominated by probes
        # just inside the stability boundary
        "loss_per_round": float(np.median([r.result.cumulative_loss / r.result.rounds_logged
                                           for r in kept])),
        "arrival_skip_ratio": sum(r.result.skipped_arrivals for r in runs) / max(arrivals, 1),
    }
    counts = {
        "rounds_per_s": len(calls), "round_ms.p50": len(round_ms), "round_ms.p99": len(round_ms),
        "loss_per_round": len(kept), "arrival_skip_ratio": arrivals,
    }
    raw = {
        "rounds_per_s": len(all_ms) / sum(c.wall_s - sum(float(r.probe_ms.sum()) for r in c.runs) / 1e3
                                          for c in calls),
        "round_ms.p50": float(np.percentile(all_ms, 50)),
        "round_ms.p99": float(np.percentile(all_ms, 99)),
        "loss_per_round": sum(r.result.cumulative_loss for r in kept)
        / sum(r.result.rounds_logged for r in kept),
    }
    return values, counts, raw


def per_layer(traced: list[Call]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per traced call (averaged over the traced calls).

    Layers that only some workloads exercise report their time as a share of
    the traced harness wall time, so no timed metric is identically zero.
    """
    tracers = [c.tracer for c in traced]
    n = len(tracers)
    # shares are of the harness call's time without the speed probes
    wall_s = sum(c.wall_s - sum(float(r.probe_ms.sum()) for r in c.runs) / 1e3 for c in traced)
    agg: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    outcomes = 0
    for tr in tracers:
        for name, a in tr.aggregate().items():
            slot = agg.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in slot:
                slot[k] += a[k]
        for k, v in tr.counters.items():
            counters[k] = counters.get(k, 0) + v
        outcomes += tr.distinct_outcomes

    def calls(name):
        return agg.get(name, {}).get("calls", 0) / n

    def total_ms(name):
        return agg.get(name, {}).get("total_s", 0.0) * 1e3 / n

    def self_ms(name):
        return agg.get(name, {}).get("self_s", 0.0) * 1e3 / n

    def share(*names):
        return 100.0 * sum(agg.get(m, {}).get("self_s", 0.0) for m in names) / wall_s

    def count(key):
        return counters.get(key, 0) / n

    def ratio(a, b):
        return a / b if b else 0.0

    rounds = count("runner.rounds")
    transport = [m for m in agg if m.startswith("transport.")]
    comparator_calls = calls("environments.comparator_round_loss")
    m: dict[str, tuple[float, str]] = {
        "runner.rounds": (rounds, "count"),
        "runner.self_ms_per_round": (ratio(self_ms("runner.run_online"), rounds), "ms"),
        "delays.sample.us_per_call": (1e3 * ratio(total_ms("delays.sample"), calls("delays.sample")), "us"),
        "delays.queue.us_per_round": (
            1e3 * ratio(total_ms("delays.dispatch") + total_ms("delays.advance"), rounds), "us"),
        "delays.arrivals": (count("delays.arrivals"), "count"),
        "optimizers.round_gradient.calls": (calls("optimizers.round_gradient"), "count"),
        "optimizers.round_gradient.self_ms": (self_ms("optimizers.round_gradient"), "ms"),
        "optimizers.base_update.us_per_call": (
            1e3 * ratio(total_ms("optimizers.base_update"), calls("optimizers.base_update")), "us"),
        "transport.solve_adjoint.calls": (calls("transport.solve_adjoint"), "count"),
        "transport.solve_adjoint.self_share_pct": (share("transport.solve_adjoint"), "%"),
        "transport.transport_step.self_ms": (self_ms("transport.transport_step"), "ms"),
        "transport.reeval_entries": (count("transport.reeval_entries"), "count"),
        "transport.reeval_entries_per_round": (
            ratio(count("transport.reeval_entries"), calls("transport.transport_step")), "entries/round"),
        "transport.hypergradient_at.calls": (calls("transport.hypergradient_at"), "count"),
        "transport.hypergradient_at.share_pct": (share("transport.hypergradient_at"), "%"),
        "transport.evictions": (count("transport.evictions"), "count"),
        "transport.error_surrogates.ms_per_round": (
            ratio(total_ms("transport.error_surrogates"), rounds), "ms"),
        "transport.share_pct": (share(*transport), "%"),
        "solvers.sinkhorn_log.calls": (calls("solvers.sinkhorn_log"), "count"),
        "solvers.sinkhorn_log.sweeps": (count("solvers.sinkhorn_log.sweeps"), "count"),
        "solvers.sinkhorn_log.share_pct": (share("solvers.sinkhorn_log"), "%"),
        "solvers.conjugate_gradient.calls": (calls("solvers.conjugate_gradient"), "count"),
        "solvers.conjugate_gradient.iterations": (count("solvers.conjugate_gradient.iterations"), "count"),
        "solvers.conjugate_gradient.iters_per_solve": (
            ratio(count("solvers.conjugate_gradient.iterations"), calls("solvers.conjugate_gradient")),
            "iterations"),
        "solvers.conjugate_gradient.share_pct": (share("solvers.conjugate_gradient"), "%"),
        "solvers.dijkstra_grid.calls": (calls("solvers.dijkstra_grid"), "count"),
        "solvers.dijkstra_grid.calls_per_round": (ratio(calls("solvers.dijkstra_grid"), rounds), "calls/round"),
        "solvers.dijkstra_grid.share_pct": (share("solvers.dijkstra_grid"), "%"),
        "solvers.inner_gd.calls": (calls("solvers.inner_gd"), "count"),
        "solvers.inner_gd.share_pct": (share("solvers.inner_gd"), "%"),
        "environments.make_environment.calls": (calls("environments.make_environment"), "count"),
        "environments.make_environment.ms": (total_ms("environments.make_environment"), "ms"),
        "environments.begin_round.ms": (total_ms("environments.begin_round"), "ms"),
        "environments.solve_inner.self_ms": (self_ms("environments.solve_inner"), "ms"),
        "environments.realize_outcome.self_ms": (self_ms("environments.realize_outcome"), "ms"),
        "environments.comparator_round_loss.calls": (comparator_calls, "count"),
        "environments.comparator_round_loss.self_ms": (self_ms("environments.comparator_round_loss"), "ms"),
        "environments.comparator_round_loss.unique_ratio": (
            ratio(outcomes / n, comparator_calls), "fraction"),
        "environments.surrogate_gradient.calls": (calls("environments.surrogate_gradient"), "count"),
        "environments.surrogate_gradient.share_pct": (share("environments.surrogate_gradient"), "%"),
        "environments.hypergradients_at_many.calls": (calls("environments.hypergradients_at_many"), "count"),
        "environments.hypergradients_at_many.rows": (
            count("environments.hypergradients_at_many.rows"), "count"),
        "environments.hypergradients_at_many.share_pct": (
            share("environments.hypergradients_at_many"), "%"),
        "environments.two_stage_gradient.calls": (calls("environments.two_stage_gradient"), "count"),
        "environments.two_stage_gradient.share_pct": (share("environments.two_stage_gradient"), "%"),
        "harness.write_run_csv.calls": (calls("harness.write_run_csv"), "count"),
        "harness.write_run_csv.bytes": (count("harness.write_run_csv.bytes"), "bytes"),
        "harness.write_run_csv.share_pct": (share("harness.write_run_csv"), "%"),
        "harness.summarize_cell.share_pct": (share("harness.summarize_cell"), "%"),
        "harness.self_ms": (sum(self_ms(h) for h in agg if h.startswith("harness.run_")), "ms"),
        "harness.warnings": (sum(c.warnings for c in traced) / n, "count"),
        "metrics.eta_max_probes": (count("metrics.eta_max_probes"), "count"),
        "config.parse_config.ms": (total_ms("config.parse_config"), "ms"),
    }
    return m


def repeated_calls(workload: Workload, seed: int, size: str, work: str, tag: str,
                   count: int, seconds: float = 0.0, trace: bool = False) -> list[Call]:
    """At least ``count`` calls, more while ``seconds`` last."""
    calls: list[Call] = []
    t_start = perf_counter()
    while len(calls) < count or perf_counter() - t_start < seconds:
        calls.append(run_call(workload, seed, size, os.path.join(work, f"{tag}{len(calls)}"), trace=trace))
    return calls


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        size: str = "bench", setup_probes: int = SETUP_PROBES) -> dict[str, Any]:
    """Run one workload and return the result line plus a readable report."""
    workload = WORKLOADS[workload_name]
    reference = load_reference(workload, seed, size)
    work = os.path.join(OUT_ROOT, f"{workload.name}-seed{seed}-{os.getpid()}")
    try:
        calls = repeated_calls(workload, seed, size, work, "call", MIN_CALLS, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced = repeated_calls(workload, seed, size, work, "traced", 2, trace=True) if trace else []
        setup = [setup_probe(workload, seed, size, os.path.join(work, f"setup{k}"))
                 for k in range(setup_probes)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # a seed without a stored reference is checked against its first call
    baseline = reference
    if baseline is None and calls[0].output is not None:
        baseline = workload.observe(calls[0].cfg, calls[0].output, calls[0].runs)
    for call in calls + traced:
        if baseline is not None:
            check_against(workload, call, baseline)
    for call in calls[1:]:
        if _shape(call) != _shape(calls[0]):
            call.failures.append(Failure(call.attempted, "a repeated call ran other runs than the first"))
    if trace:
        first, second = (c.tracer.exact_counts() for c in traced)
        if first != second:
            diff = sorted(k for k in set(first) | set(second) if first.get(k) != second.get(k))
            traced[1].failures.append(Failure(traced[1].attempted, f"traced counts differ: {diff}"))

    values, counts, raw = end_to_end(calls)
    values["setup_s"] = statistics.median(s * PROBE_REFERENCE_MS / p for s, p in setup)
    raw["setup_s"] = statistics.median(s for s, _ in setup)
    values["peak_rss_mb"] = peak_rss_mb
    counts.update(setup_s=len(setup), peak_rss_mb=1)
    all_calls = calls + traced
    attempted = sum(c.attempted for c in all_calls)
    failed = sum(min(c.attempted, sum(f.runs for f in c.failures)) for c in all_calls)
    values["error_ratio"], counts["error_ratio"] = failed / attempted, attempted

    info = environment_info(seed)
    info.update(workload=workload.name, size=size, trace=int(trace), calls=len(calls),
                reference="stored" if reference is not None else "first call",
                probe_ms=",".join(f"{float(np.median(np.concatenate([r.probe_ms for r in c.runs]))):.4f}"
                                  for c in all_calls if c.runs))
    report = ["# " + " ".join(f"{k}={v}" for k, v in info.items())]
    report += [f"# FAILED ({f.runs} runs): {f.message}" for c in all_calls for f in c.failures]
    units = dict(END_TO_END_UNITS, error_ratio="fraction", arrival_skip_ratio="fraction")
    for name in ("setup_s", "rounds_per_s", "round_ms.p50", "round_ms.p99", "loss_per_round",
                 "error_ratio", "arrival_skip_ratio", "peak_rss_mb"):
        line = f"{name:<22} {values[name]:>14.6g} {units[name]:<10} n={counts[name]}"
        if name == "loss_per_round":
            line += " runs (median of run means; mean of all rounds: " f"{raw[name]:.6g})"
        elif name in raw:
            line += f" (host-scaled; unscaled over all calls: {raw[name]:.6g})"
        report.append(line)

    if trace:
        layer = per_layer(traced)
        _, traced_s = steady_times(traced)
        _, untraced_s = steady_times(calls)
        layer.update({
            "error_ratio": (values["error_ratio"], "fraction"),
            "arrival_skip_ratio": (values["arrival_skip_ratio"], "fraction"),
            "trace.overhead_pct": (100.0 * (traced_s / untraced_s - 1.0), "%"),
        })
        report.append(f"# traced calls={len(traced)}; per-layer values are per call")
        report += [f"{name:<50} {value:>14.6g} {unit}" for name, (value, unit) in layer.items()]
        os.makedirs(OUT_ROOT, exist_ok=True)
        stem = os.path.join(OUT_ROOT, f"trace-{workload.name}-seed{seed}")
        traced[0].tracer.save(stem + ".npz")
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump({"info": info, "per_layer": {k: v[0] for k, v in layer.items()},
                       "spans": traced[0].tracer.aggregate()}, fh, indent=1)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return {"result": result, "report": report}

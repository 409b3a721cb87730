"""The benchmark's workloads: harness config, the entry-point call, and the
output checks.

Each workload drives one public ``delayopt.harness`` entry point from one
process with ``parallel=1``. The workload seed becomes
``ExperimentConfig.seeds``. Outputs are checked against references stored in
``references.json`` (recorded by ``record_references.py``); the program's own
checks (window inequality, paired delay hashes) stay on.
"""

from __future__ import annotations

import importlib
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from instrument import RunRecord

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

# relative tolerance for a per-cell mean loss against its stored reference
LOSS_RTOL = 1e-6
# CSV numbers carry 9 significant digits; summary fields are sums over rounds
SUMMARY_RTOL = 1e-6


@dataclass
class Failure:
    runs: int  # runs (cells or stability probes) the failure covers
    message: str


@dataclass
class Workload:
    name: str
    why: str
    template: str  # INI text with {seeds} and size fields
    sizes: dict[str, dict[str, Any]]  # "bench" and "tiny"
    seeds_of: Callable[[int], list[int]]
    # harness call -> output; observe -> {key: value}; invariants -> failures
    call: Callable[[Any], Any]
    observe: Callable[[Any, Any, list[RunRecord]], dict[str, float]]
    invariants: Callable[[Any, Any, list[RunRecord]], list[Failure]]
    runs_of_key: Callable[[str, list[RunRecord]], int]
    matches: Callable[[Any, float, float], bool]
    planned_runs: Callable[[Any], int]

    def config_text(self, seed: int, size: str) -> str:
        seeds = ",".join(str(s) for s in self.seeds_of(seed))
        return self.template.format(seeds=seeds, **self.sizes[size])

    def config(self, seed: int, size: str, out_dir: str):
        config = importlib.import_module("delayopt.config")
        cfg = config.parse_config(self.config_text(seed, size))
        cfg.out_dir = out_dir
        return cfg


def _harness():
    # looked up at call time so that instrumented bindings are the ones called
    return importlib.import_module("delayopt.harness")


def _cell_key(run: RunRecord) -> str:
    return f"{run.algorithm}/{run.delay}/seed{run.seed}"


def _cell_losses(cfg, output, runs: list[RunRecord]) -> dict[str, float]:
    return {_cell_key(r): r.result.cumulative_loss / r.result.rounds_logged for r in runs}


def _cell_runs(key: str, runs: list[RunRecord]) -> int:
    return sum(1 for r in runs if _cell_key(r) == key)


def _loss_matches(cfg, value: float, reference: float) -> bool:
    return math.isclose(value, reference, rel_tol=LOSS_RTOL, abs_tol=0.0)


def _cells(cfg) -> int:
    return len(cfg.algorithms) * len(cfg.delays) * len(cfg.seeds)


# -- sinkhorn_compare -------------------------------------------------------------


def _compare_call(cfg):
    harness = _harness()
    experiment = harness.run_experiment(cfg, parallel=1, write=True)
    rows = harness.run_controlled_comparison(cfg, parallel=1, write=True, experiment=experiment)
    return experiment, rows


def _same(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=SUMMARY_RTOL, abs_tol=1e-12)


def _compare_invariants(cfg, output, runs: list[RunRecord]) -> list[Failure]:
    experiment, _ = output
    failures = [Failure(1, f"{_cell_key(r)} diverged at round {r.result.diverged_round}")
                for r in runs if r.result.diverged]
    recomputed = _harness().recompute_summary(cfg)
    for mem, csv in zip(experiment.summary, recomputed):
        fields = ("regret_mean", "regret_sd", "gap_window_mean", "drift_sq_total",
                  "step_sq_total", "ratio")
        bad = [f for f in fields if not _same(getattr(mem, f), getattr(csv, f))]
        if bad or mem.diverged != csv.diverged or len(recomputed) != len(experiment.summary):
            failures.append(Failure(
                mem.seeds, f"summary {mem.algorithm}/{mem.delay}: CSV round trip differs in {bad}"))
    return failures


SINKHORN_COMPARE = Workload(
    name="sinkhorn_compare",
    why="controlled_comparison at bench length: Sinkhorn comparator and CG adjoints dominate; "
        "d=5 vs d=50 scales buffer re-evaluation 10x",
    template="""
[experiment]
name = bench_sinkhorn_compare
environment = sinkhorn
rounds = {rounds}
seeds = {seeds}

[environment.args]
drift_noise = 0.1

[delay]
kind = constant
sweep = 5,50

[algorithm.transport_adam]
eta0 = 0.002

[algorithm.stale_adam]
eta0 = 0.002

[compare]
treatment = transport_adam
control = stale_adam
""",
    sizes={"bench": {"rounds": 125}, "tiny": {"rounds": 8}},
    # Welch needs two seeds per arm; distinct workload seeds get disjoint pairs
    seeds_of=lambda seed: [2 * seed, 2 * seed + 1],
    call=_compare_call,
    observe=_cell_losses,
    invariants=_compare_invariants,
    runs_of_key=_cell_runs,
    matches=_loss_matches,
    planned_runs=_cells,
)


# -- grid_transport -----------------------------------------------------------------


def _grid_call(cfg):
    return _harness().run_experiment(cfg, parallel=1, write=True)


def _grid_invariants(cfg, output, runs: list[RunRecord]) -> list[Failure]:
    failures = []
    for r in runs:
        gap = r.result.columns["opt_gap"]
        if not (np.all(np.isfinite(gap)) and np.all(gap >= 0)):
            failures.append(Failure(1, f"{_cell_key(r)}: opt_gap negative or not finite"))
    return failures


GRID_TRANSPORT = Workload(
    name="grid_transport",
    why="grid_path at d=50: transport arm spends most time in dijkstra_grid via buffer "
        "re-evaluation; two-stage arm and no CG or Sinkhorn",
    template="""
[experiment]
name = bench_grid_transport
environment = grid_path
rounds = {rounds}
seeds = {seeds}

[delay]
kind = constant
d = 50

[algorithm.transport_adam]
eta0 = 0.001
beta_damping = 1.0
schedule_mode = queue_adaptive

[algorithm.two_stage_adam]
eta0 = 0.001
""",
    sizes={"bench": {"rounds": 500}, "tiny": {"rounds": 8}},
    seeds_of=lambda seed: [seed],
    call=_grid_call,
    observe=_cell_losses,
    invariants=_grid_invariants,
    runs_of_key=_cell_runs,
    matches=_loss_matches,
    planned_runs=_cells,
)


# -- lqr_stability ------------------------------------------------------------------


def _stability_call(cfg):
    return _harness().run_stability_sweep(cfg, write=True)


def _eta_max(cfg, output, runs: list[RunRecord]) -> dict[str, float]:
    return {f"{name}/d={d}": eta for name, d, eta in output}


def _probe_runs(key: str, runs: list[RunRecord]) -> int:
    return sum(1 for r in runs if f"{r.algorithm}/d={r.d}" == key)


LQR_STABILITY = Workload(
    name="lqr_stability",
    why="stability bisection on lqr: many short rounds and a fresh environment per probe; "
        "inner_gd, per-entry re-evaluation and bookkeeping, no Sinkhorn or Dijkstra",
    template="""
[experiment]
name = bench_lqr_stability
environment = lqr
rounds = {horizon}
seeds = {seeds}

[delay]
kind = constant
d = 1

[algorithm.transport_omd]
eta0 = 0.01
schedule_mode = constant

[algorithm.two_stage]
eta0 = 0.01
schedule_mode = constant

[stability]
eta_lo = 0.0001
eta_hi = 16.0
resolution = {resolution}
horizon = {horizon}
delays = 1,20
""",
    sizes={"bench": {"horizon": 300, "resolution": 0.002},
           "tiny": {"horizon": 100, "resolution": 2.0}},
    seeds_of=lambda seed: [seed],
    call=_stability_call,
    observe=_eta_max,
    invariants=lambda cfg, output, runs: [],
    runs_of_key=_probe_runs,
    matches=lambda cfg, value, reference: abs(value - reference) <= cfg.stability.resolution,
    # probes are decided by the bisection; only started ones are known
    planned_runs=lambda cfg: 0,
)


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (SINKHORN_COMPARE, GRID_TRANSPORT, LQR_STABILITY)
}

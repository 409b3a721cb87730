"""Outside-in instrumentation of delayopt: a round clock and a span tracer.

delayopt modules import each other's functions by name
(``from delayopt.solvers import sinkhorn_log``), so a wrapper must replace the
binding the *caller* looks up, e.g. ``delayopt.environments.sinkhorn_flow.
sinkhorn_log`` rather than ``delayopt.solvers.sinkhorn_log``. Objects the
harness builds per run (environment, engine, base rule, delay schedule and
queue) are reached through the factory or call that hands them over and are
wrapped per instance, so no class is ever modified. Every replaced module
binding is put back when the ``Patches`` context exits.

Nothing here edits delayopt itself: the program has no timers of its own yet.
"""

from __future__ import annotations

import heapq
import importlib
import os
from array import array
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Optional

import numpy as np

# (module, binding, span name) for every module-level binding the tracer
# replaces. The module is the *caller's* module.
TRACE_SITES: tuple[tuple[str, str, str], ...] = (
    ("delayopt.config", "parse_config", "config.parse_config"),
    ("delayopt.harness", "run_experiment", "harness.run_experiment"),
    ("delayopt.harness", "run_controlled_comparison", "harness.run_controlled_comparison"),
    ("delayopt.harness", "run_stability_sweep", "harness.run_stability_sweep"),
    ("delayopt.harness", "summarize_cell", "harness.summarize_cell"),
    ("delayopt.harness", "write_run_csv", "harness.write_run_csv"),
    ("delayopt.harness", "make_environment", "environments.make_environment"),
    ("delayopt.harness", "eta_max_search", "metrics.eta_max_search"),
    ("delayopt.harness", "run_online", "runner.run_online"),
    ("delayopt.runner", "make_engine", "optimizers.make_engine"),
    ("delayopt.runner", "make_base_rule", "optimizers.make_base_rule"),
    ("delayopt.runner", "DelayQueue", "delays.DelayQueue"),
    ("delayopt.runner", "transport_error_surrogates", "transport.error_surrogates"),
    ("delayopt.optimizers", "transport_step", "transport.transport_step"),
    ("delayopt.optimizers", "solve_adjoint", "transport.solve_adjoint"),
    ("delayopt.optimizers", "hypergradient_at", "transport.hypergradient_at"),
    ("delayopt.transport", "solve_adjoint", "transport.solve_adjoint"),
    ("delayopt.transport", "hypergradient_at", "transport.hypergradient_at"),
    ("delayopt.transport", "conjugate_gradient", "solvers.conjugate_gradient"),
    ("delayopt.environments.sinkhorn_flow", "sinkhorn_log", "solvers.sinkhorn_log"),
    ("delayopt.environments.grid_path", "dijkstra_grid", "solvers.dijkstra_grid"),
    ("delayopt.environments.lqr", "inner_gd", "solvers.inner_gd"),
)

# environment methods wrapped per instance, when the instance has them
ENV_METHODS = (
    "begin_round", "solve_inner", "realize_outcome", "comparator_round_loss",
    "surrogate_gradient", "hypergradients_at_many", "two_stage_gradient",
)


def module_bindings() -> dict[str, Any]:
    """Current object behind every module binding the instrumentation replaces."""
    return {
        f"{mod}.{attr}": getattr(importlib.import_module(mod), attr)
        for mod, attr, _ in TRACE_SITES
    }


class Patches:
    """Module-binding replacements, undone in reverse order on exit."""

    def __init__(self):
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Patches":
        return self

    def replace(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def __exit__(self, *exc) -> bool:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False


def _wrap_instance(obj: Any, attr: str, make: Callable[[Any], Any]) -> None:
    """Shadow a bound method with an instance attribute."""
    setattr(obj, attr, make(getattr(obj, attr)))


# -- round clock ----------------------------------------------------------------


# A fixed slice of interpreter and small-array numpy work, the workloads' own
# mix. Its duration tracks the host's speed, which changes by up to 2x within
# seconds on shared machines (a busy hyperthread sibling halves it).
_SPEED_MATRIX = np.linspace(-1.0, 1.0, 100).reshape(10, 10)


def speed_probe() -> float:
    """Run the fixed speed-probe work once; returns its duration in ms."""
    t0 = perf_counter()
    for i in range(6):
        b = _SPEED_MATRIX @ _SPEED_MATRIX.T * 1e-3 + np.exp(_SPEED_MATRIX * 0.1)
        float(np.linalg.norm(b[i]))
    # pure-interpreter part, like the heap-based shortest-path solver
    heap: list[tuple[float, int]] = []
    for j in range(60):
        heapq.heappush(heap, ((j * 7919) % 61 * 0.5, j))
    while heap:
        heapq.heappop(heap)
    return (perf_counter() - t0) * 1e3


@dataclass
class RunRecord:
    """One ``run_online`` call as seen from outside."""

    algorithm: str
    delay: str
    delay_kind: str
    d: int
    seed: int
    result: Any  # delayopt.runner.RunResult
    round_ms: np.ndarray
    probe_ms: np.ndarray  # speed probe run just before each round


class RoundClock:
    """Per-round wall times without timers inside ``run_online``.

    A round runs from one ``begin_round`` to the next within the same run; a
    run's last round ends when ``run_online`` returns. The environment's
    ``begin_round`` is shadowed on the instance for the duration of the run.
    Before each round the speed probe runs; its time belongs to no round.
    """

    def __init__(self, probe: Callable[[], float] = speed_probe):
        self.runs: list[RunRecord] = []
        self.started = 0
        self.probe = probe

    def install(self, patches: Patches) -> None:
        harness = importlib.import_module("delayopt.harness")
        patches.replace(harness, "run_online", self._timed)

    def _timed(self, run_online):
        def run_online_timed(env, algo, delay, rounds, *args, **kwargs):
            self.started += 1
            starts: list[float] = []
            ends: list[float] = []
            probes: list[float] = []
            inner = env.begin_round
            own = vars(env).get("begin_round")

            def begin_round(t):
                ends.append(perf_counter())
                probes.append(self.probe())
                starts.append(perf_counter())
                return inner(t)

            env.begin_round = begin_round
            try:
                result = run_online(env, algo, delay, rounds, *args, **kwargs)
                ends.append(perf_counter())
            finally:
                if own is None:
                    del env.begin_round
                else:
                    env.begin_round = own
            self.runs.append(RunRecord(
                algorithm=algo.name, delay=delay.describe(), delay_kind=delay.kind, d=delay.d,
                seed=delay.seed, result=result,
                round_ms=(np.array(ends[1:]) - np.array(starts)) * 1e3, probe_ms=np.array(probes),
            ))
            return result

        return run_online_timed


# -- span tracer ------------------------------------------------------------------


def _digest(payload: Any) -> int:
    """Content hash of an outcome payload (a dict of arrays and tuples)."""
    if isinstance(payload, dict):
        return hash(tuple((k, _digest(v)) for k, v in sorted(payload.items())))
    if isinstance(payload, np.ndarray):
        return hash((payload.shape, payload.tobytes()))
    return hash(payload)


class Tracer:
    """Spans (name, start, end, parent) kept in flat arrays, plus exact counters.

    Self time of a span is its duration minus the durations of its direct
    children. Counters that are not span counts (CG iterations, Sinkhorn
    sweeps, re-evaluated buffer entries, ...) are read from arguments and
    return values at the same boundaries.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counters: dict[str, int] = defaultdict(int)
        self._outcomes: set[int] = set()

    # -- recording ------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn: Callable, name: str,
             before: Optional[Callable] = None, after: Optional[Callable] = None) -> Callable:
        nid = self._id(name)
        names, parents, starts, ends, stack = (
            self.span_name, self.span_parent, self.span_start, self.span_end, self._stack)

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _count(self, key: str, n: int) -> None:
        self.counters[key] += n

    def install(self, patches: Patches) -> None:
        hooks: dict[str, dict[str, Callable]] = {
            "environments.make_environment": {"after": lambda a, k, env: self._instrument_env(env)},
            "runner.run_online": {
                "before": lambda a, k: _wrap_instance(
                    a[2], "sample", lambda f: self.wrap(f, "delays.sample")),
                "after": lambda a, k, res: (
                    self._count("runner.rounds", res.rounds_logged),
                    self._count("runner.skipped_arrivals", res.skipped_arrivals)),
            },
            "optimizers.make_engine": {"after": lambda a, k, eng: self._instrument_engine(eng)},
            "optimizers.make_base_rule": {"after": lambda a, k, rule: _wrap_instance(
                rule, "update", lambda f: self.wrap(f, "optimizers.base_update"))},
            "delays.DelayQueue": {"after": lambda a, k, q: self._instrument_queue(q)},
            "transport.transport_step": {
                "before": lambda a, k: self._count("transport.reeval_entries", len(a[0]))},
            "solvers.conjugate_gradient": {
                "after": lambda a, k, out: self._count("solvers.conjugate_gradient.iterations", out[2])},
            "solvers.sinkhorn_log": {
                "after": lambda a, k, out: self._count(
                    "solvers.sinkhorn_log.sweeps", a[4] if len(a) > 4 else k["iterations"])},
            "harness.write_run_csv": {
                "after": lambda a, k, out: self._count("harness.write_run_csv.bytes", os.path.getsize(a[0]))},
        }
        for mod, attr, name in TRACE_SITES:
            module = importlib.import_module(mod)
            if name == "delays.DelayQueue":
                # constructor: instrument the instance, no span of its own
                after = hooks[name]["after"]

                def make(cls, after=after):
                    def build(*args, **kwargs):
                        obj = cls(*args, **kwargs)
                        after(args, kwargs, obj)
                        return obj
                    return build
            elif name == "metrics.eta_max_search":
                def make(search, name=name):
                    def counted(is_stable, *args, **kwargs):
                        def probe(eta):
                            self._count("metrics.eta_max_probes", 1)
                            return is_stable(eta)
                        return search(probe, *args, **kwargs)
                    return self.wrap(counted, name)
            else:
                def make(fn, name=name):
                    return self.wrap(fn, name, **hooks.get(name, {}))
            patches.replace(module, attr, make)

    def _instrument_env(self, env: Any) -> None:
        for method in ENV_METHODS:
            if not hasattr(env, method):
                continue
            hooks: dict[str, Callable] = {}
            if method == "comparator_round_loss":
                hooks["before"] = lambda a, k: self._outcomes.add(_digest(a[0]))
            elif method == "hypergradients_at_many":
                hooks["after"] = lambda a, k, out: self._count(
                    "environments.hypergradients_at_many.rows", len(a[1]))
            _wrap_instance(env, method,
                           lambda f, name=f"environments.{method}": self.wrap(f, name, **hooks))

    def _instrument_engine(self, engine: Any) -> None:
        _wrap_instance(engine, "round_gradient", lambda f: self.wrap(f, "optimizers.round_gradient"))
        _wrap_instance(engine, "end_round", lambda f: self.wrap(
            f, "optimizers.end_round",
            after=lambda a, k, evicted: self._count("transport.evictions", evicted)))

    def _instrument_queue(self, queue: Any) -> None:
        _wrap_instance(queue, "dispatch", lambda f: self.wrap(f, "delays.dispatch"))
        _wrap_instance(queue, "advance", lambda f: self.wrap(
            f, "delays.advance", after=lambda a, k, out: self._count("delays.arrivals", len(out))))

    # -- aggregation ------------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds."""
        name = np.array(self.span_name, dtype=np.intc)
        parent = np.array(self.span_parent, dtype=np.intc)
        start = np.array(self.span_start, dtype=float)
        end = np.array(self.span_end, dtype=float)
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        return {
            n: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, n in enumerate(self.names)
        }

    @property
    def distinct_outcomes(self) -> int:
        """Distinct outcome payloads the comparator was asked to price."""
        return len(self._outcomes)

    def exact_counts(self) -> dict[str, int]:
        """Counts that must repeat exactly between two traced calls."""
        out = {f"{n}.calls": agg["calls"] for n, agg in self.aggregate().items()}
        out.update(self.counters)
        out["environments.comparator_round_loss.distinct_outcomes"] = self.distinct_outcomes
        return dict(sorted(out.items()))

    def save(self, path: str) -> None:
        """Write every span to a compressed numpy archive."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.span_name, dtype=np.intc),
            parent=np.array(self.span_parent, dtype=np.intc),
            start=np.array(self.span_start, dtype=float),
            end=np.array(self.span_end, dtype=float),
        )

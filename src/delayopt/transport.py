"""Adjoint-based hypergradients and the gradient-transport buffer.

A round's hypergradient is assembled from two terms: the explicit derivative
of the realized loss in the outer parameters, and an implicit term routed
through an adjoint solve against the inner Hessian. Once a round's feedback
has arrived, its stored ``(w_s, v_s)`` pair lets the gradient be re-evaluated
at any later parameter point without re-solving the inner problem; the
transport step accumulates those one-step re-evaluation increments, which
telescope exactly for the frozen per-round gradient surrogate.
"""

from __future__ import annotations

import logging
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from delayopt.core import BilevelProblem, ContractError, OutcomeRecord
from delayopt.solvers import CGConfig, SolverError, conjugate_gradient

log = logging.getLogger(__name__)


@dataclass
class AdjointVector:
    values: np.ndarray
    solve_residual: float  # 0 for a closed-form adjoint
    solve_iterations: int  # CG iterations; 0 for a closed-form adjoint


def solve_adjoint(
    problem: BilevelProblem,
    w_s: np.ndarray,
    theta: np.ndarray,
    z_s: Any,
    cg: CGConfig,
) -> AdjointVector:
    """Solve H_w v = grad_w of the realized loss at the stored decision.

    Uses the environment's closed-form adjoint when it has one. Otherwise
    runs conjugate gradient from zero on the Hessian action at
    ``(w_s, theta)`` against the realized-loss gradient.
    """
    exact = problem.exact_adjoint(w_s, theta, z_s)
    if exact is not None:
        return AdjointVector(values=exact, solve_residual=0.0, solve_iterations=0)
    rhs = problem.grad_w_true(w_s, theta, z_s)
    x, residual, iters = conjugate_gradient(
        lambda v: problem.hess_ww_model_vp(w_s, theta, v, ctx=z_s), rhs, cfg=cg)
    return AdjointVector(values=x, solve_residual=residual, solve_iterations=iters)


def hypergradient_at(
    problem: BilevelProblem,
    w_s: np.ndarray,
    v_s: AdjointVector | np.ndarray,
    theta_query: np.ndarray,
    z_s: Any,
) -> np.ndarray:
    """Two-term hypergradient at an arbitrary parameter point.

    Holds the stored decision and adjoint frozen; only the explicit
    theta-dependent factors are recomputed, so the cost is a couple of
    matrix-vector products.
    """
    v = v_s.values if isinstance(v_s, AdjointVector) else np.asarray(v_s, dtype=float)
    direct = problem.grad_theta_true_fixed_w(w_s, theta_query, z_s)
    implicit = problem.cross_partial_transpose_vp(w_s, theta_query, v, ctx=z_s)
    if direct.shape != implicit.shape:
        raise ContractError("hypergradient term dimension mismatch")
    return direct - implicit


@dataclass
class TransportBufferEntry:
    round: int
    decision: np.ndarray
    adjoint: Optional[AdjointVector]  # None for surrogate-gradient environments
    record: OutcomeRecord
    cached_gradient: np.ndarray


class TransportBuffer:
    """FIFO store of arrived rounds still being transported.

    Capacity is the worst-case queue length; eviction drops the oldest
    arrival. At most one entry per round.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ContractError("buffer capacity must be >= 0")
        self.capacity = capacity
        self._entries: "OrderedDict[int, TransportBufferEntry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries.values())

    def insert(self, entry: TransportBufferEntry) -> None:
        if entry.round in self._entries:
            raise ContractError(f"round {entry.round} already buffered")
        self._entries[entry.round] = entry

    def evict_to_capacity(self) -> int:
        evicted = 0
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            evicted += 1
        return evicted


@dataclass
class TransportDiagnostics:
    arrivals: int = 0
    skipped_arrivals: int = 0
    cg_iterations: int = 0


def _round_gradient(problem: BilevelProblem, entry: TransportBufferEntry, theta: np.ndarray) -> np.ndarray:
    if problem.uses_decision_surrogate:
        return problem.surrogate_gradient(theta, entry.record)
    return hypergradient_at(problem, entry.decision, entry.adjoint, theta, entry.record.payload)


def _round_gradients_batch(problem: BilevelProblem, entries: list[TransportBufferEntry], theta: np.ndarray) -> list[np.ndarray]:
    """Re-evaluate many buffered gradients at once: one batched surrogate call
    for decision-surrogate environments, one batched hypergradient call for
    the adjoint route."""
    if problem.uses_decision_surrogate:
        mat = problem.surrogate_gradients_at_many(theta, [e.record for e in entries])
    else:
        mat = problem.hypergradients_at_many(
            theta,
            [e.decision for e in entries],
            [e.adjoint.values for e in entries],
            [e.record.payload for e in entries],
        )
    return list(mat)


def transport_step(
    buffer: TransportBuffer,
    arrivals: list[OutcomeRecord],
    problem: BilevelProblem,
    theta_t: np.ndarray,
    cg: CGConfig,
    at_dispatch: bool = False,
) -> tuple[np.ndarray, TransportDiagnostics]:
    """One transport round: arrival gradients plus re-evaluation increments.

    Each arrival's adjoint is solved and its gradient evaluated at one point:
    ``theta_t``, or the arrival's dispatch snapshot when ``at_dispatch`` is
    set (the stale baseline, which keeps nothing buffered past the round).
    Every pre-existing entry's cache holds its gradient at the previous call's
    parameter point, so the increment ``g_s(theta_t) - cache`` is the one-step
    re-evaluation change. An arrival's gradient is summed and cached as is,
    with no increment, so a new entry's transport increment on its arrival
    round is exactly zero. A failed adjoint solve skips that round with a
    warning instead of aborting the run.

    On the surrogate route at ``theta_t`` with a non-empty buffer, arrivals
    join the buffer's batched re-evaluation: one call evaluates the arrivals
    first, then the pre-existing entries, and ``g_total`` still adds every
    arrival's gradient before every increment. The batched surrogate rows are
    bit-identical to single evaluations, so this changes no output. An empty
    buffer (every round at d = 0) keeps single evaluations, which beat a
    batch of one. The adjoint route keeps them too: its stacked rows match
    per-entry rows only to rounding, and folding would change results.

    Returns the corrected gradient and per-round diagnostics. Eviction to
    capacity is the caller's final step.
    """
    diag = TransportDiagnostics(arrivals=len(arrivals))
    g_total = np.zeros_like(np.asarray(theta_t, dtype=float))
    preexisting = list(buffer)
    fold = problem.uses_decision_surrogate and not at_dispatch and bool(preexisting)

    folded: list[TransportBufferEntry] = []
    for rec in arrivals:
        point = rec.dispatch_params if at_dispatch else theta_t
        adjoint = None
        if not problem.uses_decision_surrogate:
            try:
                adjoint = solve_adjoint(problem, rec.dispatch_decision, point, rec.payload, cg)
            except SolverError as exc:
                diag.skipped_arrivals += 1
                log.warning("round %d arrival skipped: %s", rec.round, exc)
                continue
            diag.cg_iterations += adjoint.solve_iterations
        entry = TransportBufferEntry(
            round=rec.round, decision=rec.dispatch_decision, adjoint=adjoint,
            record=rec, cached_gradient=np.zeros(0),
        )
        if fold:
            folded.append(entry)
        else:
            g_s = _round_gradient(problem, entry, point)
            entry.cached_gradient = g_s
            g_total += g_s
        buffer.insert(entry)

    if preexisting:
        fresh = _round_gradients_batch(problem, folded + preexisting, theta_t)
        for entry, g_s in zip(folded, fresh):
            entry.cached_gradient = g_s
            g_total += g_s
        for entry, g_new in zip(preexisting, fresh[len(folded):]):
            g_total += g_new - entry.cached_gradient
            entry.cached_gradient = g_new

    return g_total, diag


def transport_error_surrogates(
    param_history: list[np.ndarray],
    step_sqs: list[float],
    outstanding: set[int],
    t: int,
) -> tuple[float, float]:
    """Per-round transport-error surrogates over the outstanding window.

    ``param_history[s]`` must hold theta_{s} for every s in the window through
    theta_{t+1} (the parameters after round t's update), and ``step_sqs[s]``
    the squared step ||theta_{s+1} - theta_s||^2 for every outstanding s.
    Returns

      drift_sq  -- squared total parameter drift across the window,
      step_sq_sum -- sum of squared per-step changes over outstanding rounds,

    which coincide when a single round is outstanding and whose accumulated
    ratio approaches the queue length for near-constant step sizes.
    """
    if not outstanding:
        return 0.0, 0.0
    oldest = min(outstanding)
    theta_next = param_history[t + 1]
    drift = theta_next - param_history[oldest]
    drift_sq = float(drift @ drift)
    step_sq = 0.0
    for s in outstanding:
        step_sq += step_sqs[s]
    return drift_sq, step_sq

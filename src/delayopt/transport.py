"""Adjoint-based hypergradients and the gradient-transport buffer.

A round's hypergradient is assembled from two terms: the explicit derivative
of the realized loss in the outer parameters, and an implicit term routed
through the adjoint of the inner Hessian, which every smooth environment
solves in closed form. Once a round's feedback
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

from delayopt.core import ContractError, OutcomeRecord
from delayopt.environments.base import Environment
from delayopt.solvers import SolverError
# unused here, but bench/instrument.py traces this binding of this module
from delayopt.solvers import conjugate_gradient  # noqa: F401

log = logging.getLogger(__name__)


def solve_adjoint(problem: Environment, w_s: np.ndarray, theta: np.ndarray, z_s: Any) -> Optional[np.ndarray]:
    """The adjoint ``v`` solving ``H_w v = grad_w`` of the realized loss at the
    stored decision, from the environment's closed form at ``(w_s, theta)``;
    None for an environment off the adjoint route. A singular closed-form
    system raises ``SolverError``, which skips the arrival."""
    try:
        return problem.exact_adjoint(w_s, theta, z_s)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"adjoint solve failed: {exc}") from exc


def hypergradient_at(
    problem: Environment,
    w_s: np.ndarray,
    v_s: np.ndarray,
    theta_query: np.ndarray,
    z_s: Any,
) -> np.ndarray:
    """Two-term hypergradient of a smooth environment at an arbitrary
    parameter point.

    Holds the stored decision and adjoint frozen; only the explicit
    theta-dependent factors are recomputed, so the cost is a couple of
    matrix-vector products.
    """
    direct = problem.grad_theta_true_fixed_w(w_s, theta_query, z_s)
    implicit = problem.cross_partial_transpose_vp(w_s, theta_query, v_s, z_s)
    if direct.shape != implicit.shape:
        raise ContractError("hypergradient term dimension mismatch")
    return direct - implicit


@dataclass
class TransportBufferEntry:
    round: int
    adjoint: Optional[np.ndarray]  # adjoint values; None off the adjoint route
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


def transport_step(
    buffer: TransportBuffer,
    arrivals: list[OutcomeRecord],
    problem: Environment,
    theta_t: np.ndarray,
) -> tuple[np.ndarray, int]:
    """One transport round: arrival gradients plus re-evaluation increments.

    Each arrival's adjoint is first solved at ``theta_t`` (None for an
    environment off the adjoint route); a failed solve skips the round with a
    warning. One ``problem.hypergradients_at_many`` call at ``theta_t`` then
    evaluates the arrivals, in arrival order, and the pre-existing entries,
    oldest first. Rows are bit-identical to single evaluations, so batching
    changes no output.

    Every pre-existing entry's cache holds its gradient at the previous call's
    parameter point, so the increment ``g_s(theta_t) - cache`` is the one-step
    re-evaluation change. An arrival's gradient is summed, before every
    increment, and cached as is, so its increment on its arrival round is
    exactly zero.

    Returns the corrected gradient and the number of skipped arrivals.
    Eviction to capacity is the caller's final step.
    """
    skipped = 0
    g_total = np.zeros_like(np.asarray(theta_t, dtype=float))
    preexisting = list(buffer)

    fresh: list[TransportBufferEntry] = []
    for rec in arrivals:
        try:
            adjoint = solve_adjoint(problem, rec.dispatch_decision, theta_t, rec.payload)
        except SolverError as exc:
            skipped += 1
            log.warning("round %d arrival skipped: %s", rec.round, exc)
            continue
        entry = TransportBufferEntry(
            round=rec.round, adjoint=adjoint, record=rec, cached_gradient=np.zeros(0),
        )
        fresh.append(entry)
        buffer.insert(entry)

    if fresh or preexisting:
        rows = _gradients_at(problem, theta_t, fresh + preexisting)
        for entry, g_s in zip(fresh, rows):
            entry.cached_gradient = g_s
            g_total += g_s
        for entry, g_new in zip(preexisting, rows[len(fresh):]):
            g_total += g_new - entry.cached_gradient
            entry.cached_gradient = g_new

    return g_total, skipped


def _gradients_at(problem: Environment, theta: np.ndarray, entries: list[TransportBufferEntry]) -> np.ndarray:
    return problem.hypergradients_at_many(
        theta,
        [e.record.dispatch_decision for e in entries],
        [e.adjoint for e in entries],
        [e.record.payload for e in entries],
    )


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

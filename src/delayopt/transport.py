"""Adjoint-based hypergradients and the gradient-transport buffer.

A round's hypergradient is assembled from two terms: the explicit derivative
of the realized loss in the outer parameters, and an implicit term routed
through the adjoint of the inner Hessian, which every smooth environment
solves in closed form. Once a round's feedback has arrived, its stored
``(w_s, v_s)`` pair lets the gradient be re-evaluated at any later parameter
point without re-solving the inner problem; the transport step accumulates
those one-step re-evaluation increments, which telescope exactly for the
frozen per-round gradient surrogate.

The buffer keeps no decisions, adjoints or payloads. When a round arrives it
stores the round's factors: the arrays ``Environment.stored_factors`` forms
from them, everything the re-evaluation reads that does not depend on the
parameters, one row of one stacked array per factor. Every later round hands
those stacks to ``hypergradients_at_many`` as they are. Each stack is a
window in arrival order: an arrival writes one row past its end and an
eviction moves its start. A window that reaches the end of its storage moves
back to the front, or into storage twice the size when it fills more than
half of it, so a row is copied a bounded number of times on average.

A transport step sums ``0.0 + f_1 + f_2 + ... + i_1 + i_2 + ...`` left to
right: the arrivals' rows, then each buffered round's increment, oldest
first. The increments overwrite the buffer's old gradient rows in place, and
one reduction over axis 0 adds them row after row. One-element-wide rows,
which numpy sums pairwise from 8 rows on, take the sequential (and, for wide
rows, far slower) ``np.add.accumulate``.
"""

from __future__ import annotations

import logging
from typing import Any, Mapping, Optional

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


class TransportBuffer:
    """FIFO store of arrived rounds still being transported: ``rounds``,
    oldest first, their ``factors`` (one stacked array per factor, rows in
    the same order) and after each step ``gradients``, their (len, p) rows at
    its parameters: a view of the environment's batch, never a copy.
    Capacity is the run's worst-case queue length, at most its round count;
    eviction drops the oldest rounds. At most one entry per round."""

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ContractError("buffer capacity must be >= 0")
        self.capacity = capacity
        self.rounds: list[int] = []
        self._stores: list[np.ndarray] = []  # one per factor; rows _start to _start + len are live
        self._start = 0
        self.gradients: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.rounds)

    @property
    def factors(self) -> tuple[np.ndarray, ...]:
        """The buffered rounds' stacked factors: views of the window."""
        start, stop = self._start, self._start + len(self.rounds)
        return tuple(store[start:stop] for store in self._stores)

    def append(self, t: int, factors: tuple[np.ndarray, ...]) -> None:
        """Store arrived round ``t`` by its factors; its row comes with the
        next batch."""
        if t in self.rounds:
            raise ContractError(f"round {t} already buffered")
        live = len(self.rounds)
        if not self._stores:  # room for a full window and as many rows again
            self._stores = [np.empty((2 * self.capacity + 2, *f.shape), f.dtype) for f in factors]
        elif self._start + live == len(self._stores[0]):
            window = slice(self._start, self._start + live)
            if 2 * live > len(self._stores[0]):
                grown = [np.empty((2 * len(store), *store.shape[1:]), store.dtype) for store in self._stores]
                for new, store in zip(grown, self._stores):
                    new[:live] = store[window]
                self._stores = grown
            else:
                for store in self._stores:
                    store[:live] = store[window]
            self._start = 0
        row = self._start + live
        for store, f in zip(self._stores, factors):
            store[row] = f
        self.rounds.append(t)

    def evict_to_capacity(self) -> int:
        evicted = len(self.rounds) - self.capacity
        if evicted <= 0:
            return 0
        del self.rounds[:evicted]
        self._start += evicted
        self.gradients = self.gradients[evicted:]  # a view, never a copy
        return evicted


def arrival_factors(problem: Environment, arrivals: list[OutcomeRecord],
                    theta: Optional[np.ndarray] = None) -> list[tuple[OutcomeRecord, tuple[np.ndarray, ...]]]:
    """Each arrival with its ``problem.stored_factors``, its adjoint solved
    at ``theta`` or, when that is None, at the arrival's dispatch
    parameters. An arrival whose solve fails is left out, with a warning."""
    pairs = []
    for rec in arrivals:
        at = rec.dispatch_params if theta is None else theta
        try:
            adjoint = solve_adjoint(problem, rec.dispatch_decision, at, rec.payload)
        except SolverError as exc:
            log.warning("round %d arrival skipped: %s", rec.round, exc)
            continue
        pairs.append((rec, problem.stored_factors(rec.dispatch_decision, adjoint, rec.payload)))
    return pairs


def transport_step(
    buffer: TransportBuffer,
    arrivals: list[OutcomeRecord],
    problem: Environment,
    theta_t: np.ndarray,
) -> tuple[np.ndarray, int]:
    """One transport round: arrival gradients plus re-evaluation increments.

    The arrivals' adjoints are solved at ``theta_t``, and each arrival is
    appended to the buffer by its ``problem.stored_factors``; one
    ``problem.hypergradients_at_many`` call at ``theta_t`` on the buffer's
    stacked factors then evaluates the whole buffer in its order. Rows are
    bit-identical to single evaluations, so batching changes no output. A buffered round's increment
    is its new row minus its old one; an arrival's row is kept as is, so its
    increment on its arrival round is exactly zero. The module docstring
    gives the order of the sum.

    Returns the corrected gradient and the number of skipped arrivals.
    Eviction to capacity is the caller's final step.
    """
    buffered = len(buffer)
    arrived = arrival_factors(problem, arrivals, theta_t)
    for rec, factors in arrived:
        buffer.append(rec.round, factors)
    g = np.zeros(theta_t.shape)
    if len(buffer):
        rows = problem.hypergradients_at_many(theta_t, *buffer.factors)
        for row in rows[buffered:]:
            g += row
        if buffered == 1:  # a fold of one increment is one add
            g += rows[0] - buffer.gradients[0]
        elif buffered:
            increments = np.subtract(rows[:buffered], buffer.gradients, out=buffer.gradients)
            np.add(g, increments[0], out=increments[0])
            g = np.add.accumulate(increments)[-1] if increments.shape[1] == 1 else np.add.reduce(increments)
        buffer.gradients = rows
    return g, len(arrivals) - len(arrived)


def transport_error_surrogates(
    param_history: Mapping[int, np.ndarray],
    step_sqs: Mapping[int, float],
    outstanding: set[int],
    t: int,
) -> tuple[float, float]:
    """Per-round transport-error surrogates over the outstanding window.

    ``param_history[s]`` must hold theta_{s} for every s in the window through
    theta_{t+1} (the parameters after round t's update), and ``step_sqs[s]``
    the squared step ||theta_{s+1} - theta_s||^2 for every outstanding s.
    Both are read by round, so they may hold the window alone.
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
    drift_sq = float(drift.dot(drift))
    step_sq = 0.0
    for s in outstanding:
        step_sq += step_sqs[s]
    return drift_sq, step_sq

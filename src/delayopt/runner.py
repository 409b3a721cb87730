"""The per-round simulation loop tying an environment, an algorithm, and a
delay schedule together, producing one row of diagnostics per round.

Each round: warm-started inner solve, execute the decision, dispatch it into
the delay queue, collect arrivals, refresh the queue envelope and step size,
apply the algorithm's gradient through its base rule, evict, log. A run stops
at the first round whose parameters are non-finite or exceed
``DIVERGENCE_NORM`` in norm, whose environment reports itself unstable, or
whose inner solve fails (that round plays the previous decision).
Runs are deterministic given (environment seed, delay seed, config).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from delayopt.core import ContractError, InvariantError, OutcomeRecord
from delayopt.delays import DelayQueue, DelaySchedule
from delayopt.environments.base import Environment
from delayopt.optimizers import AlgorithmConfig, adaptive_step, make_base_rule, make_engine
from delayopt.solvers import SolverError
from delayopt.transport import transport_error_surrogates

ROW_COLUMNS = (
    "t", "sigma", "envelope", "eta", "true_loss", "regret_inc",
    "step_sq", "drift_sq", "step_sq_sum", "opt_gap", "diverged",
)

DIVERGENCE_NORM = 1e6


@dataclass
class RunResult:
    """Columnar per-round log plus run-level diagnostics."""

    columns: dict[str, np.ndarray]
    diverged: bool
    diverged_round: Optional[int]
    delay_hash: str
    poisson_cap_hits: int
    skipped_arrivals: int
    comparator_note: str
    final_theta: np.ndarray

    @property
    def rounds_logged(self) -> int:
        return len(self.columns["t"])

    @property
    def cumulative_regret(self) -> float:
        return float(np.sum(self.columns["regret_inc"]))

    @property
    def cumulative_loss(self) -> float:
        return float(np.sum(self.columns["true_loss"]))


def run_online(
    env: Environment,
    algo: AlgorithmConfig,
    delay: DelaySchedule,
    rounds: int,
) -> RunResult:
    if rounds < 1:
        raise ContractError("rounds must be >= 1")
    base = make_base_rule(algo)
    engine = make_engine(algo, env, delay.sigma_bound)
    queue = DelayQueue()

    theta = np.array(env.theta_init(), dtype=float)
    w_prev = np.array(env.initial_decision(), dtype=float)
    history: list[Optional[np.ndarray]] = [None, theta.copy()]  # history[t] = theta_t, 1-indexed
    step_sqs: list[float] = [0.0]  # step_sqs[t] = ||theta_{t+1} - theta_t||^2, 1-indexed

    rows: list[tuple] = []  # one value per ROW_COLUMNS entry
    diverged = False
    diverged_round: Optional[int] = None
    skipped = 0
    is_constant_delay = delay.kind == "constant"

    for t in range(1, rounds + 1):
        env.begin_round(t)
        try:
            w_t, solve_failed = env.solve_inner(theta, w_prev).solution, False
        except SolverError:  # play the last decision; the run stops after this round
            w_t, solve_failed = w_prev, True
        w_prev = w_t
        z_t, true_loss, opt_gap = env.realize_outcome(t, theta, w_t)
        record = OutcomeRecord(round=t, payload=z_t, dispatch_params=theta, dispatch_decision=w_t)

        d_t = delay.sample(t)
        queue.dispatch(t, d_t, record)
        arrivals = queue.advance(t)
        sigma, envelope = queue.sigma, queue.envelope

        eta = adaptive_step(algo, envelope)
        g, skipped_now = engine.round_gradient(theta, arrivals)
        skipped += skipped_now
        # a blowing-up run overflows here; the divergence test below rejects
        # the inf and NaN that result, so the warnings carry nothing. Each
        # sqrt(x.dot(x)) is np.linalg.norm's 1-D path without its checks.
        with np.errstate(over="ignore", invalid="ignore"):
            if algo.clip_norm is not None:
                norm = math.sqrt(g.dot(g))
                if norm > algo.clip_norm:
                    g = g * (algo.clip_norm / norm)
            theta_next = base.update(theta, g, eta)
            engine.end_round()

            history.append(theta_next)
            step = theta_next - theta
            step_sq = float(step.dot(step))
            step_sqs.append(step_sq)
            drift_sq, step_sq_sum = transport_error_surrogates(history, step_sqs, queue.outstanding, t)
            if is_constant_delay and delay.d >= 1:
                bound = delay.d * step_sq_sum
                if drift_sq > bound * (1 + 1e-9) + 1e-15:
                    raise InvariantError(
                        f"window inequality violated at round {t}: {drift_sq} > {bound}"
                    )
            # NaN fails the comparison, so one test rejects NaN, inf and a norm past the guard
            bad_theta = not (math.sqrt(theta_next.dot(theta_next)) <= DIVERGENCE_NORM)

        regret_inc = true_loss - env.comparator_round_loss(z_t)
        row_diverged = bad_theta or env.unstable or solve_failed
        rows.append((t, sigma, envelope, eta, true_loss, regret_inc, step_sq, drift_sq, step_sq_sum,
                     np.nan if opt_gap is None else opt_gap, 1.0 if row_diverged else 0.0))
        if row_diverged:
            diverged = True
            diverged_round = t
            break
        theta = theta_next

    columns = {k: np.asarray(v, dtype=float) for k, v in zip(ROW_COLUMNS, zip(*rows))}
    return RunResult(
        columns=columns,
        diverged=diverged,
        diverged_round=diverged_round,
        delay_hash=delay.realized_hash(),
        poisson_cap_hits=delay.cap_hits,
        skipped_arrivals=skipped,
        comparator_note=env.comparator_note,
        final_theta=theta if not diverged else history[-1],
    )

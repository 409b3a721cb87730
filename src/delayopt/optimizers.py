"""Update rules and gradient sources for the delayed online loop.

An algorithm is a (gradient source, base update rule, step schedule) triple.
Gradient sources decide *which* outer gradient a round applies: the
transport-corrected sum, the stale arrival sum evaluated at dispatch
snapshots, or the two-stage regression gradient. Base rules decide *how* a
gradient moves the parameters: plain gradient descent, Adam, or lazy
cumulative-gradient FTRL. Any source composes with any base rule, which is
what makes the transport correction optimizer-agnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from delayopt.core import ContractError, OutcomeRecord
from delayopt.environments.base import Environment
from delayopt.transport import TransportBuffer, arrival_factors, transport_step
# unused here, but bench/instrument.py traces these two bindings of this module
from delayopt.transport import hypergradient_at, solve_adjoint  # noqa: F401


def adaptive_step(algo: AlgorithmConfig, envelope: int) -> float:
    """The round's step at queue envelope ``envelope``:
    eta_0 / sqrt(1 + beta * envelope), or eta_0 in ``constant`` mode."""
    if algo.schedule_mode == "constant":
        return algo.eta0
    return algo.eta0 / math.sqrt(1.0 + algo.beta_damping * envelope)


class PlainGD:
    """theta <- theta - eta * g."""

    def update(self, theta: np.ndarray, g: np.ndarray, eta: float) -> np.ndarray:
        return theta - eta * g


class Adam:
    """Adam with bias correction; the schedule's eta_t is the learning rate.

    The moments ``m`` and ``v`` are the rule's own state, so they are
    updated in place; each step rounds as the textbook expression does, so
    every bit matches it. The returned θ is a fresh array on every call:
    the runner keeps each θ in its history.
    """

    beta1 = 0.9  # first-moment decay
    beta2 = 0.999  # second-moment decay
    floor = 1e-8  # added to the root second moment

    def __init__(self):
        self.m: Optional[np.ndarray] = None
        self.v: Optional[np.ndarray] = None
        self.t = 0

    def update(self, theta: np.ndarray, g: np.ndarray, eta: float) -> np.ndarray:
        if self.m is None:
            self.m = np.zeros_like(theta)
            self.v = np.zeros_like(theta)
        self.t += 1
        self.m *= self.beta1
        self.m += (1 - self.beta1) * g
        self.v *= self.beta2
        self.v += (1 - self.beta2) * g * g
        m_hat = self.m / (1 - self.beta1 ** self.t)
        v_hat = self.v / (1 - self.beta2 ** self.t)
        return theta - eta * m_hat / (np.sqrt(v_hat) + self.floor)


class LazyFTRL:
    """theta_{t+1} = theta_1 - eta_t * (cumulative applied gradient)."""

    def __init__(self):
        self.theta1: Optional[np.ndarray] = None
        self.cumulative: Optional[np.ndarray] = None

    def update(self, theta: np.ndarray, g: np.ndarray, eta: float) -> np.ndarray:
        if self.theta1 is None:
            self.theta1 = theta.copy()
            self.cumulative = np.zeros_like(theta)
        self.cumulative += g
        return self.theta1 - eta * self.cumulative


BASE_RULES = {"plain_gd": PlainGD, "adam": Adam, "dftrl": LazyFTRL}
GRADIENT_SOURCES = ("transport", "stale", "two_stage")
SCHEDULE_MODES = ("queue_adaptive", "constant")


def make_base_rule(cfg: "AlgorithmConfig"):
    return BASE_RULES[cfg.base]()


class TransportEngine:
    """Arrival gradients plus buffer re-evaluation at the current parameters."""

    def __init__(self, problem: Environment, capacity: int):
        self.problem = problem
        self.buffer = TransportBuffer(capacity)

    def round_gradient(self, theta_t: np.ndarray, arrivals: list[OutcomeRecord]) -> tuple[np.ndarray, int]:
        """The round's gradient and how many arrivals it skipped."""
        return transport_step(self.buffer, arrivals, self.problem, theta_t)

    def end_round(self) -> int:
        return self.buffer.evict_to_capacity()


class StaleArrivalEngine:
    """Summed arrival gradients, each solved and evaluated at its dispatch
    snapshot (theta_s, w_s), in arrival order, as a batch of one round's
    stored factors; nothing is kept for re-evaluation."""

    def __init__(self, problem: Environment):
        self.problem = problem

    def round_gradient(self, theta_t: np.ndarray, arrivals: list[OutcomeRecord]) -> tuple[np.ndarray, int]:
        g = np.zeros(theta_t.shape)
        arrived = arrival_factors(self.problem, arrivals)
        for rec, factors in arrived:
            g += self.problem.hypergradients_at_many(rec.dispatch_params, *[f[None] for f in factors])[0]
        return g, len(arrivals) - len(arrived)

    def end_round(self) -> int:
        return 0


class TwoStageEngine:
    """Regression gradients of the prediction error on arrived targets,
    scoring the prediction the model made at dispatch (evaluated at the
    stored snapshot parameters)."""

    def __init__(self, problem: Environment):
        if not problem.has_prediction_target:
            raise ContractError(
                f"{type(problem).__name__} exposes no prediction target; "
                "the two-stage baseline cannot run on it"
            )
        self.problem = problem

    def round_gradient(self, theta_t: np.ndarray, arrivals: list[OutcomeRecord]) -> tuple[np.ndarray, int]:
        g = np.zeros(theta_t.shape)
        for rec in arrivals:
            g += self.problem.two_stage_gradient(rec.dispatch_params, rec)
        return g, 0

    def end_round(self) -> int:
        return 0


@dataclass
class AlgorithmConfig:
    """Everything that defines one optimizer run, minus the environment."""

    name: str
    gradient: str  # "transport" | "stale" | "two_stage"
    base: str  # "plain_gd" | "adam" | "dftrl"
    eta0: float = 0.01
    beta_damping: float = 1.0
    schedule_mode: str = "queue_adaptive"
    clip_norm: Optional[float] = None  # gradient norm clip before the base rule

    def __post_init__(self):  # each range test is written so that NaN fails it
        if not 0 < self.eta0 < math.inf:
            raise ContractError("eta0 must be positive and finite")
        if not 0 <= self.beta_damping < math.inf:
            raise ContractError("beta_damping must be finite and >= 0")
        if self.gradient not in GRADIENT_SOURCES:
            raise ContractError(f"gradient {self.gradient!r} is unknown; known: {', '.join(GRADIENT_SOURCES)}")
        if self.base not in BASE_RULES:
            raise ContractError(f"base {self.base!r} is unknown; known: {', '.join(BASE_RULES)}")
        if self.schedule_mode not in SCHEDULE_MODES:
            raise ContractError(f"unknown schedule mode {self.schedule_mode!r}")
        if self.clip_norm is not None and not self.clip_norm > 0:
            raise ContractError("clip_norm must be positive or none")


_REGISTRY: dict[str, dict[str, Any]] = {
    # transported hypergradients on the plain mirror-descent update
    "transport_omd": dict(gradient="transport", base="plain_gd", schedule_mode="queue_adaptive"),
    # stale arrival gradients, no correction
    "stale_omd": dict(gradient="stale", base="plain_gd", schedule_mode="queue_adaptive"),
    # predict-then-optimize baseline: regression on arrived targets
    "two_stage": dict(gradient="two_stage", base="plain_gd", schedule_mode="constant"),
    "two_stage_adam": dict(gradient="two_stage", base="adam", schedule_mode="constant", clip_norm=1.0),
    # Adam-based pairs for the controlled comparisons
    "transport_adam": dict(gradient="transport", base="adam", schedule_mode="constant", clip_norm=1.0, beta_damping=0.0),
    "stale_adam": dict(gradient="stale", base="adam", schedule_mode="constant", clip_norm=1.0, beta_damping=0.0),
}


def algorithm_names() -> list[str]:
    return sorted(_REGISTRY)


def make_algorithm(name: str, **overrides) -> AlgorithmConfig:
    if name not in _REGISTRY:
        raise ContractError(f"unknown algorithm {name!r}; known: {', '.join(algorithm_names())}")
    kwargs: dict[str, Any] = dict(_REGISTRY[name])
    kwargs.update(overrides)
    return AlgorithmConfig(name=name, **kwargs)


def make_engine(cfg: AlgorithmConfig, problem: Environment, buffer_capacity: int):
    # AlgorithmConfig admits only the GRADIENT_SOURCES
    if cfg.gradient == "transport":
        return TransportEngine(problem, buffer_capacity)
    if cfg.gradient == "stale":
        return StaleArrivalEngine(problem)
    return TwoStageEngine(problem)

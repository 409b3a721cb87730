"""Entropic coupling selection with a low-capacity cost predictor under drift.

Each round a context feature vector (mean-reverting, seeded) maps through the
learned predictor to a cost matrix; the inner solver runs a fixed number of
log-domain dual sweeps to produce an entropic coupling between two uniform
marginals. The realized loss prices the executed coupling against the
drifting true cost matrix, which is generated by a fixed ground-truth map of
the same features. Regret is measured against the exact minimum-cost plan on
the realized costs.

The predictor is a single weight matrix behind a softplus link: one linear
layer, analytic derivatives, positive costs without ad-hoc clamping. The link
matters beyond positivity: it makes the predictor Jacobian depend on the
parameters, so re-evaluating a stored gradient at new parameters actually
changes it. With a purely affine predictor the re-evaluation would be a
no-op and the transport correction could never differ from the stale
baseline. Predicted and realized costs are floored at ``COST_FLOOR``; the
inner solve raises coupling masses below ``COUPLING_FLOOR`` to it, counting
each in ``floored_couplings``; and the adjoint system alone floors masses at
``ADJOINT_FLOOR`` (see ``exact_adjoint``).

The entropic term makes the inner objective strongly convex with curvature
``regularization / w`` per coordinate. On the marginal-preserving couplings
the adjoint system therefore has a closed form through a 2n dual system (see
``exact_adjoint``), so no iterative solve is needed: one dense solve through
``solvers.lapack_solve`` per arrival.

A stored round's re-evaluation reads its context features and its adjoint,
which are its ``stored_factors``; the transport buffer keeps both stacked,
so a batch joins nothing. Re-evaluating stored rounds forms each round's raw
activations with its own matrix-vector product, stacked in one ``matmul``
call: one matrix-matrix product over all rounds runs another BLAS kernel,
whose rows differ from a single round's at rounding level. The outer
products stay one ``einsum``: a broadcasting multiply takes about 1.5 times
as long at 8 to 50 rows, and where an entry is zero it gives ``-0.0`` where
the per-round formula (zero minus the product) and ``einsum`` (which sums
into zeros) give ``+0.0``.

The comparator reads only the round's realized costs, so with a seed memo
(see ``environments/base.py``) its assignment solve runs once per seed and
round, whichever cell gets there first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from delayopt.core import ContractError
from delayopt.environments.base import Environment
from delayopt.solvers import assignment_min_cost, lapack_solve, sinkhorn_log

COST_FLOOR = 1e-3
COUPLING_FLOOR = 1e-30
ADJOINT_FLOOR = 1e-6
DRIFT_RATE = 0.05  # per-round pull of the context features toward their anchor
COST_SCALE = 1.0  # mean true cost at the anchor features


@dataclass
class SinkhornConfig:
    n: int = 10
    feature_dim: int = 20
    regularization: float = 0.05
    inner_iterations: int = 10
    drift_noise: float = 0.1  # context-feature noise scale
    task_seed: int = 0  # structure (true map, anchor features); run seed drives drift

    def __post_init__(self):  # each range test is written so that NaN fails it
        for name in ("n", "feature_dim"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be >= 1")
        if not self.regularization > 0:
            raise ContractError("entropic regularization must be positive")
        if self.inner_iterations < 1:
            raise ContractError("inner iterations must be >= 1")
        if not 0 <= self.drift_noise < math.inf:
            raise ContractError("drift_noise must be finite and >= 0")
        if self.task_seed < 0:
            raise ContractError("task_seed must be >= 0")


class SinkhornProblem(Environment):
    has_prediction_target = True

    def __init__(self, cfg: SinkhornConfig, seed: int = 0):
        self.cfg = cfg
        n, k = cfg.n, cfg.feature_dim
        self.q = n * n
        self.p = self.q * k
        self.mu_w_hint = cfg.regularization
        rng = np.random.default_rng([int(cfg.task_seed), 5077])
        # ground-truth nonnegative map; features mean-revert around a positive
        # anchor so realized costs stay bounded away from zero. The map is
        # rescaled so the anchor-point mean cost equals COST_SCALE exactly,
        # keeping regret magnitudes comparable across seeds.
        self.map_true = np.abs(rng.standard_normal((self.q, k))) / np.sqrt(k)
        self.feat_mean = 0.5 + np.abs(rng.standard_normal(k))
        self.map_true *= COST_SCALE / float(np.mean(self.map_true @ self.feat_mean))
        self._drift_rng = np.random.default_rng([int(seed), 5231])
        self.features = self.feat_mean.copy()
        self.mu = np.full(n, 1.0 / n)
        self.nu = np.full(n, 1.0 / n)
        self.floored_couplings = 0
        # start from a uniform positive cost prediction at the anchor features
        mean_cost = float(np.mean(self.true_costs(self.feat_mean)))
        self._log_cap = float(np.log(max(100.0 * mean_cost, 10.0)))
        raw_target = float(np.log(mean_cost))
        self._theta1 = np.outer(
            np.full(self.q, raw_target / float(self.feat_mean @ self.feat_mean)), self.feat_mean
        ).ravel()
        self.comparator_note = "comparator: exact minimum-cost plan on realized costs"

    # -- predictor ------------------------------------------------------------

    def _weights(self, theta: np.ndarray) -> np.ndarray:
        return np.asarray(theta).reshape(self.q, self.cfg.feature_dim)

    def _link(self, raw: np.ndarray, derivative: bool = False):
        """Costs ``max(exp(min(raw, cap)), floor)`` from raw pre-link
        activations of any shape; with ``derivative``, also the derivative of
        cost w.r.t. the raw activation, zero where the cap or the floor binds.

        The log-linear link keeps costs positive and makes the predictor
        Jacobian scale with the prediction, so stored gradients genuinely
        change when re-evaluated at new parameters.
        """
        capped = np.exp(np.minimum(raw, self._log_cap))
        costs = np.maximum(capped, COST_FLOOR)
        if not derivative:
            return costs
        clamped = (capped < COST_FLOOR) | (raw >= self._log_cap)
        return costs, np.where(clamped, 0.0, capped)

    def predicted_costs(self, theta: np.ndarray, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Predicted cost vector and its derivative w.r.t. the raw activation."""
        return self._link(self._weights(theta) @ features, derivative=True)

    def true_costs(self, features: np.ndarray) -> np.ndarray:
        """Realized cost vector of the ground-truth map at ``features``."""
        return np.maximum(self.map_true @ features, COST_FLOOR)

    def _features(self, z: Optional[dict]) -> np.ndarray:
        """Features of outcome payload ``z``; the current round's when None."""
        return self.features if z is None else z["features"]

    # -- derivative products ------------------------------------------------------

    def model_loss(self, w, theta, z=None) -> float:
        costs, _ = self.predicted_costs(theta, self._features(z))
        w = np.asarray(w)
        ent = float(np.sum(w * np.log(np.maximum(w, COUPLING_FLOOR))))
        return float(costs @ w) + self.cfg.regularization * ent

    def grad_w_model(self, w, theta, z=None):
        costs, _ = self.predicted_costs(theta, self._features(z))
        w = np.maximum(np.asarray(w), COUPLING_FLOOR)
        return costs + self.cfg.regularization * (1.0 + np.log(w))

    def exact_adjoint(self, w, theta, z):
        """Adjoint restricted to the transport polytope's tangent space.

        The coupling keeps fixed marginals, so the adjoint solves the entropic
        Hessian ``eps / w`` on perturbations with zero row and column sums.
        That solution is ``v = K * (c + a_i + b_j)`` with ``K = w / eps`` and
        ``c`` the realized-cost gradient; the duals ``(a, b)`` make the row and
        column sums of ``v`` vanish, a 2n system
        ``[[diag K1, K], [K^T, diag K^T 1]] (a, b) = -(row sums, column sums of K * c)``
        whose null direction ``(a + s, b - s)`` is removed by pinning the last
        column dual to 0.

        Masses below ``ADJOINT_FLOOR`` are raised to it: the curvature of
        near-empty coordinates is inversely proportional to their mass, and
        the floor bounds it at the cost of an O(floor) bias on those
        already-negligible coordinates.

        The sums go straight into the system: the diagonal through a strided
        view of ``M``, the right-hand side into one vector negated in place.
        Column sums run row after row whichever columns are summed, so
        summing the first ``n - 1`` columns gives the bits of summing all
        ``n`` and dropping the last. The system goes to ``solvers.lapack_solve``,
        the gufunc ``np.linalg.solve`` calls, with the same bits.
        """
        n = self.cfg.n
        K = np.maximum(np.asarray(w), ADJOINT_FLOOR).reshape(n, n) / self.cfg.regularization
        C = z["costs_true"].reshape(n, n)
        KC = K * C
        K_head = K[:, :-1]
        M = np.zeros((2 * n - 1, 2 * n - 1))
        diagonal = M.reshape(-1)[::2 * n]  # a view: the sums land in M
        np.add.reduce(K, 1, None, diagonal[:n])
        np.add.reduce(K_head, 0, None, diagonal[n:])
        M[:n, n:] = K_head
        M[n:, :n] = K_head.T
        rhs = np.empty(2 * n - 1)
        np.add.reduce(KC, 1, None, rhs[:n])
        np.add.reduce(KC[:, :-1], 0, None, rhs[n:])
        np.negative(rhs, rhs)
        duals = lapack_solve(M, rhs)
        b = np.zeros(n)  # the last column dual stays pinned at 0
        b[:-1] = duals[n:]
        V = C + duals[:n, None]
        V += b
        V *= K
        return V.ravel()

    def cross_partial_transpose_vp(self, w, theta, v, z=None):
        feats = self._features(z)
        _, dcost = self.predicted_costs(theta, feats)
        return np.outer(np.asarray(v) * dcost, feats).ravel()

    def stored_factors(self, w, v, z):
        """The round's (k,) context features and its (q,) adjoint."""
        return z["features"], v

    def hypergradients_at_many(self, theta, F, V):
        """Batched re-evaluation of stored-round hypergradients at one
        parameter point from the (m, k) features and (m, q) adjoints; rows
        are bit-identical to the per-round formula."""
        raw = np.matmul(self._weights(theta), F[:, :, None])[:, :, 0]  # (m, q)
        _, dcost = self._link(raw, derivative=True)
        U = -(V * dcost)  # direct term is zero; gradient = -(v * dC) outer features
        return np.einsum("ij,ik->ijk", U, F).reshape(len(F), self.p)

    def true_loss(self, w, theta, z) -> float:
        return float(z["costs_true"] @ np.asarray(w))

    def grad_w_true(self, w, theta, z):
        return z["costs_true"].copy()

    def grad_theta_true_fixed_w(self, w, theta, z):
        return np.zeros(self.p)

    # -- runner hooks ---------------------------------------------------------

    def theta_init(self):
        return self._theta1.copy()

    def initial_decision(self):
        return np.full(self.q, 1.0 / self.q)

    def begin_round(self, t: int) -> None:
        self.round = t
        noise = self._drift_rng.standard_normal(self.cfg.feature_dim)
        self.features = (
            (1.0 - DRIFT_RATE) * self.features + DRIFT_RATE * self.feat_mean + self.cfg.drift_noise * noise
        )

    def marginal_residual(self, w: np.ndarray) -> float:
        plan = np.asarray(w).reshape(self.cfg.n, self.cfg.n)
        row = np.max(np.abs(np.add.reduce(plan, 1) - self.mu))
        col = np.max(np.abs(np.add.reduce(plan, 0) - self.nu))
        return float(max(row, col))

    def solve_inner(self, theta, w_prev):
        costs = self._link(self._weights(theta) @ self.features)
        plan = sinkhorn_log(costs.reshape(self.cfg.n, self.cfg.n), self.mu, self.nu,
                            self.cfg.regularization, self.cfg.inner_iterations)
        w = plan.ravel()
        low = w < COUPLING_FLOOR
        if np.any(low):
            self.floored_couplings += int(np.sum(low))
            w = np.maximum(w, COUPLING_FLOOR)
        return w

    def inner_diagnostics(self, theta, w):
        """The coupling's marginal residual, and that over the entropic
        strong-convexity hint ``regularization``."""
        residual = self.marginal_residual(w)
        return residual, residual / self.mu_w_hint

    def realize_outcome(self, t, theta, w):
        z = {
            "features": self.features.copy(),
            "costs_true": self.true_costs(self.features),
        }
        return z, self.true_loss(w, theta, z), None

    def comparator_round_loss(self, z) -> float:
        return self.round_value("comparator", z, self._plan_loss)

    def _plan_loss(self, z: dict) -> float:
        # decision-optimal benchmark: the minimum-cost plan on the realized
        # costs. With uniform marginals it is a permutation scaled by 1/n
        # (Birkhoff-von Neumann), so an exact assignment solve prices it. No
        # coupling with exact marginals beats it; the executed plan's inexact
        # row marginals can, by at most n * residual * max cost.
        n = self.cfg.n
        _, total = assignment_min_cost(z["costs_true"].reshape(n, n))
        return total / n

    def two_stage_gradient(self, theta, record):
        z = record.payload
        feats = z["features"]
        costs, dcost = self.predicted_costs(theta, feats)
        residual = (costs - z["costs_true"]) * dcost
        return np.outer(residual, feats).ravel()


"""Terrain-grid shortest-path decisions with a perturbation-surrogate gradient.

A seeded synthetic terrain assigns each cell one of four base cost levels;
per-cell costs drift around those levels. A linear model over fixed per-cell
features predicts traversal costs; the inner problem is an exact shortest-path
solve between per-round endpoints sampled on the grid border, so inner error
is identically zero.

Because the solver is combinatorial, the smooth adjoint route does not apply.
The outer gradient is the finite-difference-of-paths surrogate: perturb the
predicted costs in the direction of the realized true costs, re-solve, and
read the gradient off the change in the path indicator, scaled back by the
perturbation size.

There is no adjoint, so the environment has no derivative products and
``hypergradients_at_many`` reads only the stored payloads. The decision is
one heap solve per round. The oracle path on the realized costs and the
comparator's path read only the round's payload, so with a seed memo (see
``environments/base.py``) each is priced once per seed and round, whichever
cell gets there first, and is one heap solve per round without one. The
comparator's costs never change, so its path comes from a cached heap
shortest-path tree per start (at most one per border cell), solved on first
use; each round only backtracks from its goal. Re-evaluating the transport
buffer, with the round's transport arrivals, is one batched solve per round.
Every stored round is evaluated at the same theta, so the base paths share
the predicted grid and one distance field per distinct start; each bumped
path keeps a field of its own. The batched solve keeps every field in one
flat buffer, so each min-plus sweep over all of them is a few contiguous
array operations, and it backtracks every path at once. A batch of one (an
arrival into an empty buffer, as every round at d = 0, or a stale arrival at
its own dispatch snapshot) keeps two heap solves: at one grid the heap solver
is still the faster one. The batched solve returns the heap solver's paths
bit for bit: ties go to the neighbour smallest in (distance, row, column),
the order in which the heap settles cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from delayopt.core import ContractError, OutcomeRecord
from delayopt.environments.base import Environment
from delayopt.solvers import (
    InnerSolveReport,
    dijkstra_grid,
    grid_shortest_paths,
    shortest_path_tree,
    tree_path,
)

TERRAIN_LEVELS = (1.0, 2.0, 5.0, 10.0)


@dataclass
class GridPathConfig:
    height: int = 12
    width: int = 12
    feature_dim: int = 128
    perturbation: float = 1.0  # surrogate perturbation scale
    feature_noise: float = 0.5  # distractor feature magnitude
    drift_rate: float = 0.05
    drift_noise: float = 0.15
    cost_floor: float = 1e-3
    task_seed: int = 0  # terrain and features; run seed drives drift and endpoints

    def __post_init__(self):
        if self.perturbation <= 0:
            raise ContractError("perturbation scale must be positive")


class GridPathProblem(Environment):
    has_prediction_target = True

    def __init__(self, cfg: GridPathConfig, seed: int = 0):
        self.cfg = cfg
        self.n_cells = cfg.height * cfg.width
        self.p = cfg.feature_dim
        self.q = self.n_cells
        rng = np.random.default_rng([int(cfg.task_seed), 6133])
        self.terrain = rng.integers(0, len(TERRAIN_LEVELS), size=self.n_cells)
        self.base_costs = np.array([TERRAIN_LEVELS[i] for i in self.terrain])
        # features: a random embedding of the terrain class plus fixed per-cell
        # distractors; 128 features cannot interpolate 144 cells exactly, so
        # the cost model is deliberately misspecified
        class_embed = rng.standard_normal((len(TERRAIN_LEVELS), cfg.feature_dim))
        noise = cfg.feature_noise * rng.standard_normal((self.n_cells, cfg.feature_dim))
        self.features = class_embed[self.terrain] + noise
        self._drift_rng = np.random.default_rng([int(seed), 6389])
        self._endpoint_rng = np.random.default_rng([int(seed), 6553])
        self.drift = np.zeros(self.n_cells)
        self.start: tuple[int, int] = (0, 0)
        self.goal: tuple[int, int] = (cfg.height - 1, cfg.width - 1)
        self._border = self._border_cells()
        # least-squares fit of the base terrain costs is the comparator predictor
        self.theta_cmp, *_ = np.linalg.lstsq(self.features, self.base_costs, rcond=None)
        self._theta1, *_ = np.linalg.lstsq(
            self.features, np.full(self.n_cells, float(np.mean(self.base_costs))), rcond=None
        )
        self.comparator_note = "fixed comparator: least-squares terrain fit"
        self._cmp_grid = self.predicted_costs(self.theta_cmp)[0].reshape(cfg.height, cfg.width)
        self._cmp_trees: dict[tuple[int, int], list[int]] = {}  # start -> heap parents

    def _border_cells(self) -> list[tuple[int, int]]:
        H, W = self.cfg.height, self.cfg.width
        cells = [(r, c) for r in range(H) for c in range(W)
                 if r in (0, H - 1) or c in (0, W - 1)]
        return cells

    # -- cost models -----------------------------------------------------------

    def predicted_costs(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raw = self.features @ np.asarray(theta)
        mask = (raw > self.cfg.cost_floor).astype(float)
        return np.maximum(raw, self.cfg.cost_floor), mask

    def current_true_costs(self) -> np.ndarray:
        return np.maximum(self.base_costs + self.drift, self.cfg.cost_floor)

    def _shortest(self, costs: np.ndarray, start, goal) -> tuple[np.ndarray, float]:
        grid = costs.reshape(self.cfg.height, self.cfg.width)
        path, total = dijkstra_grid(grid, start, goal)
        return self._indicator(path), total

    def _indicator(self, path: list[tuple[int, int]]) -> np.ndarray:
        indicator = np.zeros(self.n_cells)
        for r, c in path[1:]:  # entered cells; start excluded
            indicator[r * self.cfg.width + c] = 1.0
        return indicator

    # -- outer gradient -----------------------------------------------------------

    def surrogate_gradient(self, theta: np.ndarray, record: OutcomeRecord) -> np.ndarray:
        """Finite difference of path indicators along the realized-cost
        direction, from two heap solves; the per-round reference."""
        return self._heap_gradient(theta, record.payload)

    def hypergradients_at_many(self, theta, decisions, adjoints, payloads) -> np.ndarray:
        """``surrogate_gradient`` of every stored round at one theta, from the
        payloads only: two heap solves for one round, else one batched solve,
        bit-identical per row. Every base path is on the same grid, so the
        batch holds one base field per distinct start, then the m bumped
        grids."""
        m = len(payloads)
        if m == 1:
            return self._heap_gradient(theta, payloads[0])[None, :]
        costs, mask = self.predicted_costs(theta)
        field_of: dict[tuple[int, int], int] = {}
        for z in payloads:
            field_of.setdefault(z["start"], len(field_of))
        u = len(field_of)
        bumped = costs + self.cfg.perturbation * np.stack([z["costs_true"] for z in payloads])
        grids = np.concatenate([np.broadcast_to(costs, (u, self.n_cells)), bumped])
        starts = np.array([*field_of, *(z["start"] for z in payloads)], dtype=np.int64)
        goals = np.array([z["goal"] for z in payloads] * 2, dtype=np.int64)
        sources = np.array([field_of[z["start"]] for z in payloads] + list(range(u, u + m)),
                           dtype=np.int64)
        paths, _ = grid_shortest_paths(grids.reshape(u + m, self.cfg.height, self.cfg.width),
                                       starts, goals, sources)
        delta = (paths[m:] - paths[:m]) * mask
        # one matrix-vector product per row, as in the single evaluation
        return np.matmul(self.features.T, delta[:, :, None])[:, :, 0] / self.cfg.perturbation

    def _heap_gradient(self, theta: np.ndarray, z: dict) -> np.ndarray:
        costs, mask = self.predicted_costs(theta)
        base_path, _ = self._shortest(costs, z["start"], z["goal"])
        bumped = costs + self.cfg.perturbation * z["costs_true"]
        bump_path, _ = self._shortest(bumped, z["start"], z["goal"])
        delta = (bump_path - base_path) * mask
        return self.features.T @ delta / self.cfg.perturbation

    # -- runner hooks -------------------------------------------------------------

    def theta_init(self):
        return self._theta1.copy()

    def initial_decision(self):
        return np.zeros(self.q)

    def begin_round(self, t: int) -> None:
        self.round = t
        noise = self._drift_rng.standard_normal(self.n_cells)
        self.drift = (1.0 - self.cfg.drift_rate) * self.drift + self.cfg.drift_noise * noise
        start = self._border[self._endpoint_rng.integers(len(self._border))]
        goal = start
        while goal == start:
            goal = self._border[self._endpoint_rng.integers(len(self._border))]
        self.start, self.goal = start, goal

    def solve_inner(self, theta, w_prev) -> InnerSolveReport:
        costs, _ = self.predicted_costs(theta)
        indicator, _ = self._shortest(costs, self.start, self.goal)
        return InnerSolveReport(solution=indicator, iterations_used=1,
                                residual_norm=0.0, epsilon_estimate=0.0)

    def realize_outcome(self, t, theta, w):
        costs_true = self.current_true_costs()
        z = {"costs_true": costs_true, "start": self.start, "goal": self.goal}
        realized = float(costs_true @ np.asarray(w))
        gap = max(0.0, realized - self.round_value("oracle", z, self._oracle_cost))
        return z, realized, gap

    def _oracle_cost(self, z: dict) -> float:
        """Cost of the shortest path on the realized costs: one heap solve."""
        return self._shortest(z["costs_true"], z["start"], z["goal"])[1]

    def comparator_round_loss(self, z) -> float:
        return self.round_value("comparator", z, self._comparator_loss)

    def _comparator_loss(self, z: dict) -> float:
        """True cost of the comparator's path, backtracked from the heap tree
        of its start: the comparator's costs never change, so each start's
        tree is solved once, on first use."""
        start = z["start"]
        parent = self._cmp_trees.get(start)
        if parent is None:
            _, parent = shortest_path_tree(self._cmp_grid, start)
            self._cmp_trees[start] = parent
        indicator = self._indicator(tree_path(parent, start, z["goal"], self.cfg.width))
        return float(z["costs_true"] @ indicator)

    def two_stage_gradient(self, theta, record):
        z = record.payload
        costs, mask = self.predicted_costs(theta)
        return self.features.T @ ((costs - z["costs_true"]) * mask)

"""Inner solvers and the matrix-free linear solver used for adjoints.

Three inner solvers cover the environments: warm-started gradient descent for
smooth strongly convex objectives, log-domain Sinkhorn iterations for entropic
couplings, and an exact grid shortest-path solver. An exact linear assignment
solver prices the minimum-cost transport plan between uniform marginals, the
Sinkhorn environment's regret comparator. Conjugate gradient handles the
symmetric positive-definite adjoint systems without materializing the inner
Hessian.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from delayopt.core import BilevelProblem, ContractError


class SolverError(RuntimeError):
    """An inner or linear solver failed (divergence, bad operator, bad input)."""


@dataclass
class InnerSolverConfig:
    steps: int
    step_size: float
    warm_start: bool = True

    def __post_init__(self):
        if self.steps < 1:
            raise ContractError("inner solver needs steps >= 1")
        if self.step_size <= 0:
            raise ContractError("inner step size must be positive")


@dataclass
class InnerSolveReport:
    """Approximate inner solution plus how far from optimal it plausibly is.

    ``residual_norm`` is the model-gradient norm at exit. ``epsilon_estimate``
    is the distance to the exact minimizer when a closed form is available,
    otherwise the residual divided by the strong-convexity hint.
    """

    solution: np.ndarray
    iterations_used: int
    residual_norm: float
    epsilon_estimate: float


def inner_gd(
    problem: BilevelProblem,
    theta: np.ndarray,
    w_init: np.ndarray,
    cfg: InnerSolverConfig,
    ctx: Any = None,
) -> InnerSolveReport:
    """Run exactly ``cfg.steps`` gradient steps on the model objective.

    Deterministic; raises on a non-finite gradient, reporting the step index.
    """
    w = np.array(w_init, dtype=float, copy=True)
    if not np.all(np.isfinite(w)):
        raise ContractError("inner_gd requires a finite starting decision")
    for k in range(cfg.steps):
        g = problem.grad_w_model(w, theta, ctx)
        if not np.all(np.isfinite(g)):
            raise SolverError(f"inner divergence at step {k}")
        w -= cfg.step_size * g
    residual = float(np.linalg.norm(problem.grad_w_model(w, theta, ctx)))
    w_star = problem.exact_inner(theta, ctx)
    if w_star is not None:
        eps = float(np.linalg.norm(w - w_star))
    else:
        eps = residual / max(problem.mu_w_hint, 1e-12)
    return InnerSolveReport(solution=w, iterations_used=cfg.steps, residual_norm=residual, epsilon_estimate=eps)


def sinkhorn_log(
    cost_matrix: np.ndarray,
    mu: np.ndarray,
    nu: np.ndarray,
    regularization: float,
    iterations: int,
) -> np.ndarray:
    """Entropic coupling from ``iterations`` log-domain dual sweeps.

    One iteration updates the row potential then the column potential, so
    column sums are exact on exit and row sums approach ``mu`` geometrically.
    Everything runs in the log domain; the coupling is exponentiated only at
    the end, which keeps small regularization (e.g. 0.05) from underflowing.
    """
    if iterations < 1:
        raise ContractError("sinkhorn_log needs iterations >= 1")
    if regularization <= 0:
        raise ContractError("entropic regularization must be positive")
    C = np.asarray(cost_matrix, dtype=float)
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if np.any(mu <= 0) or np.any(nu <= 0):
        raise SolverError("degenerate marginal: entries must be strictly positive")
    if abs(mu.sum() - 1.0) > 1e-12 or abs(nu.sum() - 1.0) > 1e-12:
        raise ContractError("marginals must sum to 1")

    eps = regularization
    log_mu = np.log(mu)
    log_nu = np.log(nu)
    f = np.zeros(C.shape[0])
    g = np.zeros(C.shape[1])
    M = -C / eps
    for _ in range(iterations):
        # log-sum-exp over columns/rows with the dual shifts applied
        f = eps * (log_mu - _logsumexp(M + g[None, :] / eps, axis=1))
        g = eps * (log_nu - _logsumexp(M + f[:, None] / eps, axis=0))
    return np.exp(M + f[:, None] / eps + g[None, :] / eps)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


def assignment_min_cost(cost_matrix: np.ndarray) -> tuple[list[int], float]:
    """Exact minimum-cost perfect matching of an n x n cost matrix.

    Returns ``(cols, total)``: row ``i`` is matched to column ``cols[i]`` and
    ``total`` is the summed cost of the matching. Shortest augmenting paths
    with dual potentials (Hungarian / Jonker-Volgenant), O(n^3). By
    Birkhoff-von Neumann the transport problem between uniform marginals has a
    permutation optimum, so its value is ``total / n``.

    The loops run over plain Python lists: for the small matrices used here
    numpy's per-element overhead would dominate.
    """
    C = np.asarray(cost_matrix, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1] or C.shape[0] == 0:
        raise ContractError("assignment_min_cost needs a non-empty square cost matrix")
    if not np.all(np.isfinite(C)):
        raise ContractError("assignment_min_cost needs finite costs")
    n = C.shape[0]
    rows = C.tolist()
    inf = math.inf
    # 1-indexed potentials; column 0 is the virtual source of each augmentation
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    match = [0] * (n + 1)  # match[j]: row (1-indexed) assigned to column j
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            row = rows[i0 - 1]
            ui0 = u[i0]
            delta = inf
            j1 = 0
            for j in range(1, n + 1):
                if not used[j]:
                    reduced = row[j - 1] - ui0 - v[j]
                    if reduced < minv[j]:
                        minv[j] = reduced
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        # flip the alternating path back to the source
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    cols = [0] * n
    for j in range(1, n + 1):
        cols[match[j] - 1] = j - 1
    total = 0.0
    for i in range(n):
        total += rows[i][cols[i]]
    return cols, total


def dijkstra_grid(
    cell_costs: np.ndarray,
    start: tuple[int, int],
    goal: tuple[int, int],
) -> tuple[list[tuple[int, int]], float]:
    """Minimal-cost 4-connected path under entered-cell node costs.

    The cost of a path is the sum of the costs of the cells it enters; the
    start cell is excluded. Ties are broken lexicographically on
    (cost, row, column) so paths are identical across platforms.
    """
    costs = np.asarray(cell_costs, dtype=float)
    if np.any(costs <= 0):
        raise SolverError("dijkstra_grid requires strictly positive cell costs")
    H, W = costs.shape
    sr, sc = start
    gr, gc = goal
    if not (0 <= sr < H and 0 <= sc < W and 0 <= gr < H and 0 <= gc < W):
        raise ContractError("start/goal outside the grid")
    if start == goal:
        raise ContractError("start and goal must differ")

    flat = costs.ravel()
    n = H * W
    s_idx = sr * W + sc
    g_idx = gr * W + gc
    dist = np.full(n, np.inf)
    parent = np.full(n, -1, dtype=np.int64)
    done = np.zeros(n, dtype=bool)
    dist[s_idx] = 0.0
    heap: list[tuple[float, int]] = [(0.0, s_idx)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        if u == g_idx:
            break
        r, c = divmod(u, W)
        if r > 0:
            _relax(u, u - W, d + flat[u - W], dist, parent, heap)
        if r + 1 < H:
            _relax(u, u + W, d + flat[u + W], dist, parent, heap)
        if c > 0:
            _relax(u, u - 1, d + flat[u - 1], dist, parent, heap)
        if c + 1 < W:
            _relax(u, u + 1, d + flat[u + 1], dist, parent, heap)
    if not done[g_idx]:
        raise SolverError("no path from start to goal")
    path_idx = [g_idx]
    while path_idx[-1] != s_idx:
        path_idx.append(int(parent[path_idx[-1]]))
    path_idx.reverse()
    path = [(i // W, i % W) for i in path_idx]
    return path, float(dist[g_idx])


def _relax(u: int, v: int, nd: float, dist, parent, heap) -> None:
    # strict improvement only: the first settle under the (cost, index) heap
    # order fixes lexicographic tie-breaking
    if nd < dist[v]:
        dist[v] = nd
        parent[v] = u
        heapq.heappush(heap, (nd, v))


@dataclass
class CGConfig:
    tolerance: float = 1e-8
    max_iterations: Optional[int] = None  # defaults to 10 * dimension
    warm_start: bool = True

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ContractError("CG tolerance must be positive")


def conjugate_gradient(
    apply_A: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    cfg: Optional[CGConfig] = None,
) -> tuple[np.ndarray, float, int]:
    """Solve ``A x = b`` for a symmetric positive definite operator.

    Returns ``(x, residual_norm, iterations)`` with the residual guaranteed
    below ``tolerance * max(1, ||b||)`` unless the iteration cap was hit.
    Detected negative curvature raises, since it means the operator is not SPD
    on the explored subspace.
    """
    cfg = cfg or CGConfig()
    b = np.asarray(b, dtype=float)
    n = b.size
    max_iter = cfg.max_iterations if cfg.max_iterations is not None else 10 * n
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float, copy=True)
    r = b - apply_A(x)
    tol = cfg.tolerance * max(1.0, float(np.linalg.norm(b)))
    res = float(np.linalg.norm(r))
    if res <= tol:
        return x, res, 0
    p = r.copy()
    rs = float(r @ r)
    iters = 0
    while iters < max_iter:
        Ap = apply_A(p)
        pAp = float(p @ Ap)
        if pAp <= 0:
            raise SolverError("operator not SPD: encountered non-positive curvature")
        alpha = rs / pAp
        x += alpha * p
        r -= alpha * Ap
        iters += 1
        res = float(np.linalg.norm(r))
        if res <= tol:
            break
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, res, iters

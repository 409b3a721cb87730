"""Inner solvers and the matrix-free linear solver used for adjoints.

Three inner solvers cover the environments: warm-started gradient descent for
smooth strongly convex objectives, log-domain Sinkhorn iterations for entropic
couplings, and an exact grid shortest-path solver. A batched grid solver
returns the same paths for many grids at once from one vectorized min-plus
relaxation, for re-evaluating a whole transport buffer. An exact linear
assignment solver prices the minimum-cost transport plan between uniform
marginals, the Sinkhorn environment's regret comparator. Conjugate gradient
solves a symmetric positive-definite system from its operator action alone;
every environment solves its adjoint in closed form, so it serves only as the
reference those closed forms are checked against.
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

    def __post_init__(self):
        if self.steps < 1:
            raise ContractError("inner solver needs steps >= 1")
        if self.step_size <= 0:
            raise ContractError("inner step size must be positive")


@dataclass
class InnerSolveReport:
    """Approximate inner solution plus how far from optimal it plausibly is.

    ``residual_norm`` is the model-gradient norm at exit. ``epsilon_estimate``
    bounds the distance to the exact minimizer: for a mu-strongly convex
    objective that distance is at most the residual divided by mu, the
    strong-convexity hint. On a quadratic whose curvature is mu the bound is
    the distance itself.
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

    The gradient comes from ``problem.model_gradient_at(theta, ctx)``, taken
    once per solve, so an environment can form its theta-only terms once
    rather than at every step. Deterministic.

    Finiteness is checked once, after the last step: subtracting an infinite
    or NaN step from the iterate never gives a finite value, so a non-finite
    gradient at any step leaves the solution non-finite and raises
    ``SolverError``; floating-point warnings inside the loop are silenced.
    """
    w = np.array(w_init, dtype=float, copy=True)
    if not np.all(np.isfinite(w)):
        raise ContractError("inner_gd requires a finite starting decision")
    grad = problem.model_gradient_at(theta, ctx)
    step_size = cfg.step_size
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.steps):
            w -= step_size * grad(w)
    if not np.isfinite(w).all():
        raise SolverError(f"inner divergence within {cfg.steps} steps")
    residual = float(np.linalg.norm(grad(w)))
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
    a = np.empty_like(M)  # shifted log-kernel, overwritten in place each half-sweep
    for _ in range(iterations):
        # log-sum-exp over columns, then rows, with the dual shifts applied
        np.add(M, g / eps, out=a)
        m = a.max(axis=1)
        a -= m[:, None]
        np.exp(a, out=a)
        f = eps * (log_mu - (m + np.log(a.sum(axis=1))))
        np.add(M, (f / eps)[:, None], out=a)
        m = a.max(axis=0)
        a -= m
        np.exp(a, out=a)
        g = eps * (log_nu - (m + np.log(a.sum(axis=0))))
    return np.exp(M + f[:, None] / eps + g[None, :] / eps)


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
    (cost, row, column) so paths are identical across platforms. The search
    is :func:`shortest_path_tree`'s, stopped once the goal is settled.
    """
    dist, parent = shortest_path_tree(cell_costs, start, goal)
    W = np.shape(cell_costs)[1]
    return tree_path(parent, start, goal, W), dist[goal[0] * W + goal[1]]


def shortest_path_tree(
    cell_costs: np.ndarray,
    start: tuple[int, int],
    goal: Optional[tuple[int, int]] = None,
) -> tuple[list[float], list[int]]:
    """Heap shortest-path distances and parents from ``start``, flat row-major.

    Returns ``(dist, parent)`` as lists over the ``H * W`` cells;
    ``parent[start]`` is -1. Without ``goal`` every cell is settled. With one,
    the search stops once the goal is settled, which fixes the parents of
    every cell on its path. A settled cell's parent never changes again, so
    :func:`tree_path` on the full tree gives the early-stopped path for every
    goal, bit for bit.

    The loop runs on plain Python lists: indexing a numpy array yields a
    boxed scalar per access, which costs more than the arithmetic itself.
    Python float addition is the same IEEE double add as numpy's. The heap
    orders on ``(cost, index)`` and a neighbour is relaxed only on strict
    improvement, in up, down, left, right order, so ties break the same way
    on every platform and :func:`grid_shortest_paths` reproduces them.
    """
    costs = _checked_costs(cell_costs, "grid shortest-path solve")
    H, W = costs.shape
    sr, sc = start
    gr, gc = start if goal is None else goal
    if not (0 <= sr < H and 0 <= sc < W and 0 <= gr < H and 0 <= gc < W):
        raise ContractError("start/goal outside the grid")
    if goal is not None and (sr, sc) == (gr, gc):
        raise ContractError("start and goal must differ")

    flat = costs.ravel().tolist()
    n = H * W
    s_idx = sr * W + sc
    g_idx = -1 if goal is None else gr * W + gc
    dist = [math.inf] * n
    parent = [-1] * n
    done = [False] * n
    dist[s_idx] = 0.0
    heap: list[tuple[float, int]] = [(0.0, s_idx)]
    push, pop = heapq.heappush, heapq.heappop
    # strict improvement only: the first settle under the (cost, index) heap
    # order fixes lexicographic tie-breaking
    while heap:
        d, u = pop(heap)
        if done[u]:
            continue
        done[u] = True
        if u == g_idx:
            break
        r, c = divmod(u, W)
        if r > 0:
            v = u - W
            nd = d + flat[v]
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                push(heap, (nd, v))
        if r + 1 < H:
            v = u + W
            nd = d + flat[v]
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                push(heap, (nd, v))
        if c > 0:
            v = u - 1
            nd = d + flat[v]
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                push(heap, (nd, v))
        if c + 1 < W:
            v = u + 1
            nd = d + flat[v]
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                push(heap, (nd, v))
    return dist, parent


def tree_path(
    parent: list[int],
    start: tuple[int, int],
    goal: tuple[int, int],
    width: int,
) -> list[tuple[int, int]]:
    """The ``start`` to ``goal`` path of a :func:`shortest_path_tree` parent
    list over a grid ``width`` cells wide, as (row, column) cells."""
    s_idx = start[0] * width + start[1]
    g_idx = goal[0] * width + goal[1]
    path_idx = [g_idx]
    while path_idx[-1] != s_idx:
        v = parent[path_idx[-1]]
        if v < 0:
            raise SolverError("no path from start to goal")
        path_idx.append(v)
    path_idx.reverse()
    return [divmod(i, width) for i in path_idx]


def _checked_costs(cell_costs: np.ndarray, solver: str) -> np.ndarray:
    costs = np.asarray(cell_costs, dtype=float)
    # NaN fails every comparison, so test for the valid range, not against it
    if not np.all(np.isfinite(costs) & (costs > 0)):
        raise SolverError(f"{solver} requires finite, strictly positive cell costs")
    return costs


def grid_shortest_paths(
    cell_costs: np.ndarray,
    starts: np.ndarray,
    goals: np.ndarray,
    sources: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Many :func:`dijkstra_grid` solves at once, with identical results.

    ``cell_costs`` is ``(k, H, W)`` and ``starts`` ``(k, 2)``: one distance
    field per grid and start. ``goals`` is ``(m, 2)`` and ``sources`` ``(m,)``:
    query ``j`` is the path from ``starts[sources[j]]`` to ``goals[j]`` on
    grid ``sources[j]``, so queries that share a grid and start share one
    field, and a field no query uses is still solved. Points are (row,
    column) pairs. Returns ``(indicators, totals)``: ``indicators[j]`` is the
    flat ``H * W`` 0/1 vector of the cells path ``j`` enters (start excluded)
    and ``totals[j]`` its cost.

    Layout: all fields live in one flat buffer, field index innermost. Each
    grid row becomes ``W + 1`` cells of ``k`` values; the extra cell holds
    ``inf`` and is the right border of its row and the left border of the
    next. One all-``inf`` row pads the top and one the bottom. With
    ``L = (W + 1) * k``, the up, down, left and right neighbours of every
    cell are the contiguous slices at offsets ``-L``, ``+L``, ``-k`` and
    ``+k``, so a sweep is four whole-buffer operations plus a write to the
    starts, and no shift bleeds across fields or rows. The border cells cost
    ``inf``, so they stay ``inf`` without a mask; nothing is ever ``-inf`` or
    NaN, so the ``inf`` arithmetic raises no warning.

    Distances come from min-plus sweeps between two buffers: each sweep
    writes ``T(x)[v] = min(x over the neighbours of v) + cost[v]`` into the
    other buffer and pins every start back to 0. Starting from ``inf``
    everywhere but the starts, ``T(x) <= x``, and ``T`` is monotone because
    rounding is, so every later sweep is no larger than the one before: a
    ``min`` with the old distances would never change a value, and the sweep
    skips it. Costs are positive, so the fixed point is unique and equals the
    heap solver's distances bit for bit. A cell at Manhattan distance ``h``
    from its start stays ``inf`` until sweep ``h``, so no sweep up to the
    largest such distance over the fields can be the last; those sweeps skip
    the test. After them the sweeps stop once the two buffers agree: a path
    may take more hops than that bound.

    Paths are then backtracked from every goal at once. The parent of ``v``
    is its neighbour ``u`` smallest in ``(dist[u], u)``: by the same
    monotonicity it satisfies ``dist[u] + cost[v] == dist[v]``, and it is the
    first such neighbour the heap solver settles, so ties break the same way
    too. A successor table holds the flat index of every cell's parent, and
    each start's own index, so a walker that has reached its start stays
    there: a hop moves every walker with one gather from the table, with no
    mask, and the cells walked are marked in one scatter at the end, with the
    starts cleared. A walk that has not reached its start within ``H * W``
    hops raises :class:`SolverError`. For a single problem the heap solver is
    faster; this pays off once a batch holds a few dozen fields.

    The contract is checked once per batch, on the index arrays: shapes,
    source range, points inside the grid, and start and goal distinct, with
    the messages of :func:`dijkstra_grid`. Callers pass ``int64`` arrays;
    other integer sequences are converted.
    """
    costs = _checked_costs(cell_costs, "grid_shortest_paths")
    if costs.ndim != 3:
        raise ContractError("grid_shortest_paths needs a (k, H, W) cost array")
    k, H, W = costs.shape
    starts = np.asarray(starts, dtype=np.int64)
    goals = np.asarray(goals, dtype=np.int64)
    sources = np.asarray(sources, dtype=np.int64)
    m = len(goals)
    if starts.shape != (k, 2) or goals.shape != (m, 2) or sources.shape != (m,):
        raise ContractError("grid_shortest_paths needs (k, 2) starts, (m, 2) goals "
                            "and one source per goal")
    if m and not (0 <= sources.min() and sources.max() < k):
        raise ContractError("source index outside the fields")
    ends = np.concatenate([starts, goals])
    last = ends.max(axis=0)
    if not (0 <= ends.min() and last[0] < H and last[1] < W):
        raise ContractError("start/goal outside the grid")

    # flat index of (row r, column c, field f), counted from the first grid
    # row: (r * row + c) * k + f; the buffers carry one padding row before it
    row = W + 1
    L = row * k
    span = H * L
    home = (starts[:, 0] * row + starts[:, 1]) * k + np.arange(k)
    cur = (goals[:, 0] * row + goals[:, 1]) * k + sources
    done = home[sources]
    if np.any(cur == done):
        raise ContractError("start and goal must differ")
    cost = np.full((H, row, k), np.inf)
    cost[:, :W] = costs.transpose(1, 2, 0)
    cost = cost.reshape(span)
    buffers = np.full((2, (H + 2) * L), np.inf)
    buffers[:, L + home] = 0.0
    across = np.empty(span)
    far = int(np.max(np.maximum(starts[:, 0], H - 1 - starts[:, 0])
                     + np.maximum(starts[:, 1], W - 1 - starts[:, 1])))
    src, dst = buffers
    sweep = 0
    while True:
        offer = dst[L:L + span]
        np.minimum(src[:span], src[2 * L:], out=offer)
        np.minimum(src[L - k:L - k + span], src[L + k:L + k + span], out=across)
        np.minimum(offer, across, out=offer)
        offer += cost
        offer[home] = 0.0
        sweep += 1
        if sweep > far and np.array_equal(offer, src[L:L + span]):
            break
        src, dst = dst, src
    dist = src

    # first minimum over the neighbours in ascending index order: code 0..3
    # for up, left, right, down, and 4 (no step) at the starts; np.where is
    # several times slower than these bit operations on this many cells
    up, down = dist[:span], dist[2 * L:]
    left, right = dist[L - k:L - k + span], dist[L + k:L + k + span]
    # the two buffers agree, so the other one serves as scratch
    upper = np.minimum(right, down, out=across) < np.minimum(up, left, out=offer)
    low, high = left < up, down < right
    low ^= (low ^ high) & upper  # the winner within the winning pair
    code = upper.view(np.uint8) << 1
    code |= low.view(np.uint8)
    code[home] = 4
    # the flat successor of every cell, so one gather moves every walker a
    # hop. It goes into the scratch buffer, as a fresh array costs more than
    # the gather; take writes there directly only in a non-raising mode, and
    # every code is in range anyway
    after = np.take(np.array([-L, -k, k, L, 0]), code, out=across.view(np.int64), mode="clip")
    after += np.arange(span)

    n = H * W
    totals = dist[L + cur]
    trail = []
    # a path of n cells takes n - 1 hops; every fourth hop is tested, and the
    # last one by the test after the loop
    for hop in range(1, n):
        trail.append(cur)
        cur = after[cur]
        if hop % 4 == 0 and np.array_equal(cur, done):
            break
    if not np.array_equal(cur, done):
        raise SolverError("grid_shortest_paths: backtracking did not reach the start")
    indicators = np.zeros((m, n))
    queries = np.arange(m)
    if trail:
        cells = np.stack(trail) // k
        cells -= cells // row
        indicators[queries, cells] = 1.0
    done //= k
    indicators[queries, done - done // row] = 0.0
    return indicators, totals


def conjugate_gradient(
    apply_A: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    tolerance: float = 1e-8,
    max_iterations: Optional[int] = None,
) -> tuple[np.ndarray, float, int]:
    """Solve ``A x = b`` for a symmetric positive definite operator, from zero.

    Returns ``(x, residual_norm, iterations)`` with the residual guaranteed
    below ``tolerance * max(1, ||b||)`` unless the iteration cap was hit.
    Detected negative curvature raises, since it means the operator is not SPD
    on the explored subspace.
    """
    b = np.asarray(b, dtype=float)
    max_iter = max_iterations if max_iterations is not None else 10 * b.size
    x = np.zeros_like(b)
    r = b.copy()
    tol = tolerance * max(1.0, float(np.linalg.norm(b)))
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

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

import functools
import heapq
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from delayopt.core import ContractError


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
    grad: Callable[[np.ndarray], np.ndarray],
    w_init: np.ndarray,
    cfg: InnerSolverConfig,
    mu_w: float,
) -> InnerSolveReport:
    """Run exactly ``cfg.steps`` gradient steps ``w -= step_size * grad(w)``.

    ``grad`` is the model-objective gradient in ``w`` at one parameter point,
    so a caller can form its parameter-only terms once per solve rather than
    at every step; ``mu_w`` is the objective's strong-convexity lower bound,
    which turns the exit residual into ``epsilon_estimate``. Deterministic.

    ``grad`` must return a fresh array on every call: a step scales the
    array it returns in place (``g *= step_size; w -= g``), which gives the
    bits of ``w - step_size * g`` without allocating. The exit residual
    ``sqrt(g . g)`` is ``np.linalg.norm`` of the vector without its checks.

    Finiteness is checked once, after the last step: subtracting an infinite
    or NaN step from the iterate never gives a finite value, so a non-finite
    gradient at any step leaves the solution non-finite and raises
    ``SolverError``; floating-point warnings inside the loop are silenced.
    """
    w = np.array(w_init, dtype=float, copy=True)
    if not np.isfinite(w).all():
        raise ContractError("inner_gd requires a finite starting decision")
    step_size = cfg.step_size
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.steps):
            g = grad(w)
            g *= step_size
            w -= g
    if not np.isfinite(w).all():
        raise SolverError(f"inner divergence within {cfg.steps} steps")
    g = grad(w)
    residual = math.sqrt(g.dot(g))
    eps = residual / max(mu_w, 1e-12)
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

    At the sizes used here a sweep costs its numpy calls, not its arithmetic,
    so each half-sweep is exactly ten ufunc calls writing into buffers made
    once per call (the shifted log-kernel, the maxima, the scaled potentials,
    and the potentials themselves, which first take the sums); nothing is
    shared between calls or threads. The order of the operations is fixed, because
    the plan must be bit-for-bit the one-expression loop's (kept as the
    reference in the tests): ``eps * x / eps`` is not ``x`` in floating
    point, so nothing is folded, and each reduction runs along the axis it
    always did (row sums pairwise along the contiguous axis, column sums
    row after row).

    A marginal that is not strictly positive (NaN included) raises
    ``SolverError``. So does a plan that is not finite on exit, as a NaN
    cost or a row or column whose costs are all infinite gives; the
    floating-point warnings such inputs raise inside the sweeps are
    silenced, because the exit check reports them.
    """
    if iterations < 1:
        raise ContractError("sinkhorn_log needs iterations >= 1")
    if regularization <= 0:
        raise ContractError("entropic regularization must be positive")
    C = np.asarray(cost_matrix, dtype=float)
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if not ((mu > 0).all() and (nu > 0).all()):
        raise SolverError("degenerate marginal: entries must be strictly positive")
    if not (abs(mu.sum() - 1.0) <= 1e-12 and abs(nu.sum() - 1.0) <= 1e-12):
        raise ContractError("marginals must sum to 1")

    eps = regularization
    rows, cols = C.shape
    log_mu = np.log(mu)
    log_nu = np.log(nu)
    f = np.zeros(rows)
    g = np.zeros(cols)
    f_eps, row_max = np.empty(rows), np.empty(rows)  # f / eps and the row maxima
    g_eps, col_max = np.empty(cols), np.empty(cols)
    f_eps_col, row_max_col = f_eps[:, None], row_max[:, None]
    M = -C / eps
    a = np.empty_like(M)  # shifted log-kernel, overwritten in place each half-sweep
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for _ in range(iterations):
            # f = eps * (log_mu - (m + log(sum(exp(M + g / eps - m))))), m the row max
            np.divide(g, eps, g_eps)
            np.add(M, g_eps, a)
            np.maximum.reduce(a, 1, None, row_max)
            np.subtract(a, row_max_col, a)
            np.exp(a, a)
            np.add.reduce(a, 1, None, f)
            np.log(f, f)
            np.add(row_max, f, f)
            np.subtract(log_mu, f, f)
            np.multiply(f, eps, f)
            # the same over columns, with the new f
            np.divide(f, eps, f_eps)
            np.add(M, f_eps_col, a)
            np.maximum.reduce(a, 0, None, col_max)
            np.subtract(a, col_max, a)
            np.exp(a, a)
            np.add.reduce(a, 0, None, g)
            np.log(g, g)
            np.add(col_max, g, g)
            np.subtract(log_nu, g, g)
            np.multiply(g, eps, g)
        # plan exp((M + f / eps) + g / eps); f_eps already holds the final f / eps
        np.divide(g, eps, g_eps)
        np.add(M, f_eps_col, a)
        np.add(a, g_eps, a)
        np.exp(a, a)
    if not np.isfinite(a).all():
        raise SolverError("sinkhorn_log: the plan is not finite (NaN cost, or a row or column of infinite costs)")
    return a


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
    on every platform and :func:`grid_shortest_paths` reproduces them. The
    neighbours come from a table built once per grid shape, in that order,
    so a settled cell costs no ``divmod`` and no bound tests.
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
    neighbours = _neighbour_table(H, W)
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
        for v in neighbours[u]:
            nd = d + flat[v]
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                push(heap, (nd, v))
    return dist, parent


@functools.cache
def _neighbour_table(H: int, W: int) -> tuple[tuple[int, ...], ...]:
    """Flat indices of every cell's neighbours on an ``H`` x ``W`` grid, in
    up, down, left, right order, the cells outside the grid left out."""
    table = []
    for u in range(H * W):
        r, c = divmod(u, W)
        steps = ((r > 0, u - W), (r + 1 < H, u + W), (c > 0, u - 1), (c + 1 < W, u + 1))
        table.append(tuple(v for inside, v in steps if inside))
    return tuple(table)


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
    # NaN fails every comparison, and a NaN anywhere makes min and max NaN,
    # so test for the valid range, not against it. An empty array has no
    # minimum; it is left to the caller's shape checks.
    if costs.size and not (costs.min() > 0 and costs.max() < math.inf):
        raise SolverError(f"{solver} requires finite, strictly positive cell costs")
    return costs


# Scratch arrays of grid_shortest_paths by name, each as large as the largest
# batch has needed. Fresh arrays of this size cost a page fault per 4 KB on
# first touch, more than the sweeps that fill them.
_WORKSPACE: dict[str, np.ndarray] = {}
_CELL_INDICES = np.arange(0)


def _workspace(name: str, size: int) -> np.ndarray:
    """The first ``size`` cells of workspace array ``name``, contents
    undefined: the caller writes every cell it reads."""
    array = _WORKSPACE.get(name)
    if array is None or array.size < size:
        array = _WORKSPACE[name] = np.empty(size)
    return array[:size]


def _cell_indices(size: int) -> np.ndarray:
    """``np.arange(size)`` from a cached, read-only range."""
    global _CELL_INDICES
    if _CELL_INDICES.size < size:
        _CELL_INDICES = np.arange(size)
        _CELL_INDICES.setflags(write=False)
    return _CELL_INDICES[:size]


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

    The two buffers, the cost layout and one scratch array come from a
    module workspace that grows to the largest batch seen and is then reused,
    and the successor table's cell indices from a cached range. Each call
    writes every workspace cell before reading it: the whole source buffer
    and the other buffer's padding rows are filled with ``inf``, and the
    first sweep writes the rest. So no value passes from one call to the
    next, a call that raises leaves nothing behind, and the returned arrays
    are fresh. The workspace is shared by the process, so calls must not run
    concurrently in threads.

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
    may take more hops than that bound. No shortest path takes more than
    ``H * W - 1`` hops, so the buffers agree by sweep ``H * W``; if they do
    not, a cell was read before it was written, and :class:`SolverError` is
    raised rather than sweeping on.

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
    if not k:  # so no queries either: nothing to solve
        return np.zeros((0, H * W)), np.zeros(0)
    ends = np.concatenate([starts, goals])
    last = ends.max(axis=0)
    if not (0 <= ends.min() and last[0] < H and last[1] < W):
        raise ContractError("start/goal outside the grid")

    n = H * W
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
    # every workspace cell a sweep reads is written first: the padding cells
    # of cost, all of the first source buffer, the other buffer's padding
    # rows here, its grid rows by the first sweep
    cost = _workspace("cost", span)
    laid = cost.reshape(H, row, k)
    laid[:, W] = np.inf
    laid[:, :W] = costs.transpose(1, 2, 0)
    src = _workspace("src", span + 2 * L)
    dst = _workspace("dst", span + 2 * L)
    src.fill(np.inf)
    src[L + home] = 0.0
    dst[:L] = np.inf
    dst[L + span:] = np.inf
    across = _workspace("across", span)
    far = int(np.max(np.maximum(starts[:, 0], H - 1 - starts[:, 0])
                     + np.maximum(starts[:, 1], W - 1 - starts[:, 1])))
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
        if sweep == n:
            raise SolverError("grid_shortest_paths: the sweeps did not converge")
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
    after += _cell_indices(span)

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
        cells = np.concatenate(trail).reshape(len(trail), m) // k
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

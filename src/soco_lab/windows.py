"""Window subproblems: anchored segments of the horizon and their solvers.

A window spans timesteps tau1+1 .. tau2 with the endpoint decisions pinned:
the left anchor is the minimizer v_{tau1} (the start point when tau1 = 0)
and the right anchor is v_{tau2} when tau2 <= T.  Windows with tau2 > T
truncate at the horizon and leave the tail free.  Interior points are the
free variables of a small optimization solved by one of three backends:

  exact_quadratic  closed-form tridiagonal solve (quadratic costs,
                   half-squared-l2 movement),
  grid_dp          stage-wise dynamic programming over a uniform lattice
                   (any costs, d <= 2),
  descent          gradient descent on the stacked free variables
                   (smooth costs, any d).

Each lattice DP stage is a min-plus product of the value table with the
movement cost.  When the movement separates by coordinate (``norm_l1`` and
``rectified_linear`` in any d, ``norm_l2`` and ``norm_linf`` in 1-D) it is
a forward and a backward prefix-min per lattice axis, O(G) for G lattice
points.  ``sq_l2_half`` and 2-D ``norm_l2``/``norm_linf`` take the dense
O(G^2) product, row-blocked on large lattices.  Every path breaks ties to
the lowest flat lattice index (ij order, last axis fastest).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import solve_banded

from .model import HittingCost, Instance, MovementCost, Point, as_point


class SolverError(RuntimeError):
    """A window solver failed to produce a usable solution."""


class UnsupportedProblemError(ValueError):
    """The problem does not match the solver's preconditions."""


@dataclass(frozen=True)
class Grid:
    """Uniform lattice: per-dimension closed ranges with n points each."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    n: tuple[int, ...]

    @classmethod
    def make(cls, lo, hi, n, dim: int = 1) -> "Grid":
        lo = tuple(np.broadcast_to(np.asarray(lo, dtype=float), (dim,)).tolist())
        hi = tuple(np.broadcast_to(np.asarray(hi, dtype=float), (dim,)).tolist())
        n = tuple(int(x) for x in np.broadcast_to(np.asarray(n), (dim,)).tolist())
        if any(b <= a for a, b in zip(lo, hi)) or any(k < 2 for k in n):
            raise ValueError("grid needs lo < hi and n >= 2 per dimension")
        return cls(lo, hi, n)

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def size(self) -> int:
        return math.prod(self.n)

    def axes(self) -> list[np.ndarray]:
        return [np.linspace(a, b, k) for a, b, k in zip(self.lo, self.hi, self.n)]

    def spacing(self) -> np.ndarray:
        return np.array([(b - a) / (k - 1) for a, b, k in zip(self.lo, self.hi, self.n)])

    def points(self) -> np.ndarray:
        return _lattice(self)

    def snap(self, p) -> tuple[np.ndarray, float]:
        """Nearest lattice point and its l2 distance; rejects out-of-range points."""
        p = np.asarray(p, dtype=float)
        snapped = np.empty_like(p)
        for j, (a, b, k) in enumerate(zip(self.lo, self.hi, self.n)):
            if p[j] < a - 1e-9 or p[j] > b + 1e-9:
                raise ValueError(f"point coordinate {p[j]} outside grid range [{a}, {b}]")
            step = (b - a) / (k - 1)
            idx = int(round((p[j] - a) / step))
            snapped[j] = a + min(max(idx, 0), k - 1) * step
        return snapped, float(np.sqrt(((snapped - p) ** 2).sum()))


@lru_cache(maxsize=32)
def _lattice(grid: Grid) -> np.ndarray:
    axes = grid.axes()
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    pts.setflags(write=False)
    return pts


def default_grid(instance: Instance, n: int = 201) -> Grid:
    """Lattice covering the start point and all minimizers with 2x-span margin."""
    anchors = np.vstack([instance.minimizers(), instance.start[None, :]])
    lo, hi = anchors.min(axis=0), anchors.max(axis=0)
    span = max(float((hi - lo).max()), 1.0)
    lo, hi = lo - 2.0 * span, hi + 2.0 * span
    if instance.family_tag == "glb":
        lo = np.maximum(lo, 0.0)
    return Grid.make(lo, hi, n, dim=instance.dim)


@dataclass(frozen=True, eq=False)
class WindowProblem:
    """Costs for timesteps tau1+1 .. min(tau2, T) with pinned endpoints.

    ``right_anchor`` is None for horizon-truncated windows (tau2 > T) and
    for deliberately unanchored solves; then the final point is free.
    """

    tau1: int
    tau2: int
    left_anchor: Point
    right_anchor: Point | None
    costs: tuple[HittingCost, ...]
    movement: MovementCost

    @property
    def dim(self) -> int:
        return self.left_anchor.shape[0]

    @property
    def free_count(self) -> int:
        return len(self.costs) - (1 if self.right_anchor is not None else 0)

    def free_times(self) -> range:
        """Timesteps of the free variables."""
        return range(self.tau1 + 1, self.tau1 + 1 + self.free_count)


@dataclass(frozen=True, eq=False)
class WindowSolution:
    free_points: np.ndarray  # (free_count, d)
    objective: float
    solver_tag: str
    snap_distance: float = 0.0


def build_window(instance: Instance, tau1: int, tau2: int,
                 left_override=None) -> WindowProblem:
    """Window over (tau1, tau2] with anchors resolved from the instance.

    The left anchor is v_{tau1}, or the start point when tau1 = 0, unless
    overridden.  The right anchor is v_{tau2} and is present iff tau2 <= T.
    """
    T = instance.horizon
    if tau1 < 0 or tau1 >= tau2:
        raise ValueError(f"need 0 <= tau1 < tau2, got ({tau1}, {tau2})")
    if tau1 > T:
        raise ValueError(f"tau1 = {tau1} exceeds horizon {T}")
    if left_override is not None:
        left = as_point(left_override, instance.dim)
    elif tau1 == 0:
        left = instance.start
    else:
        left = instance.hitting[tau1 - 1].minimizer
    cap = min(tau2, T)
    right = instance.hitting[tau2 - 1].minimizer if tau2 <= T else None
    costs = tuple(instance.hitting[tau1:cap])
    return WindowProblem(tau1, tau2, left, right, costs, instance.movement)


def window_objective(problem: WindowProblem, free_points) -> float:
    """Evaluate the window cost at an assignment of the free variables."""
    free = np.asarray(free_points, dtype=float).reshape(problem.free_count, problem.dim)
    chain = [problem.left_anchor, *free]
    if problem.right_anchor is not None:
        chain.append(problem.right_anchor)
    total = 0.0
    for i, cost in enumerate(problem.costs):
        total += cost(chain[i + 1]) + problem.movement(chain[i + 1], chain[i])
    return float(total)


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------

def _is_quadratic(problem: WindowProblem) -> bool:
    return (problem.movement.kind == "sq_l2_half"
            and all(c.family_tag == "strongly_convex" for c in problem.costs))


def solve_quadratic_chain(problem: WindowProblem) -> WindowSolution:
    """Exact solve of the coordinatewise tridiagonal stationarity system.

    Interior rows read (m_t + 2) y_t - y_{t-1} - y_{t+1} = m_t v_t; boundary
    rows fold in the anchors, and the final row drops the y_{t+1} term when
    there is no right anchor.  Strict convexity makes this the global optimum.
    """
    if not _is_quadratic(problem):
        raise UnsupportedProblemError(
            "exact chain solve needs quadratic costs and sq_l2_half movement")
    F, d = problem.free_count, problem.dim
    if F == 0:
        return WindowSolution(np.empty((0, d)), window_objective(problem, []), "exact_quadratic")

    m = np.array([problem.costs[i].params["m"] for i in range(F)])
    v = np.stack([problem.costs[i].minimizer for i in range(F)])
    anchored = problem.right_anchor is not None

    diag = m + 2.0
    if not anchored:
        diag[-1] = m[-1] + 1.0
    rhs = m[:, None] * v
    rhs[0] += problem.left_anchor
    if anchored:
        rhs[-1] += problem.right_anchor

    if F == 1:
        free = (rhs / diag[:, None])
    else:
        ab = np.zeros((3, F))
        ab[0, 1:] = -1.0
        ab[1, :] = diag
        ab[2, :-1] = -1.0
        free = solve_banded((1, 1), ab, rhs)
    return WindowSolution(free, window_objective(problem, free), "exact_quadratic")


#: Largest dense transition matrix kept in memory (entries); bigger grids
#: fall back to a row-blocked min-plus sweep.
_DENSE_TRANSITION_LIMIT = 2 * 10 ** 7


def _axis_prices(movement: MovementCost, dim: int) -> list[tuple[float, float]] | None:
    """Per-axis (up, down) unit prices when the movement separates by
    coordinate, else None.  Moving from x_j to x_i along an axis costs
    up * (x_i - x_j) when x_i > x_j and down * (x_j - x_i) otherwise."""
    if movement.kind == "norm_l1" or (
            dim == 1 and movement.kind in ("norm_l2", "norm_linf")):
        return [(1.0, 1.0)] * dim
    if movement.kind == "rectified_linear":
        beta = np.broadcast_to(np.asarray(movement.params["beta"], dtype=float), (dim,))
        return [(float(b), 0.0) for b in beta]
    return None


def _prefix_minplus(value: np.ndarray, x: np.ndarray, up: float,
                    down: float) -> tuple[np.ndarray, np.ndarray]:
    """min over j of value[j] + the axis price of x_j -> x_i, along axis 0.

    The forward pass covers j <= i, the backward pass j >= i.  Forward
    records need strict <, backward records <=, and the forward candidate
    wins ties, so the argmin is the lowest attaining j.
    """
    n = x.shape[0]
    x = x.reshape((n,) + (1,) * (value.ndim - 1))
    idx = np.arange(n).reshape(x.shape)
    rec = np.ones(value.shape, dtype=bool)

    key = value - up * x
    run = np.minimum.accumulate(key, axis=0)
    rec[1:] = key[1:] < run[:-1]
    fwd_arg = np.maximum.accumulate(np.where(rec, idx, 0), axis=0)
    fwd = run + up * x

    key = (value + down * x)[::-1]
    run = np.minimum.accumulate(key, axis=0)
    rec[1:] = key[1:] <= run[:-1]
    bwd_arg = (n - 1 - np.maximum.accumulate(np.where(rec, idx, 0), axis=0))[::-1]
    bwd = run[::-1] - down * x

    take_bwd = bwd < fwd
    return np.where(take_bwd, bwd, fwd), np.where(take_bwd, bwd_arg, fwd_arg)


def _separable_minplus(value: np.ndarray, grid: Grid,
                       prices: list[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray]:
    """Min-plus for a coordinate-separable movement: one prefix-min pass per
    axis, the last axis first, so the back-pointer composes in ij order."""
    axes = grid.axes()
    if grid.dim == 1:
        return _prefix_minplus(value, axes[0], *prices[0])
    n0, n1 = grid.n
    inner, a1 = _prefix_minplus(value.reshape(n0, n1).T, axes[1], *prices[1])
    best, a0 = _prefix_minplus(inner.T, axes[0], *prices[0])
    arg = a0 * n1 + a1[np.arange(n1), a0]
    return best.ravel(), arg.ravel()


class _GridEval:
    """Caches hitting-cost tables, and dense movement transition matrices for
    the movements that do not separate by coordinate, per grid."""

    def __init__(self):
        self._costs: dict = {}
        self._moves: dict = {}

    def cost_table(self, cost: HittingCost, grid: Grid) -> np.ndarray:
        key = (id(cost), grid)
        hit = self._costs.get(key)
        if hit is None:
            hit = (cost, cost.values(grid.points()))
            self._costs[key] = hit
        return hit[1]

    def transition(self, movement: MovementCost, grid: Grid) -> np.ndarray | None:
        """Dense transition matrix, or None when it would not fit."""
        if grid.size * grid.size > _DENSE_TRANSITION_LIMIT:
            return None
        key = (id(movement), movement.kind, grid)
        mat = self._moves.get(key)
        if mat is None:
            pts = grid.points()
            mat = (movement, movement.pairwise(pts, pts))
            self._moves[key] = mat
        return mat[1]

    def minplus(self, value: np.ndarray, movement: MovementCost,
                grid: Grid) -> tuple[np.ndarray, np.ndarray]:
        """(best value, argmin prev index) of value[j] + c(p_i, p_j) per i."""
        prices = _axis_prices(movement, grid.dim)
        if prices is not None:
            return _separable_minplus(value, grid, prices)
        trans = self.transition(movement, grid)
        pts = grid.points()
        if trans is not None:
            step = trans + value[None, :]
            arg = np.argmin(step, axis=1)
            return step[np.arange(grid.size), arg], arg
        block = max(1, _DENSE_TRANSITION_LIMIT // grid.size)
        best = np.empty(grid.size)
        arg = np.empty(grid.size, dtype=np.int64)
        for start in range(0, grid.size, block):
            stop = min(start + block, grid.size)
            step = movement.pairwise(pts[start:stop], pts) + value[None, :]
            arg[start:stop] = np.argmin(step, axis=1)
            best[start:stop] = step[np.arange(stop - start), arg[start:stop]]
        return best, arg


def solve_grid_dp(problem: WindowProblem, grid: Grid,
                  cache: _GridEval | None = None) -> WindowSolution:
    """Exact optimum over the lattice via stage-wise dynamic programming.

    Anchors are snapped to the nearest lattice point for the search; the
    reported objective re-evaluates the chosen free points against the true
    anchors.  Ties go to the lowest flat lattice index.
    """
    if problem.dim > 2:
        raise UnsupportedProblemError("grid DP supports d <= 2")
    if grid.dim != problem.dim:
        raise ValueError("grid dimension does not match problem")
    cache = cache or _GridEval()
    F, d = problem.free_count, problem.dim
    left_snap, snap_l = grid.snap(problem.left_anchor)
    snap = snap_l
    if problem.right_anchor is not None:
        right_snap, snap_r = grid.snap(problem.right_anchor)
        snap = max(snap, snap_r)
    if F == 0:
        return WindowSolution(np.empty((0, d)), window_objective(problem, []),
                              "grid_dp", snap)

    pts = grid.points()
    value = problem.movement.pairwise(pts, left_snap[None, :])[:, 0]
    value = value + cache.cost_table(problem.costs[0], grid)
    back = np.empty((F, grid.size), dtype=np.int64)
    back[0] = -1
    for s in range(1, F):
        best, back[s] = cache.minplus(value, problem.movement, grid)
        value = best + cache.cost_table(problem.costs[s], grid)

    if problem.right_anchor is not None:
        closing = problem.movement.pairwise(right_snap[None, :], pts)[0]
        last = int(np.argmin(value + closing))
    else:
        last = int(np.argmin(value))

    idx = [last]
    for s in range(F - 1, 0, -1):
        idx.append(int(back[s, idx[-1]]))
    idx.reverse()
    free = pts[idx]
    return WindowSolution(free, window_objective(problem, free), "grid_dp", snap)


def solve_descent(problem: WindowProblem, step: float = 0.05,
                  iters: int = 20000, tol: float = 1e-9) -> WindowSolution:
    """Gradient descent on the stacked free variables (smooth costs only)."""
    if problem.movement.kind != "sq_l2_half":
        raise UnsupportedProblemError("descent solve needs sq_l2_half movement")
    if any(c.grad is None for c in problem.costs):
        raise UnsupportedProblemError("descent solve needs differentiable costs")
    F, d = problem.free_count, problem.dim
    if F == 0:
        return WindowSolution(np.empty((0, d)), window_objective(problem, []), "descent")

    anchored = problem.right_anchor is not None
    y = np.stack([problem.costs[i].minimizer for i in range(F)]).astype(float)

    def gradient(y):
        g = np.empty_like(y)
        for i in range(F):
            prev = problem.left_anchor if i == 0 else y[i - 1]
            g[i] = problem.costs[i].grad(y[i]) + (y[i] - prev)
            if i + 1 < F:
                g[i] -= y[i + 1] - y[i]
            elif anchored:
                g[i] -= problem.right_anchor - y[i]
        return g

    obj = window_objective(problem, y)
    worse = 0
    for _ in range(iters):
        g = gradient(y)
        if float(np.sqrt((g * g).sum())) < tol:
            break
        y = y - step * g
        new_obj = window_objective(problem, y)
        worse = worse + 1 if new_obj > obj else 0
        if worse >= 10 or not np.isfinite(new_obj):
            raise SolverError("descent diverged: objective rose 10 consecutive steps")
        obj = new_obj
    return WindowSolution(y, window_objective(problem, y), "descent")


class WindowSolver:
    """Dispatching solver: exact for quadratic chains, grid DP for d <= 2,
    gradient descent otherwise.  Shares lattice evaluation caches across
    calls, so reuse one solver for all windows of a run."""

    def __init__(self, grid: Grid | None = None, *, descent_step: float = 0.05,
                 descent_iters: int = 20000, descent_tol: float = 1e-9):
        self.grid = grid
        self.descent_step = descent_step
        self.descent_iters = descent_iters
        self.descent_tol = descent_tol
        self._cache = _GridEval()

    def __call__(self, problem: WindowProblem) -> WindowSolution:
        if _is_quadratic(problem):
            return solve_quadratic_chain(problem)
        if problem.dim <= 2:
            grid = self.grid or grid_for_problem(problem)
            return solve_grid_dp(problem, grid, cache=self._cache)
        return solve_descent(problem, self.descent_step, self.descent_iters,
                             self.descent_tol)


def solver_for(instance: Instance, grid: Grid | None = None, n: int = 201) -> WindowSolver:
    """Solver preloaded with the instance's default grid."""
    if grid is None and instance.dim <= 2:
        grid = default_grid(instance, n=n)
    return WindowSolver(grid)


def grid_for_problem(problem: WindowProblem, n: int = 201) -> Grid:
    anchors = [problem.left_anchor] + [c.minimizer for c in problem.costs]
    if problem.right_anchor is not None:
        anchors.append(problem.right_anchor)
    arr = np.stack(anchors)
    lo, hi = arr.min(axis=0), arr.max(axis=0)
    span = max(float((hi - lo).max()), 1.0)
    return Grid.make(lo - 2 * span, hi + 2 * span, n, dim=problem.dim)

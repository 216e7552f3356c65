"""Window subproblems: anchored segments of the horizon and their solvers.

A window spans timesteps tau1+1 .. tau2 with the endpoint decisions pinned:
the left anchor is the minimizer v_{tau1} (the start point when tau1 = 0)
and the right anchor is v_{tau2} when tau2 <= T.  Windows with tau2 > T
truncate at the horizon and leave the tail free.  Interior points are the
free variables of a small optimization solved by one of two backends:

  exact_quadratic  closed-form tridiagonal solve (quadratic costs,
                   half-squared-l2 movement),
  grid_dp          stage-wise dynamic programming over a uniform lattice;
                   the full-horizon lattice oracle is this DP over the
                   window (0, T+1).

In d >= 2 a window whose costs (``HittingCost.axes``) and movement
(``MovementCost.split``) separate by coordinate -- ``polyhedral`` p = 1,
``glb``, ``ripple``, ``strongly_convex`` -- is solved as one 1-D window per
lattice axis, in any d; other windows take the joint DP (d <= 2).

A solver returns the free points and its tag, not their objective: callers
score what they keep with ``model.evaluate_total_cost``.

Each lattice DP stage is a min-plus product of the value table with the
movement cost.  When the movement splits into linear 1-D movements
(``norm_l1`` and ``rectified_linear`` in any d, every norm in 1-D) it is
a forward and a backward prefix-min per lattice axis, O(G) for G lattice
points.  ``sq_l2_half`` and 2-D ``norm_l2``/``norm_linf`` take the dense
O(G^2) product, row-blocked on large lattices.  The joint DP breaks ties
to the lowest flat lattice index (ij order, last axis fastest); the
per-coordinate solve breaks them to the lowest index per coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import solve_banded

from .model import HittingCost, Instance, MovementCost, Point, as_point


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
        if not all(map(math.isfinite, lo + hi)):
            raise ValueError("grid needs finite lo and hi")
        if any(b <= a for a, b in zip(lo, hi)) or any(k < 2 for k in n):
            raise ValueError("grid needs lo < hi and n >= 2 per dimension")
        return cls(lo, hi, n)

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def size(self) -> int:
        return math.prod(self.n)

    def axis(self, j: int) -> "Grid":
        """The 1-D lattice along axis j."""
        return Grid(self.lo[j:j + 1], self.hi[j:j + 1], self.n[j:j + 1])

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


def _margin_grid(anchors: np.ndarray, n: int, nonnegative: bool = False) -> Grid:
    """Lattice over the bounding box of the stacked ``anchors``, widened on
    every side by twice its largest span (at least 1)."""
    lo, hi = anchors.min(axis=0), anchors.max(axis=0)
    span = max(float((hi - lo).max()), 1.0)
    lo, hi = lo - 2.0 * span, hi + 2.0 * span
    if nonnegative:
        lo = np.maximum(lo, 0.0)
    return Grid.make(lo, hi, n, dim=anchors.shape[1])


def default_grid(instance: Instance, n: int = 201) -> Grid:
    """Lattice covering the start point and all minimizers with 2x-span margin."""
    return _margin_grid(np.vstack([instance.minimizers(), instance.start[None, :]]), n,
                        nonnegative=instance.family_tag == "glb")


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

    def axis(self, j: int, movement: MovementCost) -> "WindowProblem":
        """Coordinate j of a window whose costs separate by coordinate."""
        right = self.right_anchor
        return WindowProblem(self.tau1, self.tau2, self.left_anchor[j:j + 1],
                             None if right is None else right[j:j + 1],
                             tuple(c.axes[j] for c in self.costs), movement)


@dataclass(frozen=True, eq=False)
class WindowSolution:
    free_points: np.ndarray  # (free_count, d): timesteps tau1+1, tau1+2, ...
    solver_tag: str


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
    """Evaluate the window cost at an assignment of the free variables.

    No solver reports it; tests score one solver's points against another's.
    """
    free = np.asarray(free_points, dtype=float).reshape(problem.free_count, problem.dim)
    chain = [problem.left_anchor, free]
    if problem.right_anchor is not None:
        chain.append(problem.right_anchor)
    chain = np.vstack(chain)
    moves = problem.movement.of_difference(np.diff(chain, axis=0))
    total = 0.0
    for cost, point, move in zip(problem.costs, chain[1:], moves):
        total += cost(point) + move
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
        return WindowSolution(np.empty((0, d)), "exact_quadratic")

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
    return WindowSolution(free, "exact_quadratic")


#: Largest dense transition matrix kept in memory (entries); bigger grids
#: fall back to a row-blocked min-plus sweep.
_DENSE_TRANSITION_LIMIT = 2 * 10 ** 7


def _axis_prices(movement: MovementCost, dim: int) -> list[tuple[float, float]] | None:
    """Per-axis (up, down) unit prices when the movement splits into linear
    1-D movements, else None.  Moving from x_j to x_i along an axis costs
    up * (x_i - x_j) when x_i > x_j and down * (x_j - x_i) otherwise."""
    axes = movement.split(dim)
    if axes is None or any(m.kind == "sq_l2_half" for m in axes):
        return None
    return [(float(m.params["beta"][0]), 0.0) if m.kind == "rectified_linear"
            else (1.0, 1.0) for m in axes]


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

    Anchors are snapped to the nearest lattice point for the search (an
    anchor outside the lattice raises ValueError); the free points returned
    are lattice points.  A window that separates by coordinate is solved
    per lattice axis, ties to the lowest index per coordinate; any other by
    the joint DP (d <= 2, <= 1e6 points), ties to the lowest flat index.
    """
    if grid.dim != problem.dim:
        raise ValueError("grid dimension does not match problem")
    cache = cache or _GridEval()
    F, d = problem.free_count, problem.dim
    moves = problem.movement.split(d)
    if d > 1 and moves is not None and all(c.axes is not None for c in problem.costs):
        return WindowSolution(np.hstack([
            solve_grid_dp(problem.axis(j, moves[j]), grid.axis(j), cache).free_points
            for j in range(d)]), "grid_dp")
    if d > 2:
        raise UnsupportedProblemError(
            f"no lattice solve for a {d}-D window that does not separate by coordinate "
            f"({problem.costs[0].family_tag} costs, {problem.movement.kind} movement): "
            "the joint grid DP supports d <= 2")
    if grid.size > 10 ** 6:
        raise ValueError(
            f"grid has {grid.size} points (> 1e6); reduce n per dimension "
            f"(currently {grid.n})")
    left_snap, _ = grid.snap(problem.left_anchor)
    if problem.right_anchor is not None:
        right_snap, _ = grid.snap(problem.right_anchor)
    if F == 0:
        return WindowSolution(np.empty((0, d)), "grid_dp")

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
    return WindowSolution(pts[idx], "grid_dp")


class WindowSolver:
    """Dispatching solver: exact for quadratic chains, the grid DP for all
    other windows, in any d.  Shares lattice evaluation caches across
    calls, so reuse one solver for all windows of a run."""

    def __init__(self, grid: Grid | None = None):
        self.grid = grid
        self._cache = _GridEval()

    def __call__(self, problem: WindowProblem) -> WindowSolution:
        if _is_quadratic(problem):
            return solve_quadratic_chain(problem)
        grid = self.grid or grid_for_problem(problem)
        return solve_grid_dp(problem, grid, cache=self._cache)


def solver_for(instance: Instance) -> WindowSolver:
    """Solver preloaded with the instance's default grid, any d."""
    return WindowSolver(default_grid(instance))


def grid_for_problem(problem: WindowProblem, n: int = 201) -> Grid:
    """Lattice covering the window's anchors and minimizers with 2x-span margin."""
    anchors = [problem.left_anchor] + [c.minimizer for c in problem.costs]
    if problem.right_anchor is not None:
        anchors.append(problem.right_anchor)
    return _margin_grid(np.stack(anchors), n)

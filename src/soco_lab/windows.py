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

The lattice is the run's (``default_grid`` of the instance, or one the
caller gives), never one made up per window: a ``WindowSolver`` built
without a lattice solves quadratic windows only.

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

Windows are solved in batches (``solve_grid_dp_batch``,
``WindowSolver.solve_batch``): windows that share a free count,
right-anchoring, movement and lattice form one (G, B) value table, one
column per window, and each stage makes one prefix-min pass over all B
columns.  The windows of an online algorithm are at most w stages on a
few hundred points, so a per-window pass costs mostly numpy call
overhead, which a batch pays once.  The dense product stays one window
at a time inside the batch: its cost is arithmetic, and stacking it
measured slower.  Every column equals its window solved alone, bit for
bit; ``solve_grid_dp`` is the batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import solve_banded

from .model import HittingCost, Instance, MovementCost, Point


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

    def axes(self) -> tuple[np.ndarray, ...]:
        return _axes(self)

    def spacing(self) -> np.ndarray:
        return np.array([(b - a) / (k - 1) for a, b, k in zip(self.lo, self.hi, self.n)])

    def points(self) -> np.ndarray:
        return _lattice(self)

    def snap(self, p) -> tuple[np.ndarray, float]:
        """Nearest lattice point and its l2 distance; rejects out-of-range points."""
        p = np.asarray(p, dtype=float)
        snapped = self.snap_rows(p[None, :])[0]
        return snapped, float(np.sqrt(((snapped - p) ** 2).sum()))

    def snap_rows(self, pts) -> np.ndarray:
        """Nearest lattice point to each row of ``pts``; the first coordinate
        outside the range, in row-major order, raises ValueError."""
        pts = np.asarray(pts, dtype=float)
        lo = np.array(self.lo)
        outside = (pts < lo - 1e-9) | (pts > np.array(self.hi) + 1e-9)
        if outside.any():
            i, j = np.argwhere(outside)[0]
            raise ValueError(f"point coordinate {pts[i, j]} outside grid range "
                             f"[{self.lo[j]}, {self.hi[j]}]")
        step = self.spacing()
        idx = np.clip(np.rint((pts - lo) / step), 0, np.array(self.n) - 1)
        return lo + idx * step


@lru_cache(maxsize=32)
def _axes(grid: Grid) -> tuple[np.ndarray, ...]:
    axes = tuple(np.linspace(a, b, k) for a, b, k in zip(grid.lo, grid.hi, grid.n))
    for axis in axes:
        axis.setflags(write=False)
    return axes


@lru_cache(maxsize=32)
def _lattice(grid: Grid) -> np.ndarray:
    axes = grid.axes()
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    pts.setflags(write=False)
    return pts


def default_grid(instance: Instance, n: int = 201) -> Grid:
    """Lattice over the bounding box of the start point and all minimizers,
    widened on every side by twice its largest span (at least 1), and cut
    at 0 for ``glb``, whose decisions are nonnegative."""
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


def build_window(instance: Instance, tau1: int, tau2: int) -> WindowProblem:
    """Window over (tau1, tau2] with anchors resolved from the instance.

    The left anchor is v_{tau1}, or the start point when tau1 = 0.  The
    right anchor is v_{tau2} and is present iff tau2 <= T.
    """
    T = instance.horizon
    if tau1 < 0 or tau1 >= tau2:
        raise ValueError(f"need 0 <= tau1 < tau2, got ({tau1}, {tau2})")
    if tau1 > T:
        raise ValueError(f"tau1 = {tau1} exceeds horizon {T}")
    left = instance.start if tau1 == 0 else instance.hitting[tau1 - 1].minimizer
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
    axis, the last axis first, so the back-pointer composes in ij order.
    Trailing dimensions of ``value`` (one per window of a batch) ride along."""
    axes = grid.axes()
    if grid.dim == 1:
        return _prefix_minplus(value, axes[0], *prices[0])
    (n0, n1), B = grid.n, value.size // grid.size
    inner, a1 = _prefix_minplus(value.reshape(n0, n1, B).swapaxes(0, 1), axes[1], *prices[1])
    best, a0 = _prefix_minplus(inner.swapaxes(0, 1), axes[0], *prices[0])
    arg = a0 * n1 + a1.reshape(n1, n0 * B)[np.arange(n1)[:, None], a0 * B + np.arange(B)]
    return best.reshape(value.shape), arg.reshape(value.shape)


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
        """(best value, argmin prev index) of value[j] + c(p_i, p_j) per i.

        ``value`` is (G,) or (G, B), one column per window.  The prefix-min
        kernel takes all columns in one pass; the dense product takes one
        column at a time, since its cost is arithmetic, not call overhead.
        """
        prices = _axis_prices(movement, grid.dim)
        if prices is not None:
            return _separable_minplus(value, grid, prices)
        cols = value.reshape(grid.size, -1)
        best, arg = np.empty(cols.shape), np.empty(cols.shape, dtype=np.int64)
        for b in range(cols.shape[1]):
            best[:, b], arg[:, b] = self._dense_minplus(cols[:, b], movement, grid)
        return best.reshape(value.shape), arg.reshape(value.shape)

    def _dense_minplus(self, value: np.ndarray, movement: MovementCost,
                       grid: Grid) -> tuple[np.ndarray, np.ndarray]:
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


def _split_moves(problem: WindowProblem) -> tuple[MovementCost, ...] | None:
    """Per-axis movements of a d >= 2 window that separates by coordinate."""
    if problem.dim == 1 or any(c.axes is None for c in problem.costs):
        return None
    return problem.movement.split(problem.dim)


def solve_grid_dp(problem: WindowProblem, grid: Grid,
                  cache: _GridEval | None = None) -> WindowSolution:
    """Exact optimum over the lattice: ``solve_grid_dp_batch`` of one window."""
    return solve_grid_dp_batch([problem], grid, cache)[0]


def solve_grid_dp_batch(problems, grid: Grid,
                        cache: _GridEval | None = None) -> list[WindowSolution]:
    """Exact lattice optimum of each window, by stage-wise dynamic programming.

    Windows that share a free count, right-anchoring, movement and kind of
    solve are one batch: one value table with a column per window, one
    min-plus call per stage.  Each column equals the window solved alone,
    bit for bit.  Anchors are snapped to the nearest lattice point for the
    search (an anchor outside the lattice raises ValueError naming the
    coordinate); the free points returned are lattice points.  A window
    that separates by coordinate is solved per lattice axis, ties to the
    lowest index per coordinate; any other by the joint DP (d <= 2, <= 1e6
    points), ties to the lowest flat index.
    """
    cache = cache or _GridEval()
    batches: dict = {}
    for i, problem in enumerate(problems):
        if grid.dim != problem.dim:
            raise ValueError("grid dimension does not match problem")
        key = (problem.free_count, problem.right_anchor is not None, problem.movement,
               _split_moves(problem) is not None)
        batches.setdefault(key, []).append(i)
    out = [None] * len(problems)
    for members in batches.values():
        batch = [problems[i] for i in members]
        for i, points in zip(members, _grid_dp(batch, grid, cache)):
            out[i] = WindowSolution(points, "grid_dp")
    return out


def _grid_dp(batch: list[WindowProblem], grid: Grid, cache: _GridEval) -> list[np.ndarray]:
    """Free points of each window of a batch that shares free count,
    right-anchoring, movement and kind of solve."""
    first = batch[0]
    F, d = first.free_count, first.dim
    moves = _split_moves(first)
    if moves is not None:
        columns = [_grid_dp([p.axis(j, moves[j]) for p in batch], grid.axis(j), cache)
                   for j in range(d)]
        return [np.hstack(axes) for axes in zip(*columns)]
    if d > 2:
        raise UnsupportedProblemError(
            f"no lattice solve for a {d}-D window that does not separate by coordinate "
            f"({first.costs[0].family_tag} costs, {first.movement.kind} movement): "
            "the joint grid DP supports d <= 2")
    if grid.size > 10 ** 6:
        raise ValueError(
            f"grid has {grid.size} points (> 1e6); reduce n per dimension "
            f"(currently {grid.n})")
    anchored = first.right_anchor is not None
    snapped = grid.snap_rows([a for p in batch for a in (p.left_anchor, p.right_anchor)
                              if a is not None])
    if F == 0:
        return [np.empty((0, d)) for _ in batch]

    pts = grid.points()
    movement = first.movement
    value = movement.pairwise(pts, snapped[::2] if anchored else snapped)
    back = np.full((F, grid.size, len(batch)), -1, dtype=np.int64)
    for s in range(F):
        if s > 0:
            value, back[s] = cache.minplus(value, movement, grid)
        value = value + np.stack([cache.cost_table(p.costs[s], grid) for p in batch], axis=1)

    if anchored:
        value = value + movement.pairwise(snapped[1::2], pts).T
    cols = np.arange(len(batch))
    idx = np.empty((F, len(batch)), dtype=np.int64)
    idx[-1] = np.argmin(value, axis=0)
    for s in range(F - 1, 0, -1):
        idx[s - 1] = back[s, idx[s], cols]
    return [pts[idx[:, b]] for b in cols]


class WindowSolver:
    """Dispatching solver: exact for quadratic chains, the grid DP on the
    solver's lattice for all other windows, in any d.  A solver built
    without a lattice solves quadratic windows only and raises
    ``UnsupportedProblemError`` on any other.  Shares lattice evaluation
    caches across calls, so reuse one solver for all windows of a run."""

    def __init__(self, grid: Grid | None = None):
        self.grid = grid
        self._cache = _GridEval()

    def __call__(self, problem: WindowProblem) -> WindowSolution:
        return self.solve_batch([problem])[0]

    def solve_batch(self, problems) -> list[WindowSolution]:
        """Solutions in order; the lattice windows are solved together
        (``solve_grid_dp_batch``)."""
        out = [None] * len(problems)
        lattice = []
        for i, problem in enumerate(problems):
            if _is_quadratic(problem):
                out[i] = solve_quadratic_chain(problem)
            elif self.grid is None:
                family = "/".join(sorted({c.family_tag for c in problem.costs}))
                raise UnsupportedProblemError(f"a {family} window needs a lattice")
            else:
                lattice.append(i)
        if lattice:
            sols = solve_grid_dp_batch([problems[i] for i in lattice], self.grid, self._cache)
            for i, sol in zip(lattice, sols):
                out[i] = sol
        return out


def solver_for(instance: Instance) -> WindowSolver:
    """Solver preloaded with the instance's default grid, any d."""
    return WindowSolver(default_grid(instance))

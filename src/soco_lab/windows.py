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
``WindowSolver.solve_batch``): windows that share a movement and lattice
form one batch, whatever their free counts and right anchors.  The batch
advances stage by stage over the windows that still need a stage, and
each stage makes one prefix-min pass over a (G, B) value table, one
column per distinct stage.  Each window then takes its final argmin, and
the windows of one free count and anchoring backtrack together.  The
harness puts every anchored window of one (instance, seed) into one batch,
so the windows of all its algorithms and w share each stage's call.  The
windows of an online algorithm are at most w stages on a few hundred
points, so a per-window pass costs mostly numpy call overhead, which a
batch pays once.  The dense product stays one column at a time inside the
batch: its cost is arithmetic, and stacking it measured slower.  Every
window's points equal the window solved alone, bit for bit;
``solve_grid_dp`` is the batch of one.

A lattice DP stage is solved once per cache.  Stage s of a window depends
only on the lattice, the movement, the snapped left anchor and the costs
of its first s + 1 timesteps, not on the right anchor, so the cache keeps
each stage's value and back-pointer columns under that key (the stage
memo, a trie of cost prefixes per left anchor).  Windows that repeat or
extend a solved one -- the phase windows ``dsfhc``, ``sfhc`` and
``rsfhc-a`` share, (a, a+2] inside (a, a+4], the full-horizon oracle
window, whose first stages are those of every window that starts at 0,
``afhc`` chains that restart from one lattice point -- reuse its stages,
within a batch as across batches.  A ``WindowSolver`` owns its cache, so
the memo lives as long as the solver: the harness keeps one per
(instance, seed).

Quadratic windows are solved in batches too (``solve_quadratic_batch``):
windows that share a free count, right-anchoring and m values share the
tridiagonal matrix, and are one ``solve_banded`` call over stacked
right-hand sides; ``solve_quadratic_chain`` is the batch of one.
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

    def snap_rows(self, pts: np.ndarray) -> np.ndarray:
        """Nearest lattice point to each row of the stacked (n, d) float
        array ``pts``; the first coordinate outside the range, in row-major
        order, raises ValueError."""
        lo, low, high, step, top = _snap_arrays(self)
        outside = (pts < low) | (pts > high)
        if outside.any():
            i, j = np.argwhere(outside)[0]
            raise ValueError(f"point coordinate {pts[i, j]} outside grid range "
                             f"[{self.lo[j]}, {self.hi[j]}]")
        idx = np.minimum(np.maximum(np.rint((pts - lo) / step), 0.0), top)
        return lo + idx * step


@lru_cache(maxsize=32)
def _snap_arrays(grid: Grid) -> tuple[np.ndarray, ...]:
    """``snap_rows``'s arrays: lo, the range with its 1e-9 slack, the
    spacing and the top index per axis."""
    lo = np.array(grid.lo)
    arrays = (lo, lo - 1e-9, np.array(grid.hi) + 1e-9, grid.spacing(), np.array(grid.n) - 1)
    for a in arrays:
        a.setflags(write=False)
    return arrays


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
    """Exact optimum of a quadratic window: ``solve_quadratic_batch`` of one."""
    return solve_quadratic_batch([problem])[0]


def solve_quadratic_batch(problems) -> list[WindowSolution]:
    """Exact solve of each window's coordinatewise tridiagonal stationarity
    system.

    Interior rows read (m_t + 2) y_t - y_{t-1} - y_{t+1} = m_t v_t; boundary
    rows fold in the anchors, and the final row drops the y_{t+1} term when
    there is no right anchor.  Strict convexity makes this the global
    optimum.  The matrix depends only on the free count, the right-anchoring
    and the m values, so the windows that share them are one
    ``solve_banded`` call over stacked right-hand sides; each column is
    solved on its own, so every window gets the points it gets alone.
    """
    groups: dict = {}
    for i, problem in enumerate(problems):
        if not _is_quadratic(problem):
            raise UnsupportedProblemError(
                "exact chain solve needs quadratic costs and sq_l2_half movement")
        F = problem.free_count
        key = (F, problem.right_anchor is not None, problem.dim,
               tuple(c.params["m"] for c in problem.costs[:F]))
        groups.setdefault(key, []).append(i)
    out = [None] * len(problems)
    for (F, anchored, d, m), members in groups.items():
        group = [problems[i] for i in members]
        for i, free in zip(members, _quadratic_group(group, F, anchored, d, np.array(m))):
            out[i] = WindowSolution(free, "exact_quadratic")
    return out


def _quadratic_group(group: list[WindowProblem], F: int, anchored: bool, d: int,
                     m: np.ndarray) -> list[np.ndarray]:
    """Free points of quadratic windows that share one tridiagonal matrix."""
    if F == 0:
        return [np.empty((0, d)) for _ in group]
    diag = m + 2.0
    if not anchored:
        diag[-1] = m[-1] + 1.0
    v = np.stack([[c.minimizer for c in p.costs[:F]] for p in group], axis=1)
    rhs = m[:, None, None] * v
    rhs[0] += np.stack([p.left_anchor for p in group])
    if anchored:
        rhs[-1] += np.stack([p.right_anchor for p in group])
    rhs = rhs.reshape(F, -1)

    if F == 1:
        free = rhs / diag[:, None]
    else:
        ab = np.zeros((3, F))
        ab[0, 1:] = -1.0
        ab[1, :] = diag
        ab[2, :-1] = -1.0
        free = solve_banded((1, 1), ab, rhs)
    return list(free.reshape(F, len(group), d).swapaxes(0, 1))


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


def _columns(arrays) -> np.ndarray:
    """The (G,) arrays as the columns of a (G, B) array."""
    return np.array(arrays).T


class _GridEval:
    """Caches, per lattice: hitting-cost tables, dense movement transition
    matrices for the movements that do not separate by coordinate, and the
    stage memo, every DP stage solved so far."""

    def __init__(self):
        self._costs: dict = {}
        self._moves: dict = {}
        self._stages: dict = {}

    def cost_tables(self, grid: Grid):
        """The hitting-cost table lookup of one lattice.  Tables are kept
        under the cost object, which hashes by identity and is held by the
        key, so no key can be reused by a new object."""
        tables = self._costs.setdefault(grid, {})
        pts = grid.points()

        def table(cost: HittingCost) -> np.ndarray:
            hit = tables.get(cost)
            if hit is None:
                hit = tables[cost] = cost.values(pts)
            return hit

        return table

    def transition(self, movement: MovementCost, grid: Grid) -> np.ndarray | None:
        """Dense transition matrix, or None when it would not fit.  Kept
        under the movement object, which hashes by identity and is held by
        the key, as the stage memo and the cost tables are."""
        if grid.size * grid.size > _DENSE_TRANSITION_LIMIT:
            return None
        key = (movement, grid)
        mat = self._moves.get(key)
        if mat is None:
            pts = grid.points()
            mat = self._moves[key] = movement.pairwise(pts, pts)
        return mat

    def stages(self, batch: list[WindowProblem], lefts: np.ndarray,
               grid: Grid) -> list[list[tuple]]:
        """The DP stages of each window of a batch that shares a movement:
        per window, one (value column, back-pointer column, children) node
        per free timestep.

        Stage s of a window depends only on the lattice, the movement, the
        snapped left anchor ``lefts[b]`` and the costs of its first s + 1
        timesteps, so the memo is a trie per left anchor: a node's children
        are keyed by the next cost.  The cost objects hash by identity and
        the trie holds them, so no key can be reused by a new object.  The
        batch advances stage by stage over the windows that still need one;
        stage s makes one min-plus call over the distinct nodes it lacks, so
        windows that share a left anchor and a cost prefix share the work.
        """
        movement = batch[0].movement
        by_left = self._stages.setdefault((grid, movement), {})
        table, pts = self.cost_tables(grid), grid.points()
        costs = [p.costs for p in batch]
        need = [p.free_count for p in batch]
        paths = [[] for _ in batch]
        # (window, the children of its last node) for every window that
        # still needs a stage
        active = [(b, by_left.setdefault(lefts[b].tobytes(), {}))
                  for b in range(len(batch)) if need[b]]
        s = 0
        while active:
            todo = {}
            for b, children in active:
                cost = costs[b][s]
                if cost not in children:
                    todo.setdefault((id(children), cost), (b, children, cost))
            if todo:
                todo = list(todo.values())
                if s == 0:
                    value, back = movement.pairwise(pts, lefts[[b for b, _, _ in todo]]), None
                else:
                    value, back = self.minplus(_columns([paths[b][-1][0] for b, _, _ in todo]),
                                               movement, grid)
                    back.setflags(write=False)
                value = value + _columns([table(cost) for _, _, cost in todo])
                value.setflags(write=False)
                for i, (_, children, cost) in enumerate(todo):
                    children[cost] = (value[:, i], None if back is None else back[:, i], {})
            s += 1
            still = []
            for b, children in active:
                node = children[costs[b][s - 1]]
                paths[b].append(node)
                if need[b] > s:
                    still.append((b, node[2]))
            active = still
        return paths

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
        trans, pts, G = self.transition(movement, grid), grid.points(), grid.size
        cols = value.reshape(G, -1)
        best, arg = np.empty(cols.shape), np.empty(cols.shape, dtype=np.int64)
        # row blocks: the cached matrix is one of all G rows, else the
        # (block, G, d) differences ``pairwise`` makes stay within the limit
        block = G if trans is not None else max(1, _DENSE_TRANSITION_LIMIT // (G * grid.dim))
        for start in range(0, G, block):
            rows = slice(start, min(start + block, G))
            moves = trans if trans is not None else movement.pairwise(pts[rows], pts)
            for b in range(cols.shape[1]):
                step = moves + cols[:, b]
                arg[rows, b] = np.argmin(step, axis=1)
                best[rows, b] = step[np.arange(step.shape[0]), arg[rows, b]]
        return best.reshape(value.shape), arg.reshape(value.shape)


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

    Windows that share a movement and kind of solve are one batch, whatever
    their free counts and right anchors: each stage is one min-plus call
    over the windows that need it (``_GridEval.stages``).  Each window's
    points equal the window solved alone, bit for bit.  Anchors are snapped
    to the nearest lattice point for the search (an anchor outside the
    lattice raises ValueError naming the first such coordinate, in window
    order); the free points returned are lattice points.  A window that
    separates by coordinate is solved per lattice axis, ties to the lowest
    index per coordinate; any other by the joint DP (d <= 2, <= 1e6
    points), ties to the lowest flat index.
    """
    cache = cache or _GridEval()
    batches: dict = {}
    for i, problem in enumerate(problems):
        if grid.dim != problem.dim:
            raise ValueError("grid dimension does not match problem")
        key = (problem.movement, _split_moves(problem) is not None)
        batches.setdefault(key, []).append(i)
    out = [None] * len(problems)
    for members in batches.values():
        batch = [problems[i] for i in members]
        for i, points in zip(members, _grid_dp(batch, grid, cache)):
            out[i] = WindowSolution(points, "grid_dp")
    return out


def _grid_dp(batch: list[WindowProblem], grid: Grid, cache: _GridEval) -> list[np.ndarray]:
    """Free points of each window of a batch that shares movement and kind
    of solve.  The windows of one free count and anchoring take the final
    argmin and backtrack together, by array gathers."""
    first = batch[0]
    d = first.dim
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
    anchors, left_at, groups = [], [], {}
    for b, p in enumerate(batch):
        left_at.append(len(anchors))
        anchors.append(p.left_anchor)
        if p.right_anchor is not None:
            anchors.append(p.right_anchor)
        groups.setdefault((p.free_count, p.right_anchor is not None), []).append(b)
    snapped = grid.snap_rows(np.array(anchors))
    paths = cache.stages(batch, snapped[left_at], grid)

    pts = grid.points()
    out = [None] * len(batch)
    for (F, anchored), members in groups.items():
        if F == 0:
            for b in members:
                out[b] = np.empty((0, d))
            continue
        value = _columns([paths[b][-1][0] for b in members])
        if anchored:
            rights = snapped[[left_at[b] + 1 for b in members]]
            value = value + first.movement.pairwise(rights, pts).T
        idx = np.empty((len(members), F), dtype=np.int64)
        idx[:, -1] = np.argmin(value, axis=0)
        cols = np.arange(len(members))
        for s in range(F - 1, 0, -1):
            back = _columns([paths[b][s][1] for b in members])
            idx[:, s - 1] = back[idx[:, s], cols]
        for b, points in zip(members, pts[idx]):
            out[b] = points
    return out


class WindowSolver:
    """Dispatching solver: exact for quadratic chains, the grid DP on the
    solver's lattice for all other windows, in any d.  A solver built
    without a lattice solves quadratic windows only and raises
    ``UnsupportedProblemError`` on any other.  Shares lattice evaluation
    caches and the stage memo (``cache``) across calls, so reuse one solver
    for all windows of a run; the memo is freed with the solver."""

    def __init__(self, grid: Grid | None = None):
        self.grid = grid
        self.cache = _GridEval()

    def __call__(self, problem: WindowProblem) -> WindowSolution:
        return self.solve_batch([problem])[0]

    def solve_batch(self, problems) -> list[WindowSolution]:
        """Solutions in order; the quadratic windows are solved together
        (``solve_quadratic_batch``), and so are the lattice windows
        (``solve_grid_dp_batch``)."""
        quadratic, lattice = [], []
        for i, problem in enumerate(problems):
            if _is_quadratic(problem):
                quadratic.append(i)
            elif self.grid is None:
                family = "/".join(sorted({c.family_tag for c in problem.costs}))
                raise UnsupportedProblemError(f"a {family} window needs a lattice")
            else:
                lattice.append(i)
        out = [None] * len(problems)
        for i, sol in zip(quadratic, solve_quadratic_batch([problems[i] for i in quadratic])):
            out[i] = sol
        if lattice:
            sols = solve_grid_dp_batch([problems[i] for i in lattice], self.grid, self.cache)
            for i, sol in zip(lattice, sols):
                out[i] = sol
        return out


def solver_for(instance: Instance) -> WindowSolver:
    """Solver preloaded with the instance's default grid, any d."""
    return WindowSolver(default_grid(instance))

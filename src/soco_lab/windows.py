"""Window subproblems: anchored segments of the horizon and their solvers.

A window spans timesteps tau1+1 .. tau2 with the endpoint decisions pinned:
the left anchor is the minimizer v_{tau1} (the start point when tau1 = 0)
and the right anchor is v_{tau2} when tau2 <= T.  Windows with tau2 > T
truncate at the horizon and leave the tail free.  Interior points are the
free variables of a small optimization solved by one of two backends:

  exact_quadratic  closed-form tridiagonal solve (quadratic costs,
                   half-squared-l2 movement),
  grid_dp          stage-wise dynamic programming over a product lattice;
                   the full-horizon lattice oracle is this DP over the
                   window (0, T+1).

The lattice is the run's (``default_grid`` of the instance, or one the
caller gives), never one made up per window: a ``WindowSolver`` built
without a lattice solves quadratic windows only.  A lattice is the product
of its per-axis sorted coordinates, evenly spaced or not, and every lattice
snaps a point by one rule: per axis the nearest coordinate, the lower one on
an exact tie.  The piecewise-linear families (``polyhedral`` p = 1 in any d
and any p in 1-D, ``glb``) default to their breakpoint lattice -- the start,
the minimizers and 0 for ``glb`` -- on which the DP, and every window
anchored at lattice points, is exact; the other families default to 201
evenly spaced points per axis.

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
points.  ``sq_l2_half`` on a 1-D lattice -- a 1-D window or one axis of a
separable one -- takes a bracketed product (``_bracketed_minplus``): its
cost matrix is Monge, so each row's lowest argmin lies between those of
about sqrt(G) sampled rows, and every other row searches only that
bracket, O(G (sqrt(G) + W)) per column for a bracket of W points.  A
guard on the columns' magnitude makes it the dense product's bits; an
infinite or huge value, or a bracket wider than G/3, takes the dense
product.  That dense O(G^2) product also serves 2-D
``norm_l2``/``norm_linf``, row-blocked on large lattices.  The joint DP
breaks ties to the lowest flat lattice index (ij order, last axis
fastest); the per-coordinate solve breaks them to the lowest index per
coordinate.

Windows are solved in batches (``solve_grid_dp_batch``,
``WindowSolver.solve_batch``) of windows that share a movement and
lattice, whatever their free counts and right anchors; the harness puts
all windows of one (instance, seed) and step in one batch.  Beside its DP
work -- one min-plus call per depth over the distinct stages missing
there -- a batch pays one snap of its anchors, one final argmin and one
gather of its points per call, and a memo walk and a backtracking walk by
index per window.  A 1-D stage keeps its back-pointer column, read by
index: one recomputed pointer costs about as much as the column, which
windows share.  A joint 2-D stage keeps its values only, and backtracking
recomputes each pointer it visits (``_back_pointer``) by the kernel's
float operations: there a column costs more than the F - 1 pointers a
window reads.  The dense product takes one column at a time: its cost is
arithmetic; the bracketed product takes all columns at once.  Every
window's points equal the window solved alone, bit for bit;
``solve_grid_dp`` is the batch of one.

Stage s of a window depends only on the lattice, the movement, the snapped
left anchor and the costs of its first s + 1 timesteps, so a cache keeps
each stage under that key (the stage memo, a trie of cost prefixes per
left anchor), and a window that repeats or extends a solved one -- phase
windows shared by ``dsfhc``, ``sfhc`` and ``rsfhc-a``, (a, a+2] inside
(a, a+4], the oracle window, ``afhc`` chains that restart from one lattice
point -- reuses its stages.  A ``WindowSolver`` owns its cache, and the
harness keeps one per (instance, seed).

Quadratic windows are solved in batches too (``solve_quadratic_batch``):
windows that share a free count, right-anchoring and m values share the
tridiagonal matrix, which is factored once and applied to each stacked
right-hand side (``_solve_tridiagonal``, LAPACK ``gtsv``'s arithmetic in
Python floats, so the module loads no scipy); ``solve_quadratic_chain``
is the batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .families import FAMILIES, NO_FAMILY, family_of
from .model import HittingCost, Instance, MovementCost, Point


class UnsupportedProblemError(ValueError):
    """The problem does not match the solver's preconditions."""


@dataclass(frozen=True)
class Grid:
    """Product lattice: the sorted coordinates of each axis, ``coords``.
    ``make`` spaces n points evenly over the closed range [lo, hi] per axis
    (``np.linspace``); ``from_axes`` takes the coordinates given.  ``lo``,
    ``hi`` and ``n`` -- the end coordinates and the count per axis -- are
    derived from ``coords`` once, when the grid is built.

    A grid keys the stage memo, the cost tables and the lattice caches, so
    its hash is computed once too."""

    coords: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        lo, hi = tuple(c[0] for c in self.coords), tuple(c[-1] for c in self.coords)
        # _box: ``snap_rows``' range per axis, with its 1e-9 slack
        self.__dict__.update(lo=lo, hi=hi, n=tuple(map(len, self.coords)),
                             _hash=hash(self.coords),
                             _box=(np.subtract(lo, 1e-9), np.add(hi, 1e-9)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def make(cls, lo, hi, n, dim: int = 1) -> "Grid":
        lo = np.broadcast_to(np.asarray(lo, dtype=float), (dim,)).tolist()
        hi = np.broadcast_to(np.asarray(hi, dtype=float), (dim,)).tolist()
        n = np.broadcast_to(np.asarray(n), (dim,)).tolist()
        if not all(float(k).is_integer() for k in n):
            raise ValueError(f"grid needs an integer n per dimension, not {n}")
        if not all(map(math.isfinite, lo + hi)):
            raise ValueError("grid needs finite lo and hi")
        if any(b <= a for a, b in zip(lo, hi)) or any(k < 2 for k in n):
            raise ValueError("grid needs lo < hi and n >= 2 per dimension")
        coords = tuple(tuple(np.linspace(a, b, int(k)).tolist()) for a, b, k in zip(lo, hi, n))
        if any(len(set(axis)) < len(axis) for axis in coords):
            raise ValueError(f"grid range {lo} to {hi} holds fewer than n = {n} distinct floats")
        return cls(coords)

    @classmethod
    def from_axes(cls, axes) -> "Grid":
        """Coordinate lattice: the distinct values of each axis, sorted
        (-0.0 is kept as 0.0).  An axis may hold a single coordinate."""
        coords = tuple(tuple((np.unique(np.asarray(a, dtype=float)) + 0.0).tolist())
                       for a in axes)
        if not coords or not all(coords):
            raise ValueError("grid needs at least one coordinate per axis")
        if not all(math.isfinite(x) for axis in coords for x in axis):
            raise ValueError("grid needs finite coordinates")
        return cls(coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def size(self) -> int:
        return math.prod(self.n)

    def axis(self, j: int) -> "Grid":
        """The 1-D lattice along axis j."""
        return Grid(self.coords[j:j + 1])

    def axes(self) -> tuple[np.ndarray, ...]:
        return _axes(self)

    def spacing(self) -> np.ndarray:
        """Per-axis largest gap between neighbouring coordinates (0 on a
        one-point axis)."""
        return np.array([np.diff(x).max(initial=0.0) for x in self.axes()])

    def points(self) -> np.ndarray:
        return _lattice(self)

    def snap(self, p) -> tuple[np.ndarray, float]:
        """Nearest lattice point and its l2 distance; rejects out-of-range points."""
        p = np.asarray(p, dtype=float)
        snapped = self.snap_rows(p[None, :])[0]
        return snapped, float(np.sqrt(((snapped - p) ** 2).sum()))

    def index_rows(self, pts: np.ndarray) -> np.ndarray:
        """Per-axis index of the nearest coordinate to each entry of the
        stacked (n, d) array ``pts``: the lower one on an exact float tie of
        the two distances, so a coordinate maps to its own index.  Entries
        beyond an axis's ends take its end coordinate; a NaN or infinite
        entry raises ValueError."""
        if not np.isfinite(pts).all():
            raise ValueError("point coordinates must be finite")
        return np.stack([_nearest(x, p) for x, p in zip(self.axes(), pts.T)], axis=-1)

    def snap_rows(self, pts: np.ndarray) -> np.ndarray:
        """Nearest lattice point to each row of the stacked (n, d) float
        array ``pts``, per axis by ``index_rows``' rule; the first
        coordinate more than 1e-9 outside the range, or NaN, in row-major
        order, raises ValueError."""
        low, high = self._box
        inside = (pts >= low) & (pts <= high)
        if not inside.all():
            i, j = np.argwhere(~inside)[0]
            raise ValueError(f"point coordinate {pts[i, j]} outside grid range "
                             f"[{self.lo[j]}, {self.hi[j]}]")
        out = np.empty(pts.shape)
        for j, x in enumerate(self.axes()):
            out[:, j] = x[_nearest(x, pts[:, j])]
        return out


def _nearest(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``Grid.index_rows`` on one sorted axis ``x``: each p lies in (or
    beyond) a gap [x_k, x_k+1] and takes x_k+1 only when strictly nearer."""
    if len(x) == 1:
        return np.zeros(p.shape, dtype=np.intp)
    k = x[1:-1].searchsorted(p)
    return k + (p - x[k] > x[k + 1] - p)


@lru_cache(maxsize=32)
def _axes(grid: Grid) -> tuple[np.ndarray, ...]:
    axes = tuple(np.array(c) for c in grid.coords)
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


def default_grid(instance: Instance, n: int | None = None) -> Grid:
    """The run's lattice.

    With no ``n``, an instance whose family record says
    ``piecewise_linear`` gets its breakpoint lattice (``_breakpoint_axes``),
    on which the lattice DP is exact.  Every other instance, and every
    instance when ``n`` is given, gets a uniform lattice of ``n`` points per
    axis (201 by default) over the bounding box of the start point and all
    minimizers, widened on every side by twice its largest span (at least
    1), and cut at 0 for a family whose record says ``orthant``."""
    if n is None:
        axes = _breakpoint_axes(instance)
        if axes is not None:
            return Grid.from_axes(axes)
        n = 201
    anchors = np.vstack([instance.minimizers(), instance.start[None, :]])
    lo, hi = anchors.min(axis=0), anchors.max(axis=0)
    span = max(float((hi - lo).max()), 1.0)
    lo, hi = lo - 2.0 * span, hi + 2.0 * span
    if family_of(instance).orthant:
        lo = np.maximum(lo, 0.0)
    return Grid.make(lo, hi, n, dim=instance.dim)


def _breakpoint_axes(instance: Instance) -> list[np.ndarray] | None:
    """Per-axis breakpoints of an instance whose family record says
    ``piecewise_linear``, else None: the start coordinate, every minimizer
    coordinate, and 0, the orthant's edge, when the record says ``orthant``.

    Every DP value function of such an instance is convex and piecewise
    linear per axis, with kinks only at these points, so the lattice DP on
    their product is exact, and so is every window whose anchors are
    lattice points.  That covers ``glb`` and ``polyhedral`` p = 1 in any d,
    and ``polyhedral`` of any p in 1-D, where each norm is |x|."""
    family = family_of(instance)
    if not family.piecewise_linear(instance.hitting[0].params, instance.dim):
        return None
    points = np.vstack([instance.start[None, :], instance.minimizers()])
    if family.orthant:
        points = np.vstack([points, np.zeros((1, instance.dim))])
    return list(points.T)


@dataclass(eq=False)
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


@dataclass(eq=False)
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
    # one lookup per cost per window: no ``family_of`` call, no record built
    return (problem.movement.kind == "sq_l2_half"
            and all(FAMILIES.get(c.family_tag, NO_FAMILY).quadratic for c in problem.costs))


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
    ``_solve_tridiagonal`` call over stacked right-hand sides; each column
    is solved on its own, so every window gets the points it gets alone.
    """
    if not all(map(_is_quadratic, problems)):
        raise UnsupportedProblemError(
            "exact chain solve needs quadratic costs and sq_l2_half movement")
    return _quadratic_batch(problems)


def _quadratic_batch(problems) -> list[WindowSolution]:
    """``solve_quadratic_batch`` of windows known to be quadratic."""
    groups: dict = {}
    for i, problem in enumerate(problems):
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
    """Free points of quadratic windows that share one tridiagonal matrix:
    off-diagonals -1, diagonal m_t + 2, and m_F + 1 on the last row of an
    unanchored window."""
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
    free = _solve_tridiagonal(diag, rhs.reshape(F, -1))
    return list(free.reshape(F, len(group), d).swapaxes(0, 1))


def _solve_tridiagonal(diag: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs for each column of rhs (F, K), where A has diagonal
    ``diag`` and -1 on both off-diagonals, by the steps LAPACK ``dgtsv``
    takes without row interchanges, in its order:

        fact = dl_i / d_i,  d_{i+1} -= fact * du_i,  b_{i+1} -= fact * b_i,
        x_F = b_F / d_F,    x_i = (b_i - du_i x_{i+1} - du2_i x_{i+2}) / d_i,

    with dl_i = du_i = -1 and du2_i = 0, the second superdiagonal that an
    interchange would fill.  The unit factors are left out where that
    changes no bit: d - fact * (-1) is d + fact, and b - (-1) * x is b + x.
    The 0 * x_{i+2} term stays, as dgtsv computes it: it turns a -0.0 into
    +0.0.  Row F-1 has no such term in dgtsv; x2 starts at +0.0 there, and
    subtracting +0.0 changes no bit.

    No interchange is the branch dgtsv takes here, so these are its bits
    (given a dgtsv build without fused multiply-adds; the tests compare
    with ``scipy.linalg.solve_banded``, which calls it).  It interchanges
    rows i and i+1 only when |d_i| < |dl_i| = 1, and every pivot
    d_1 .. d_{F-1} is at least 1, computed in floats: those rows hold
    m + 2 with m > 0, so diag_i >= 2 after rounding, and by induction
    d_{i+1} = fl(diag_{i+1} + fact) with -1 <= fact = fl(-1 / d_i) < 0 is
    at least fl(2 - 1) = 1.  The last pivot is at least 1 on an anchored
    window and at least 0 on an unanchored one (diagonal m_F + 1); were it
    0, dgtsv would report a singular matrix, and the division here raises
    ZeroDivisionError.

    The factorization is shared and each column costs O(F) Python float
    operations, so a call costs O(F K) with no fixed set-up.
    """
    d = diag.tolist()
    fact = []
    for i in range(len(d) - 1):
        fact.append(-1.0 / d[i])
        d[i + 1] += fact[-1]
    last = d[-1]
    back = list(zip(range(len(d) - 2, -1, -1), reversed(d[:-1])))
    cols = rhs.T.tolist()
    for b in cols:
        y = b[0]
        for i, f in enumerate(fact, 1):
            y = b[i] = b[i] - f * y
        x1, x2 = y / last, 0.0
        b[-1] = x1
        for i, di in back:
            x1, x2 = (b[i] + x1 - 0.0 * x2) / di, x1
            b[i] = x1
    return np.array(cols).T


#: Largest dense transition matrix kept in memory (entries); bigger grids
#: fall back to a row-blocked min-plus sweep.  The bracketed 1-D kernel
#: (``_bracketed_minplus``) keeps its sampled rows and every temporary
#: within it too.
_DENSE_TRANSITION_LIMIT = 2 * 10 ** 7

#: ``_bracketed_minplus``' guard factor: 32 unit roundoffs (u = 2^-53),
#: twice the 16 u that four computed entries can lose.
_MONGE_SLACK = 32 * 2.0 ** -53


@lru_cache(maxsize=32)
def _axis_prices(movement: MovementCost, dim: int) -> tuple[tuple[float, float], ...] | None:
    """Per-axis (up, down) unit prices when the movement splits into linear
    1-D movements, else None.  Moving from x_j to x_i along an axis costs
    up * (x_i - x_j) when x_i > x_j and down * (x_j - x_i) otherwise."""
    axes = movement.split(dim)
    if axes is None or any(m.kind == "sq_l2_half" for m in axes):
        return None
    return tuple((float(m.params["beta"][0]), 0.0) if m.kind == "rectified_linear"
                 else (1.0, 1.0) for m in axes)


def _prefix_minplus(value: np.ndarray, x: np.ndarray, up: float, down: float,
                    back: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """min over j of value[j] + the axis price of x_j -> x_i, along axis 0,
    and with ``back`` its argmin (else None).

    The forward pass covers j <= i, the backward pass j >= i.  Forward
    records need strict <, backward records <=, and the forward candidate
    wins ties, so the argmin is the lowest attaining j.
    """
    n = x.shape[0]
    x = x.reshape((n,) + (1,) * (value.ndim - 1))
    up_x, down_x = up * x, down * x
    fkey = value - up_x
    frun = np.minimum.accumulate(fkey, axis=0)
    bkey = value[::-1] + down_x[::-1]   # made in reversed order, so it is contiguous
    brun = np.minimum.accumulate(bkey, axis=0)
    fwd, bwd = frun + up_x, brun[::-1] - down_x
    take_bwd = bwd < fwd
    best = np.where(take_bwd, bwd, fwd)
    if not back:
        return best, None

    idx = np.arange(n).reshape(x.shape)
    rec = np.ones(value.shape, dtype=bool)
    np.less(fkey[1:], frun[:-1], out=rec[1:])
    fwd_arg = np.maximum.accumulate(rec * idx, axis=0)
    # a backward record, bkey[j] <= brun[j - 1], is where brun[j] == bkey[j]
    bwd_arg = np.maximum.accumulate((bkey == brun) * idx, axis=0)
    return best, np.where(take_bwd, (n - 1 - bwd_arg)[::-1], fwd_arg)


def _prefix_point(rows: np.ndarray, x: np.ndarray, i: int, up: float,
                  down: float) -> tuple[np.ndarray, np.ndarray]:
    """``_prefix_minplus`` at target i alone, for each row of ``rows`` (the
    lattice axis last): its value and argmin, by the same float operations.
    The slices keep the kernel's ties: an all-inf forward slice gives index
    0, and the backward candidate wins only when strictly smaller."""
    fkey = rows[..., :i + 1] - up * x[:i + 1]
    bkey = rows[..., i:] + down * x[i:]
    fwd = fkey.min(axis=-1) + up * x[i]
    bwd = bkey.min(axis=-1) - down * x[i]
    take_bwd = bwd < fwd
    return (np.where(take_bwd, bwd, fwd),
            np.where(take_bwd, bkey.argmin(axis=-1) + i, fkey.argmin(axis=-1)))


def _separable_minplus(value: np.ndarray, grid: Grid,
                       prices: tuple) -> tuple[np.ndarray, np.ndarray | None]:
    """Min-plus for a coordinate-separable movement: one prefix-min pass per
    axis, the last axis first.  Trailing dimensions of ``value`` (one per
    window of a batch) ride along.  Only a 1-D lattice returns back-pointers;
    on the joint 2-D lattice ``_back_pointer`` recomputes them."""
    axes = grid.axes()
    if grid.dim == 1:
        return _prefix_minplus(value, axes[0], *prices[0], back=True)
    (n0, n1), B = grid.n, value.size // grid.size
    inner, _ = _prefix_minplus(value.reshape(n0, n1, B).swapaxes(0, 1), axes[1], *prices[1],
                               back=False)
    best, _ = _prefix_minplus(inner.swapaxes(0, 1), axes[0], *prices[0], back=False)
    return best.reshape(value.shape), None


def _bracket(grid: Grid) -> tuple | None:
    """The fixed part of ``_bracketed_minplus`` on a 1-D lattice, or None
    where it cannot run: (K, the sampled rows' window of each block of K
    rows, the coordinates of ceil(G / K) blocks of K rows -- the last block
    padded with row G-1 --, the half-squared costs from every K-th row and
    the last to all G points, t_max, h^2).  K is about sqrt(G), larger when
    G times the number of sampled rows would exceed
    ``_DENSE_TRANSITION_LIMIT``; None when two rows would, or when h^2 is
    below 2^-1020, where the costs' rounding is no longer relative."""
    x, G = grid.axes()[0], grid.size
    fit = _DENSE_TRANSITION_LIMIT // G - 1
    hh = float(np.diff(x).min()) ** 2 if G >= 3 else 0.0
    if fit < 1 or hh < 2.0 ** -1020:
        return None
    K = max(math.isqrt(G), -(-(G - 1) // fit))
    rows = np.append(np.arange(0, G - 1, K), G - 1)
    d = x[rows, None] - x[None, :]
    blocks = -(-G // K)
    window = np.minimum(np.arange(blocks), len(rows) - 2)
    padded = x[np.minimum(np.arange(blocks * K), G - 1)].reshape(blocks, K, 1)
    return K, window, padded, 0.5 * (d * d), 0.5 * float(x[-1] - x[0]) ** 2, hh


def _bracketed_minplus(cols: np.ndarray, x: np.ndarray,
                       bracket: tuple) -> tuple[np.ndarray, np.ndarray] | None:
    """The dense product's (best, lowest argmin) for half-squared movement
    on the sorted 1-D coordinates ``x``, for each column of the (G, B)
    array ``cols``, from O(G (sqrt(G) + W)) entries per column; None where
    that is not certain to be the dense product's bits.

    Each sampled row of ``bracket`` (every K-th row and the last) takes its
    lowest argmin A_k over all G points.  Every row between sampled rows k
    and k+1 then searches only the W points from min(A_k, G - W), where
    W = max(A_{k+1} - A_k) + 1 over all blocks and columns, and takes the
    lowest index there.  Every entry is computed as ``pairwise`` + column
    computes it, 0.5 * (d * d) + c_j with d = x_i - x_j.

    Why it is exact.  For i < i' and j < j' the exact costs T satisfy
    T(i,j) + T(i',j') - T(i,j') - T(i',j) = -(x_i' - x_i)(x_j' - x_j) <= -h^2,
    h the smallest gap between coordinates, and adding c_j to column j
    keeps that sum.  Each computed entry fl(fl(0.5 d^2) + c_j) is within
    4u (t_max + max|c|) of its exact value, u = 2^-53.  So when every c is
    finite and 32u (t_max + max|c|) < h^2, the computed matrix is strictly
    Monge; its lowest argmins never decrease from row to row, so each row's
    lies in [A_k, A_{k+1}] inside its window, and every entry of the window
    below it is strictly larger.  Values and argmins are then the dense
    product's, bit for bit.

    The guard failing (an inf, a NaN or a huge c), 3W > G, where the
    windows save little, and a block of K rows by W candidates over
    ``_DENSE_TRANSITION_LIMIT`` entries return None: the caller takes the
    dense product.  The sampled rows and every temporary are chunked to at
    most that many entries, beside copies the size of ``cols``; no (G, G)
    array is made."""
    K, window, padded, head, t_max, hh = bracket
    if not _MONGE_SLACK * (t_max + np.abs(cols).max()) < hh:   # NaN fails too
        return None
    (G, B), limit = cols.shape, _DENSE_TRANSITION_LIMIT
    cols = np.ascontiguousarray(cols.T)   # (B, G): a column per row
    A = np.empty((B, head.shape[0]), dtype=np.intp)
    step = max(1, limit // head.size)
    for c in range(0, B, step):
        A[c:c + step] = (head + cols[c:c + step, None, :]).argmin(axis=-1)
    W = int((A[:, 1:] - A[:, :-1]).max()) + 1
    if 3 * W > G or K * W > limit:
        return None
    start = np.minimum(A[:, window], G - W)[..., None]   # (B, blocks, 1)
    best, arg = np.empty((B, len(window), K)), np.empty((B, len(window), K), dtype=np.int64)
    cb = min(B, limit // (K * W))
    bb = limit // (cb * K * W)
    for c in range(0, B, cb):
        flat, at = cols[c:c + cb].ravel(), np.arange(0, min(cb, B - c) * G, G)[:, None, None]
        for q in range(0, len(window), bb):
            chunk = (slice(c, c + cb), slice(q, q + bb))
            j = start[chunk] + np.arange(W)   # (cb, bb, W): a block's candidates
            d = padded[q:q + bb] - x.take(j)[:, :, None, :]   # (cb, bb, K, W)
            d *= d
            d *= 0.5
            d += flat.take(j + at)[:, :, None, :]
            a = d.argmin(axis=-1)
            arg[chunk] = start[chunk] + a
            best[chunk] = d.reshape(-1, W)[np.arange(a.size), a.ravel()].reshape(a.shape)
    return best.reshape(B, -1)[:, :G].T, arg.reshape(B, -1)[:, :G].T


def _back_pointer(prev: np.ndarray, i: int, movement: MovementCost, grid: Grid) -> int:
    """The lowest flat index j minimizing prev[j] + c(p_i, p_j) on the joint
    2-D lattice: the back-pointer ``_GridEval.minplus`` does not keep,
    recomputed at one point by the float operations of its kernel, so it is
    the pointer a kept column would hold.  Separable movements take the
    axis-1 pass per row, then the axis-0 pass over that column; the dense
    kinds take one row of the product."""
    prices = _axis_prices(movement, grid.dim)
    if prices is None:
        pts = grid.points()
        return int(np.argmin(movement.pairwise(pts[i:i + 1], pts)[0] + prev))
    (n0, n1), (x0, x1) = grid.n, grid.axes()
    i0, i1 = divmod(i, n1)
    inner, a1 = _prefix_point(prev.reshape(n0, n1), x1, i1, *prices[1])
    _, a0 = _prefix_point(inner, x0, i0, *prices[0])
    return int(a0) * n1 + int(a1[a0])


class _GridEval:
    """Caches, per lattice: hitting-cost tables, dense movement transition
    matrices for the movements that do not separate by coordinate, the
    bracketed kernel's sampled rows (``_bracket``), and the stage memo,
    every DP stage solved so far."""

    def __init__(self):
        self._costs: dict = {}
        self._moves: dict = {}
        self._brackets: dict = {}
        self._stages: dict = {}

    def cost_columns(self, costs: list[HittingCost], grid: Grid) -> np.ndarray:
        """The hitting-cost tables of ``costs`` on one lattice, as the
        columns of a (G, K) array, kept under the cost objects (held by the
        key).  Missing tables are made together, in one call of a shared
        ``formula`` when they have one: the float operations of each cost's
        own call."""
        tables = self._costs.setdefault(grid, {})
        new = [cost for cost in costs if cost not in tables]
        if new:
            new, pts, f = list(dict.fromkeys(new)), grid.points(), new[0].formula
            if f is not None and all(cost.formula is f for cost in new):
                values = f(pts[None], np.stack([cost.minimizer for cost in new])[:, None])
            else:
                values = [cost.values(pts) for cost in new]
            tables.update(zip(new, values))
        return np.array([tables[cost] for cost in costs]).T

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
        per free timestep; the back-pointer column is None on the first
        stage and on the joint 2-D lattice.  The memo is a trie per snapped
        left anchor ``lefts[b]``, a node's children keyed by the next cost
        object (held by the trie, so no key is reused by a new object).
        Each window walks the nodes the memo holds; the missing ones are
        made depth by depth, one min-plus call per depth over the distinct
        nodes missing there, which windows with a shared prefix share.
        """
        movement = batch[0].movement
        by_left = self._stages.setdefault((grid, movement), {})
        pts, keys, width = grid.points(), lefts.tobytes(), lefts.itemsize * lefts.shape[1]
        paths, missing = [], {}   # depth -> (window, its costs, the children lacking one)
        for b, problem in enumerate(batch):
            path, costs = [], problem.costs[:problem.free_count]
            children = by_left.setdefault(keys[b * width:(b + 1) * width], {})
            for cost in costs:
                node = children.get(cost)
                if node is None:
                    missing.setdefault(len(path), []).append((b, costs, children))
                    break
                path.append(node)
                children = node[2]
            paths.append(path)
        s = min(missing, default=0)
        while missing:
            waiting = missing.pop(s, [])
            todo = {(id(children), costs[s]): (b, children, costs[s])
                    for b, costs, children in waiting}
            if todo:
                todo = list(todo.values())
                if s == 0:
                    value, back = movement.pairwise(pts, lefts[[b for b, _, _ in todo]]), None
                else:
                    parents = np.array([paths[b][-1][0] for b, _, _ in todo]).T
                    value, back = self.minplus(parents, movement, grid)
                    if back is not None:
                        back.setflags(write=False)
                value = value + self.cost_columns([cost for _, _, cost in todo], grid)
                value.setflags(write=False)
                for (_, children, cost), v, pointers in zip(
                        todo, value.T, [None] * len(todo) if back is None else back.T):
                    children[cost] = (v, pointers, {})
            for b, costs, children in waiting:
                node = children[costs[s]]
                paths[b].append(node)
                if s + 1 < len(costs):
                    missing.setdefault(s + 1, []).append((b, costs, node[2]))
            s += 1
        return paths

    def minplus(self, value: np.ndarray, movement: MovementCost,
                grid: Grid) -> tuple[np.ndarray, np.ndarray | None]:
        """(best value, argmin prev index) of value[j] + c(p_i, p_j) per i.

        ``value`` is (G,) or (G, B), one column per window.  The prefix-min
        and the bracketed kernels take all columns in one pass; the dense
        product (``_dense_minplus``) takes one column at a time, since its
        cost is arithmetic, not call overhead.  ``sq_l2_half`` on a 1-D
        lattice takes the bracketed kernel, whose sampled rows are kept per
        lattice, and the dense product only where that declines.  Only a
        1-D lattice gets its back-pointers here; on the joint 2-D lattice
        the second entry is None, and ``_back_pointer`` recomputes the
        pointer at each point backtracking visits.
        """
        prices = _axis_prices(movement, grid.dim)
        if prices is not None:
            return _separable_minplus(value, grid, prices)
        cols, found = value.reshape(grid.size, -1), None
        if movement.kind == "sq_l2_half" and grid.dim == 1:
            if grid not in self._brackets:
                self._brackets[grid] = _bracket(grid)
            if self._brackets[grid] is not None:
                found = _bracketed_minplus(cols, grid.axes()[0], self._brackets[grid])
        best, arg = found or self._dense_minplus(cols, movement, grid)
        return best.reshape(value.shape), None if arg is None else arg.reshape(value.shape)

    def _dense_minplus(self, cols: np.ndarray, movement: MovementCost,
                       grid: Grid) -> tuple[np.ndarray, np.ndarray | None]:
        """``minplus`` of the (G, B) columns by the dense product, one
        column at a time; argmins on a 1-D lattice only."""
        trans, pts, G = self.transition(movement, grid), grid.points(), grid.size
        best = np.empty(cols.shape)
        arg = np.empty(cols.shape, dtype=np.int64) if grid.dim == 1 else None
        # row blocks: the cached matrix is one of all G rows, else the
        # (block, G, d) differences ``pairwise`` makes stay within the limit
        block = G if trans is not None else max(1, _DENSE_TRANSITION_LIMIT // (G * grid.dim))
        for start in range(0, G, block):
            rows = slice(start, min(start + block, G))
            moves = trans if trans is not None else movement.pairwise(pts[rows], pts)
            for b in range(cols.shape[1]):
                step = moves + cols[:, b]
                if arg is None:
                    best[rows, b] = step.min(axis=1)
                else:
                    arg[rows, b] = np.argmin(step, axis=1)
                    best[rows, b] = step[np.arange(step.shape[0]), arg[rows, b]]
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
    cache, d = cache or _GridEval(), grid.dim
    batches: dict = {}
    for i, problem in enumerate(problems):
        if problem.dim != d:
            raise ValueError("grid dimension does not match problem")
        key = (problem.movement, d > 1 and _split_moves(problem) is not None)
        batches.setdefault(key, []).append(i)
    out = [None] * len(problems)
    for members in batches.values():
        batch = [problems[i] for i in members]
        for i, points in zip(members, _grid_dp(batch, grid, cache)):
            out[i] = WindowSolution(points, "grid_dp")
    return out


def _grid_dp(batch: list[WindowProblem], grid: Grid, cache: _GridEval) -> list[np.ndarray]:
    """Free points of each window of a batch that shares movement and kind
    of solve.  Every window takes its final argmin in one call, then walks
    its own back-pointers by index: through its nodes' kept columns on a
    1-D lattice, by one recomputed back-pointer per step on the joint 2-D
    lattice.  One gather turns all windows' indices into points."""
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
    anchors, left_at = [], []
    for p in batch:
        left_at.append(len(anchors))
        anchors.append(p.left_anchor)
        if p.right_anchor is not None:
            anchors.append(p.right_anchor)
    snapped = grid.snap_rows(np.array(anchors))
    paths = cache.stages(batch, snapped[left_at], grid)

    # every window's final argmin in one call, then its own backtracking walk
    live = [b for b, path in enumerate(paths) if path]
    value = np.array([paths[b][-1][0] for b in live]).T
    right = [k for k, b in enumerate(live) if batch[b].right_anchor is not None]
    if right:
        value[:, right] += first.movement.pairwise(snapped[[left_at[live[k]] + 1 for k in right]],
                                                   grid.points()).T
    idx = []
    for b, i in zip(live, value.argmin(axis=0).tolist() if live else ()):
        path, walk = paths[b], [i]
        for s in range(len(path) - 1, 0, -1):
            i = path[s][1][i] if d == 1 else _back_pointer(path[s - 1][0], i, first.movement, grid)
            walk.append(i)
        idx += reversed(walk)
    points, out, at = grid.points()[idx], [], 0
    for path in paths:
        out.append(points[at:at + len(path)])
        at += len(path)
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
        quadratic = [_is_quadratic(p) for p in problems]
        lattice = [p for p, q in zip(problems, quadratic) if not q]
        if lattice and self.grid is None:
            family = "/".join(sorted({c.family_tag for c in lattice[0].costs}))
            raise UnsupportedProblemError(f"a {family} window needs a lattice")
        exact = iter(_quadratic_batch([p for p, q in zip(problems, quadratic) if q]))
        dp = iter(solve_grid_dp_batch(lattice, self.grid, self.cache) if lattice else ())
        return [next(exact if q else dp) for q in quadratic]


def solver_for(instance: Instance) -> WindowSolver:
    """Solver preloaded with the instance's default grid, any d."""
    return WindowSolver(default_grid(instance))

"""Core data model: instances, trajectories, and total-cost evaluation.

A problem instance couples a start point, a horizon of per-round hitting
costs with known minimizers, and a movement cost charged between
consecutive decisions.  The total cost of a decision sequence x_1..x_T is

    sum_t f_t(x_t) + c(x_t, x_{t-1}),   with x_0 the fixed start point.

Points are plain 1-D numpy float arrays, frozen read-only at construction
so instances can be shared across rows, runs and solvers.

The family constructors build all T hitting costs of an instance from one
formula f(x, v) (``HittingCost.formula``), so ``evaluate_total_cost``
scores a trajectory with one call of it on the (T, d) points and
minimizers.  Indicator and custom costs have no formula and are scored
one step at a time.  On the families the two ways give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

# A decision point is a read-only 1-D float64 array.
Point = np.ndarray

MOVEMENT_KINDS = ("norm_l1", "norm_l2", "norm_linf", "sq_l2_half", "rectified_linear")

#: Finite stand-in for +infinity so dynamic programs stay in float arithmetic.
PENALTY = 1e12


def as_point(x, dim: int | None = None) -> Point:
    """Coerce ``x`` to a read-only 1-D float array, validating shape and finiteness."""
    p = np.asarray(x, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
    if p.ndim != 1:
        raise ValueError(f"point must be 1-D, got shape {p.shape}")
    if dim is not None and p.shape[0] != dim:
        raise ValueError(f"point has dimension {p.shape[0]}, expected {dim}")
    if p.shape[0] < 1:
        raise ValueError("point must have dimension >= 1")
    if not np.all(np.isfinite(p)):
        raise ValueError("point has non-finite coordinates")
    p = p.copy()
    p.setflags(write=False)
    return p


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class MovementCost:
    """Movement cost c(x, y): the price of moving from y to x.

    ``eta`` is the approximate-triangle constant: c(x, z) <= eta * (c(x, y)
    + c(y, z)) for all triples.  ``kind`` selects one of the built-in
    analytic forms; ``params`` carries kind-specific data (e.g. the
    per-coordinate ramp prices of ``rectified_linear``).
    """

    kind: str
    eta: float
    symmetric: bool
    params: dict = field(default_factory=dict)

    def __call__(self, x, y) -> float:
        return float(self.of_difference(np.asarray(x, dtype=float)
                                        - np.asarray(y, dtype=float)))

    def pairwise(self, new_pts: np.ndarray, old_pts: np.ndarray) -> np.ndarray:
        """Matrix C[i, j] = c(new_pts[i], old_pts[j]) for stacked point sets."""
        new_pts = np.atleast_2d(np.asarray(new_pts, dtype=float))
        old_pts = np.atleast_2d(np.asarray(old_pts, dtype=float))
        return self.of_difference(new_pts[:, None, :] - old_pts[None, :, :])

    def split(self, dim: int) -> tuple["MovementCost", ...] | None:
        """The 1-D movements, one per coordinate, that sum to this one in
        ``dim`` dimensions; None for ``norm_l2`` and ``norm_linf`` in d >= 2.
        Equal calls return the same objects, so caches keyed by them hit."""
        if dim == 1 or self.kind not in ("norm_l1", "sq_l2_half", "rectified_linear"):
            return (self,) if dim == 1 else None
        beta = np.broadcast_to(self.params.get("beta", 1.0), (dim,))
        return tuple(_axis_movement(self.kind, float(b)) for b in beta)

    def of_difference(self, diff: np.ndarray) -> np.ndarray:
        """c(x, y) from the differences x - y stacked on the last axis."""
        if self.kind == "norm_l1":
            return np.abs(diff).sum(axis=-1)
        if self.kind == "norm_l2":
            return np.sqrt((diff * diff).sum(axis=-1))
        if self.kind == "norm_linf":
            return np.abs(diff).max(axis=-1)
        if self.kind == "sq_l2_half":
            return 0.5 * (diff * diff).sum(axis=-1)
        if self.kind == "rectified_linear":
            return (self.params["beta"] * np.maximum(diff, 0.0)).sum(axis=-1)
        raise ValueError(f"unknown movement kind {self.kind!r}")


def movement_cost(kind: str, beta=None) -> MovementCost:
    """Build one of the analytic movement costs.

    norm_l1 / norm_l2 / norm_linf:  c(x, y) = ||x - y||, eta = 1.
    sq_l2_half:                     c(x, y) = 0.5 ||x - y||_2^2, eta = 2.
    rectified_linear:               c(x, y) = beta . (x - y)^+, eta = 1,
                                    asymmetric (charges increases only).
    """
    if kind in ("norm_l1", "norm_l2", "norm_linf"):
        return MovementCost(kind, 1.0, True)
    if kind == "sq_l2_half":
        return MovementCost(kind, 2.0, True)
    if kind == "rectified_linear":
        if beta is None:
            raise ValueError("rectified_linear movement requires beta")
        b = _frozen(np.atleast_1d(np.asarray(beta, dtype=float)))
        if np.any(b <= 0):
            raise ValueError("beta must be positive componentwise")
        return MovementCost(kind, 1.0, False, params={"beta": b})
    raise ValueError(f"unknown movement kind {kind!r}; expected one of {MOVEMENT_KINDS}")


_axis_movement = lru_cache(maxsize=64)(movement_cost)


def norm_movement(p) -> MovementCost:
    """Movement cost for an lp norm, p in {1, 2, inf}."""
    if p == 1:
        return movement_cost("norm_l1")
    if p == 2:
        return movement_cost("norm_l2")
    if p in (np.inf, "inf", math.inf):
        return movement_cost("norm_linf")
    raise ValueError(f"unsupported norm order {p!r}")


@dataclass(frozen=True, eq=False)
class HittingCost:
    """Per-round cost with a known global minimizer.

    ``fn`` accepts a single point of shape (d,) or a stack of shape (N, d).
    ``convexifier_bound`` is an alpha >= 0 such that f(x) + (alpha/2)||x||^2
    is convex, when known.  ``axes`` holds, for a cost that separates by
    coordinate in d >= 2, the 1-D costs f_j with f(x) = sum_j f_j(x_j).
    ``formula``, when set, is a function f(x, v) of stacked points and
    stacked minimizers with fn(x) = f(x, minimizer): costs that share it
    are scored in one call (``evaluate_total_cost``).  A copy that replaces
    ``fn`` must drop it.
    """

    fn: Callable
    minimizer: Point
    min_value: float = 0.0
    convexifier_bound: float | None = None
    family_tag: str = "custom"
    params: dict = field(default_factory=dict)
    axes: tuple["HittingCost", ...] | None = None
    formula: Callable | None = None

    def __call__(self, x) -> float:
        return float(self.fn(np.asarray(x, dtype=float)))

    def values(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate on a stack of points of shape (N, d)."""
        pts = np.asarray(pts, dtype=float)
        out = np.asarray(self.fn(pts), dtype=float)
        if out.shape == (pts.shape[0],):
            return out
        return np.array([float(self.fn(p)) for p in pts])


@dataclass(frozen=True, eq=False)
class Instance:
    """A full problem: start point, T hitting costs, one movement cost.

    ``lam`` is the order-of-growth constant, when known analytically:
    f_t(x) >= lam * (c(x, v_t) + c(v_t, x)) for all x, where v_t is the
    minimizer of f_t.
    """

    dim: int
    horizon: int
    start: Point
    hitting: tuple[HittingCost, ...]
    movement: MovementCost
    lam: float | None = None
    family_tag: str = "custom"

    def __post_init__(self):
        if self.dim < 1 or self.horizon < 1:
            raise ValueError("dim and horizon must be positive")
        if len(self.hitting) != self.horizon:
            raise ValueError(
                f"expected {self.horizon} hitting costs, got {len(self.hitting)}")
        object.__setattr__(self, "start", as_point(self.start, self.dim))
        for i, h in enumerate(self.hitting):
            if h.minimizer.shape[0] != self.dim:
                raise ValueError(f"minimizer {i} has wrong dimension")

    def minimizers(self) -> np.ndarray:
        """Stack of the T minimizer points, shape (T, d)."""
        return _frozen(np.stack([h.minimizer for h in self.hitting]))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A length-T decision sequence with its per-step cost breakdown."""

    points: np.ndarray             # (T, d), read-only
    per_step_hitting: np.ndarray   # (T,)
    per_step_movement: np.ndarray  # (T,)
    total: float

    def __len__(self) -> int:
        return self.points.shape[0]


def evaluate_total_cost(instance: Instance, points) -> Trajectory:
    """Score a decision sequence under the instance.

    ``points`` must have exactly T entries of dimension d.  The movement
    at t = 1 is charged against the fixed start point.  When all T costs
    share one ``formula`` (every family's do), the hitting costs are one
    call of it on the (T, d) points and minimizers; other costs are scored
    one step at a time.
    """
    pts = np.array(points, dtype=float)  # copy: the trajectory owns its buffer
    if pts.ndim == 1:
        pts = pts.reshape(-1, instance.dim)
    if pts.shape != (instance.horizon, instance.dim):
        raise ValueError(
            f"points must have shape ({instance.horizon}, {instance.dim}), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite values")

    formula = instance.hitting[0].formula
    if formula is not None and all(c.formula is formula for c in instance.hitting):
        hit = np.asarray(formula(pts, instance.minimizers()), dtype=float)
    else:
        hit = np.array([cost(p) for cost, p in zip(instance.hitting, pts)])
    move = instance.movement.of_difference(
        np.diff(pts, axis=0, prepend=instance.start[None, :]))
    total = float(np.sum(hit + move))
    return Trajectory(_frozen(pts), _frozen(hit), _frozen(move), total)


def padded_movement(movement: np.ndarray) -> np.ndarray:
    """Movement sequence with a trailing zero, so M_{T+1} = 0 in sums."""
    return np.concatenate([np.asarray(movement, dtype=float), [0.0]])


@dataclass(frozen=True)
class RatioReport:
    """Competitive-ratio value with a degeneracy flag for zero denominators."""

    ratio: float
    degenerate: bool = False


def competitive_ratio(alg_cost: float, opt_cost: float) -> RatioReport:
    """alg/opt with the zero-denominator conventions made explicit.

    opt > 0: plain ratio.  opt = 0 and alg = 0: ratio 1, flagged.
    opt = 0 and alg > 0: +inf sentinel, flagged.
    """
    if alg_cost < 0 or opt_cost < 0:
        raise ValueError("costs must be nonnegative")
    if opt_cost > 0:
        return RatioReport(alg_cost / opt_cost)
    if alg_cost == 0:
        return RatioReport(1.0, degenerate=True)
    return RatioReport(math.inf, degenerate=True)

"""Body chasing: projection-oracle bodies, duplication, epigraph embedding.

A body-chasing instance reveals one closed convex set per round; the agent
must end the round inside it and pays only movement (a norm).  This module
provides the two constructions that tie body chasing to hitting-cost
optimization: duplicating each body w times (so a window-w algorithm can be
replayed without predictions), and lifting each hitting cost to its
epigraph in one extra dimension, alternated with the zero plane.

Every body projects exactly, in closed form; epigraphs hold only costs
for which that holds (``epigraph``, ``_project_epigraph``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    PENALTY,
    HittingCost,
    Instance,
    MovementCost,
    Point,
    as_point,
    l2_norm,
    movement_cost,
)
from .families import cost_from_spec, cost_to_spec, family_of
from .windows import Grid
from .oracle import OracleResult, offline_optimal_grid


@dataclass(frozen=True, eq=False)
class ConvexBody:
    variant: str
    dim: int
    data: dict

    def contains(self, p, tol: float = 1e-8) -> bool:
        return bool(self.contains_stack(np.asarray(p, dtype=float)[None, :], tol)[0])

    def contains_stack(self, pts, tol: float = 1e-8) -> np.ndarray:
        """Membership of each row of a stack of points of shape (N, dim)."""
        pts = np.asarray(pts, dtype=float)
        d = self.data
        if self.variant == "halfspace":
            return pts @ d["a"] <= d["b"] + tol
        if self.variant == "hyperplane":
            return np.abs(pts @ d["a"] - d["b"]) <= tol
        if self.variant in ("box", "interval"):
            return np.all((pts >= d["lo"] - tol) & (pts <= d["hi"] + tol), axis=1)
        if self.variant == "ball":
            return np.linalg.norm(pts - d["center"], axis=1) <= d["r"] + tol
        if self.variant == "zero_plane":
            return np.abs(pts[:, -1]) <= tol
        if self.variant == "epigraph":
            return pts[:, -1] >= d["cost"].values(pts[:, :-1]) - tol
        raise ValueError(f"unknown body variant {self.variant!r}")

    def project(self, p) -> Point:
        """Euclidean projection onto the body, exact for every variant."""
        p = np.asarray(p, dtype=float)
        if self.contains(p, tol=0.0):
            return as_point(p)
        d = self.data
        if self.variant in ("halfspace", "hyperplane"):
            a = d["a"]
            gap = (float(a @ p) - d["b"]) / float(a @ a)
            return as_point(p - gap * a)
        if self.variant in ("box", "interval"):
            return as_point(np.clip(p, d["lo"], d["hi"]))
        if self.variant == "ball":
            off = p - d["center"]
            return as_point(d["center"] + d["r"] * off / np.linalg.norm(off))
        if self.variant == "zero_plane":
            q = p.copy()
            q[-1] = 0.0
            return as_point(q)
        if self.variant == "epigraph":
            return _project_epigraph(d["cost"], p)
        raise ValueError(f"unknown body variant {self.variant!r}")


def halfspace(a, b: float) -> ConvexBody:
    a = np.asarray(a, dtype=float)
    return ConvexBody("halfspace", a.shape[0], {"a": a, "b": float(b)})


def hyperplane(a, b: float) -> ConvexBody:
    a = np.asarray(a, dtype=float)
    return ConvexBody("hyperplane", a.shape[0], {"a": a, "b": float(b)})


def box(lo, hi) -> ConvexBody:
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if np.any(lo > hi):
        raise ValueError("box needs lo <= hi")
    return ConvexBody("box", lo.shape[0], {"lo": lo, "hi": hi})


def interval(lo: float, hi: float) -> ConvexBody:
    body = box([lo], [hi])
    return ConvexBody("interval", 1, body.data)


def ball(center, r: float) -> ConvexBody:
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if r < 0:
        raise ValueError("radius must be nonnegative")
    return ConvexBody("ball", center.shape[0], {"center": center, "r": float(r)})


def zero_plane(dim: int) -> ConvexBody:
    return ConvexBody("zero_plane", dim, {})


def epigraph(cost: HittingCost, dim: int) -> ConvexBody:
    """The set {(x, y) : y >= f(x)} in dimension dim = d + 1, for the costs
    whose family record's ``epigraph`` holds, so that their projection is
    exact: ``polyhedral`` with p in {1, 2, inf} and ``strongly_convex``.
    Any other cost, or another dim, raises ValueError."""
    if not family_of(cost).epigraph(cost.params):
        raise ValueError(f"no exact epigraph projection for family {cost.family_tag!r}")
    if dim != (d := cost.minimizer.shape[0]) + 1:
        raise ValueError(f"the epigraph of a {d}-D cost has dimension {d + 1}, not {dim}")
    return ConvexBody("epigraph", dim, {"cost": cost})


def _project_epigraph(cost: HittingCost, p: np.ndarray) -> Point:
    """Euclidean projection of a point (x, q) outside the epigraph of
    alpha ||x - v||_p or (m/2) ||x - v||^2, in closed form; u = x - v.

    p = 2, any p in 1-D (where every norm is |u|) and the quadratic are
    radial: the point is v + (u/|u|) r.  p = inf clips u to [-s, s]^d
    (``_linf_radius``).  p = 1 follows by Moreau's decomposition: the polar
    of its cone is minus the p = inf cone of slope 1/alpha, so the point is
    (u, q) plus the projection of (-u, -q) onto that cone; its height is
    then taken as f, on the boundary.
    """
    v, q = cost.minimizer, float(p[-1])
    u = p[:-1] - v
    params, alpha = cost.params, cost.params.get("alpha")
    quadratic = family_of(cost).quadratic
    if not quadratic and u.size > 1 and params["p"] != 2:
        if params["p"] == 1:
            s = _linf_radius(-u, -q, 1.0 / alpha)
            y = u + np.clip(-u, -s, s)
            return as_point(np.append(v + y, alpha * np.abs(y).sum()))
        s = _linf_radius(u, q, alpha)
        return as_point(np.append(v + np.clip(u, -s, s), alpha * s))
    n = float(l2_norm(u))
    if not quadratic:
        r = (n + alpha * q) / (1.0 + alpha * alpha)
        height = alpha * r
    else:
        # r is the root of (m^2/2) r^3 + (1 - m q) r - n; the cubic is convex
        # on r > 0 and positive at r = n, so Newton from n falls to it
        m = params["m"]
        a, b, r = 0.5 * m * m, 1.0 - m * q, n
        while (nxt := r - (a * r ** 3 + b * r - n) / (3.0 * a * r * r + b)) < r:
            r = nxt
        height = 0.5 * m * r * r
    if r <= 0:
        return as_point(np.append(v, 0.0))
    return as_point(np.append(v + (u / n) * r, height))


def _linf_radius(w: np.ndarray, tau: float, beta: float) -> float:
    """The radius s of the projection (clip(w, -s, s), beta s) of (w, tau)
    onto the cone {(y, t) : t >= beta ||y||_inf}.

    With a = |w| sorted decreasing, s = max(0, s_k) for
    s_k = (beta tau + a_1 + ... + a_k) / (beta^2 + k), where k counts the
    a_j above s: exactly the j with a_j > s_j, a prefix.
    """
    a = np.sort(np.abs(w))[::-1]
    s = (beta * tau + np.concatenate([[0.0], np.cumsum(a)])) / (
        beta * beta + np.arange(a.size + 1))
    return max(0.0, float(s[np.count_nonzero(a > s[1:])]))


@dataclass(frozen=True, eq=False)
class CbcInstance:
    dim: int
    start: Point
    bodies: tuple[ConvexBody, ...]
    movement: MovementCost

    def __post_init__(self):
        if self.movement.kind not in ("norm_l1", "norm_l2", "norm_linf"):
            raise ValueError("body chasing movement must be a norm")
        object.__setattr__(self, "start", as_point(self.start, self.dim))
        for body in self.bodies:
            if body.dim != self.dim:
                raise ValueError("all bodies must share the instance dimension")


def cbc_cost(instance: CbcInstance, points) -> float:
    """Total movement of a feasible visiting sequence."""
    pts = np.asarray(points, dtype=float).reshape(len(instance.bodies), instance.dim)
    moves = instance.movement.of_difference(
        np.diff(pts, axis=0, prepend=instance.start[None, :]))
    return float(np.sum(moves))


def duplicate_cbc_instance(instance: CbcInstance, w: int) -> CbcInstance:
    """Repeat each body w times in place: K_1 x w, K_2 x w, ..."""
    if w < 1:
        raise ValueError("w must be >= 1")
    bodies = tuple(body for body in instance.bodies for _ in range(w))
    return CbcInstance(instance.dim, instance.start, bodies, instance.movement)


def extract_unduplicated_solution(dup_points, w: int, T: int) -> np.ndarray:
    """Keep the first visit of each duplicate block: points 0, w, 2w, ..."""
    pts = np.asarray(dup_points, dtype=float)
    if pts.shape[0] != w * T:
        raise ValueError(f"expected {w * T} points, got {pts.shape[0]}")
    return pts[::w].copy()


def run_cbc_greedy_projection(instance: CbcInstance) -> tuple[np.ndarray, float]:
    """Project the previous point onto each body in turn."""
    points = np.empty((len(instance.bodies), instance.dim))
    current = instance.start
    for i, body in enumerate(instance.bodies):
        current = body.project(current)
        points[i] = current
    return points, cbc_cost(instance, points)


# ---------------------------------------------------------------------------
# Epigraph reduction between hitting-cost instances and body chasing
# ---------------------------------------------------------------------------

def epigraph_reduce(instance: Instance) -> CbcInstance:
    """Lift a norm-movement instance to bodies K_1, P_1, ..., K_T, P_T in
    dimension d + 1, where K_t is the epigraph of f_t and P_t the zero
    plane, starting from (x_0, 0)."""
    if instance.movement.kind not in ("norm_l1", "norm_l2", "norm_linf"):
        raise ValueError("epigraph reduction is defined for norm movement costs")
    d = instance.dim + 1
    bodies = []
    for cost in instance.hitting:
        bodies.append(epigraph(cost, d))
        bodies.append(zero_plane(d))
    start = np.concatenate([instance.start, [0.0]])
    return CbcInstance(d, start, tuple(bodies), instance.movement)


def embed_soco_opt_in_cbc(points, instance: Instance) -> tuple[np.ndarray, float]:
    """Lift a feasible decision sequence x* to the alternating body visits
    y'_t = (x*_t, f_t(x*_t)), z'_t = (x*_t, 0); returns them with their
    chasing cost."""
    pts = np.asarray(points, dtype=float).reshape(instance.horizon, instance.dim)
    lifted = np.empty((2 * instance.horizon, instance.dim + 1))
    for t in range(instance.horizon):
        f = instance.hitting[t](pts[t])
        if f >= PENALTY:
            raise ValueError(f"infeasible point at timestep {t + 1}")
        lifted[2 * t] = np.concatenate([pts[t], [f]])
        lifted[2 * t + 1] = np.concatenate([pts[t], [0.0]])
    reduced = epigraph_reduce(instance)
    return lifted, cbc_cost(reduced, lifted)


def map_cbc_to_soco(cbc_points, cbc_instance: CbcInstance,
                    instance: Instance) -> "np.ndarray":
    """First d coordinates of each epigraph visit, as a decision sequence.

    Rejects inputs that do not alternate membership in K_t / P_t.
    """
    pts = np.asarray(cbc_points, dtype=float)
    if pts.shape != (2 * instance.horizon, instance.dim + 1):
        raise ValueError("expected an alternating sequence of 2T lifted points")
    for i, body in enumerate(cbc_instance.bodies):
        if not body.contains(pts[i], tol=1e-7):
            raise ValueError(f"point {i} violates body membership")
    return pts[0::2, :instance.dim].copy()


def cbc_to_indicator_instance(instance: CbcInstance, penalty: float = PENALTY) -> Instance:
    """Encode bodies as hitting costs: 0 inside, a large penalty outside."""

    def hit(body: ConvexBody) -> HittingCost:
        anchor = body.project(instance.start)

        def fn(x, _b=body):
            x = np.asarray(x, dtype=float)
            inside = _b.contains_stack(np.atleast_2d(x))
            values = np.where(inside, 0.0, penalty)
            return values[0] if x.ndim == 1 else values

        return HittingCost(fn, anchor, 0.0, None, "indicator", {"variant": body.variant})

    hitting = tuple(hit(b) for b in instance.bodies)
    return Instance(instance.dim, len(hitting), instance.start, hitting,
                    instance.movement, lam=None, family_tag="indicator")


def cbc_opt_grid(instance: CbcInstance, grid: Grid) -> OracleResult:
    """Brute-force chasing optimum via the indicator encoding on a lattice."""
    return offline_optimal_grid(cbc_to_indicator_instance(instance), grid)


def cbc_to_spec(instance: CbcInstance) -> dict:
    """Serialize a chasing instance as a JSON body list."""
    bodies = []
    for body in instance.bodies:
        entry = {"variant": body.variant}
        for key, value in body.data.items():
            if key == "cost":
                entry.update(cost_to_spec(value))
            else:
                entry[key] = value.tolist() if isinstance(value, np.ndarray) else value
        bodies.append(entry)
    return {
        "dim": instance.dim,
        "start": instance.start.tolist(),
        "movement": {"kind": instance.movement.kind, "params": {}},
        "bodies": bodies,
    }


def cbc_from_spec(spec: dict) -> CbcInstance:
    """Rebuild a chasing instance from its JSON body list."""
    dim = int(spec["dim"])
    bodies = []
    for entry in spec["bodies"]:
        variant = entry["variant"]
        if variant == "interval":
            bodies.append(interval(entry["lo"][0] if isinstance(entry["lo"], list)
                                   else entry["lo"],
                                   entry["hi"][0] if isinstance(entry["hi"], list)
                                   else entry["hi"]))
        elif variant == "box":
            bodies.append(box(entry["lo"], entry["hi"]))
        elif variant == "ball":
            bodies.append(ball(entry["center"], entry["r"]))
        elif variant == "halfspace":
            bodies.append(halfspace(entry["a"], entry["b"]))
        elif variant == "hyperplane":
            bodies.append(hyperplane(entry["a"], entry["b"]))
        elif variant == "zero_plane":
            bodies.append(zero_plane(dim))
        elif variant == "epigraph":
            bodies.append(epigraph(cost_from_spec(entry), dim))
        else:
            raise ValueError(f"unknown body variant {variant!r}")
    return CbcInstance(dim, np.asarray(spec["start"], dtype=float), tuple(bodies),
                       movement_cost(spec["movement"]["kind"]))


def cbc_interval_opt(instance: CbcInstance) -> float:
    """Exact chasing optimum for 1-D interval sequences.

    Carries the interval of cost-minimal positions forward; moving cost
    accrues only when the current interval and the next body are disjoint.
    """
    if instance.dim != 1:
        raise ValueError("interval oracle is 1-D only")
    lo = hi = float(instance.start[0])
    total = 0.0
    for body in instance.bodies:
        if body.variant not in ("interval", "box"):
            raise ValueError("interval oracle needs interval bodies")
        blo, bhi = float(body.data["lo"][0]), float(body.data["hi"][0])
        if bhi < lo:
            total += lo - bhi
            lo = hi = bhi
        elif blo > hi:
            total += blo - hi
            lo = hi = blo
        else:
            lo, hi = max(lo, blo), min(hi, bhi)
    return total

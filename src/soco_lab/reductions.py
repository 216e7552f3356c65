"""Body chasing: projection-oracle bodies, duplication, epigraph embedding.

A body-chasing instance reveals one closed convex set per round; the agent
must end the round inside it and pays only movement (a norm).  This module
provides the two constructions that tie body chasing to hitting-cost
optimization: duplicating each body w times (so a window-w algorithm can be
replayed without predictions), and lifting each hitting cost to its
epigraph in one extra dimension, alternated with the zero plane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from .model import (
    PENALTY,
    HittingCost,
    Instance,
    MovementCost,
    Point,
    as_point,
)
from .windows import Grid
from .oracle import OracleResult, offline_optimal_grid


class ProjectionError(RuntimeError):
    """A body projection solver failed to converge."""


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
        """Euclidean projection onto the body (approximate for epigraphs)."""
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
    """The set {(x, y) : y >= f(x)} in dimension dim = d + 1."""
    return ConvexBody("epigraph", dim, {"cost": cost})


def _project_epigraph(cost: HittingCost, p: np.ndarray) -> Point:
    """Squared-distance projection onto an epigraph boundary.

    Scaled-abs costs get the exact wedge formula; otherwise a coarse scan
    plus a local polish, which is enough for desk-scale accuracy because
    every downstream inequality is re-verified at the produced points.
    """
    x0, q = p[:-1], float(p[-1])
    if cost.family_tag == "polyhedral" and x0.shape[0] == 1 and cost.params.get("p", 2) in (1, 2):
        alpha = cost.params["alpha"]
        v = float(cost.minimizer[0])
        u = float(x0[0]) - v
        sign = 1.0 if u >= 0 else -1.0
        u *= sign
        t = (u + alpha * q) / (1.0 + alpha * alpha)
        if t <= 0:
            return as_point([v, 0.0])
        return as_point([v + sign * t, alpha * t])

    d = x0.shape[0]
    if d == 1:
        v = float(cost.minimizer[0])
        radius = abs(float(x0[0]) - v) + abs(q) + 1.0

        def sqdist(x):
            return (x - float(x0[0])) ** 2 + (cost([x]) - q) ** 2

        xs = np.linspace(v - radius, v + radius, 201)
        best = xs[int(np.argmin([sqdist(x) for x in xs]))]
        h = radius / 100.0
        res = minimize_scalar(sqdist, bounds=(best - h, best + h), method="bounded",
                              options={"xatol": 1e-12})
        xstar = float(res.x)
        return as_point([xstar, cost([xstar])])

    def sqdist(x):
        return float(((x - x0) ** 2).sum() + (cost(x) - q) ** 2)

    spread = float(np.abs(x0 - cost.minimizer).max()) + abs(q) + 1.0
    axes = [np.linspace(c - spread, c + spread, 21) for c in cost.minimizer]
    mesh = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    seed = mesh[int(np.argmin([sqdist(x) for x in mesh]))]
    res = minimize(sqdist, seed, method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 5000})
    if not res.success and res.fun > sqdist(seed) + 1e-9:
        raise ProjectionError("epigraph projection polish failed")
    x = np.asarray(res.x, dtype=float)
    return as_point(np.concatenate([x, [cost(x)]]))


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
    if instance.family_tag == "ripple":
        raise ValueError("epigraph reduction needs convex hitting costs")
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
                cost: HittingCost = value
                if cost.family_tag not in ("polyhedral", "strongly_convex"):
                    raise ValueError("only analytic-family epigraphs serialize")
                entry["family"] = cost.family_tag
                entry["params"] = {k: float(v) for k, v in cost.params.items()}
                entry["minimizer"] = cost.minimizer.tolist()
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
    from .model import movement_cost
    from .families import make_polyhedral, make_strongly_convex

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
            path = [entry["minimizer"]]
            if entry["family"] == "polyhedral":
                inst = make_polyhedral(entry["params"]["alpha"], path,
                                       p=int(entry["params"].get("p", 2)))
            else:
                inst = make_strongly_convex(entry["params"]["m"], path)
            bodies.append(epigraph(inst.hitting[0], dim))
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

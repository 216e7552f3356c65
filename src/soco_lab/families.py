"""Analytic hitting/movement families with exact growth and triangle constants.

Each constructor returns a complete :class:`Instance` whose minimizers,
``lam`` (order-of-growth constant), movement ``eta``, and convexifier bound
are exact in closed form, so every bound check can use known constants.

  polyhedral(alpha, p):  f_t(x) = alpha * ||x - v_t||_p, lp movement,
                         eta = 1, lam = alpha / 2.
  strongly_convex(m):    f_t(x) = (m/2) ||x - v_t||_2^2, half-squared-l2
                         movement, eta = 2, lam = m / 2.
  glb(e0, beta, mu):     f_t(x) = e0.x + sum_s mu_s |x_s - v_{t,s}| on the
                         nonnegative orthant, ramp movement beta.(x - y)^+,
                         eta = 1, lam = min_s e0_s / (2 beta_s).
  ripple(m, eps, k):     f_t(x) = (m/2)||x - v_t||^2
                         + eps * sum_i (1 - cos(k (x_i - v_{t,i}))),
                         non-convex when eps k^2 > m, exact convexifier
                         bound max(0, eps k^2 - m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    PENALTY,
    HittingCost,
    Instance,
    as_point,
    movement_cost,
    norm_movement,
)


class EstimationError(RuntimeError):
    """Raised when constant estimation has no usable samples."""


@dataclass(frozen=True)
class Polyhedral:
    alpha: float
    p: int = 2


@dataclass(frozen=True)
class StronglyConvex:
    m: float


@dataclass(frozen=True)
class Glb:
    e0: tuple
    beta: tuple
    mu: tuple


@dataclass(frozen=True)
class Ripple:
    m: float
    eps: float
    k: float


FamilyParams = Polyhedral | StronglyConvex | Glb | Ripple


def _as_path(path, dim: int | None = None) -> np.ndarray:
    pts = np.asarray(path, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("minimizer path must be a nonempty (T, d) array")
    if dim is not None and pts.shape[1] != dim:
        raise ValueError(f"path dimension {pts.shape[1]} != {dim}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("minimizer path has non-finite entries")
    return pts


def _default_start(dim: int) -> np.ndarray:
    return np.zeros(dim)


def _hitting(hit, formula, pts: np.ndarray, separable: bool) -> tuple[HittingCost, ...]:
    """``hit(v, sel, f, axes)`` per minimizer v, ``sel`` selecting coordinates
    of the family's parameters and ``f = formula(sel)`` the family's f(x, v)
    on them, built once per selection so that the T costs share it.  In
    d >= 2 a separable cost carries its d 1-D costs, built once so lattice
    tables keyed by cost objects stay valid."""
    d, whole = pts.shape[1], slice(None)
    f = formula(whole)
    if d == 1 or not separable:
        return tuple(hit(v, whole, f, None) for v in pts)
    per_axis = [(slice(j, j + 1), formula(slice(j, j + 1))) for j in range(d)]
    return tuple(hit(v, whole, f, tuple(hit(v[sel], sel, fj, None) for sel, fj in per_axis))
                 for v in pts)


def _cost(f, v, *args) -> HittingCost:
    """The cost f(., v), carrying f as its formula; ``args`` are the
    ``HittingCost`` fields from ``min_value`` to ``axes``."""
    v = as_point(v)
    return HittingCost(lambda x: f(np.asarray(x, dtype=float), v), v, *args, formula=f)


def make_polyhedral(alpha: float, path, p: int = 2, start=None) -> Instance:
    """Scaled-norm hitting costs with lp movement; eta = 1, lam = alpha/2."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    pts = _as_path(path)
    d = pts.shape[1]
    movement = norm_movement(p)

    def formula(sel):
        def f(x, v):
            diff = x - v
            if p == 1:
                r = np.abs(diff).sum(axis=-1)
            elif p == 2:
                r = np.sqrt((diff * diff).sum(axis=-1))
            else:
                r = np.abs(diff).max(axis=-1)
            return alpha * r
        return f

    def hit(v, sel, f, axes):
        return _cost(f, v, 0.0, None, "polyhedral", {"alpha": alpha, "p": p}, axes)

    hitting = _hitting(hit, formula, pts, separable=p == 1)
    start = _default_start(d) if start is None else start
    return Instance(d, len(hitting), start, hitting, movement,
                    lam=alpha / 2.0, family_tag="polyhedral")


def make_strongly_convex(m: float, path, start=None) -> Instance:
    """Quadratic hitting costs with half-squared-l2 movement; eta = 2, lam = m/2."""
    if m <= 0:
        raise ValueError("m must be positive")
    pts = _as_path(path)
    d = pts.shape[1]

    def formula(sel):
        def f(x, v):
            diff = x - v
            return 0.5 * m * (diff * diff).sum(axis=-1)
        return f

    def hit(v, sel, f, axes):
        return _cost(f, v, 0.0, 0.0, "strongly_convex", {"m": m}, axes)

    hitting = _hitting(hit, formula, pts, separable=True)
    start = _default_start(d) if start is None else start
    return Instance(d, len(hitting), start, hitting, movement_cost("sq_l2_half"),
                    lam=m / 2.0, family_tag="strongly_convex")


def make_glb(e0, beta, mu, path, start=None) -> Instance:
    """Server-dispatch costs on the nonnegative orthant with ramp movement.

    Requires mu > e0 componentwise so the minimizer stays exactly at v_t;
    points outside the orthant get a large finite penalty so grids stay
    in float arithmetic.  Movement is asymmetric: only increases cost.
    On the orthant the cost is a sum of per-coordinate costs.
    """
    e0 = np.atleast_1d(np.asarray(e0, dtype=float))
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    d = e0.shape[0]
    if beta.shape != (d,) or mu.shape != (d,):
        raise ValueError("e0, beta, mu must share one dimension")
    if np.any(e0 <= 0) or np.any(beta <= 0):
        raise ValueError("e0 and beta must be positive componentwise")
    if np.any(mu <= e0):
        raise ValueError("mu must exceed e0 componentwise (minimizer would shift)")
    pts = _as_path(path, d)
    if np.any(pts < 0):
        raise ValueError("glb minimizer path must be componentwise nonnegative")

    def formula(sel):
        e, u = e0[sel], mu[sel]

        def f(x, v):
            val = (e * x).sum(axis=-1) + (u * np.abs(x - v)).sum(axis=-1)
            feasible = (x >= -1e-12).all(axis=-1)
            return np.where(feasible, val, PENALTY)
        return f

    def hit(v, sel, f, axes):
        e = e0[sel]
        return _cost(f, v, float((e * v).sum()), None, "glb",
                     {"e0": e, "beta": beta[sel], "mu": mu[sel]}, axes)

    hitting = _hitting(hit, formula, pts, separable=True)
    start = _default_start(d) if start is None else start
    start = np.asarray(start, dtype=float)
    if np.any(start < 0):
        raise ValueError("glb start point must be in the nonnegative orthant")
    lam = 0.5 * float(np.min(e0 / beta))
    return Instance(d, len(hitting), start, hitting,
                    movement_cost("rectified_linear", beta=beta),
                    lam=lam, family_tag="glb")


def make_ripple(m: float, eps: float, k: float, path, start=None) -> Instance:
    """Quadratic-plus-cosine hitting costs; non-convex when eps * k^2 > m.

    Both terms are minimized exactly at v_t, lam = m/2 carries over from the
    quadratic part, and f(x) + (alpha/2)||x||^2 is convex for
    alpha = max(0, eps k^2 - m).
    """
    if m < 0 or eps < 0 or k <= 0:
        raise ValueError("need m >= 0, eps >= 0, k > 0")
    pts = _as_path(path)
    d = pts.shape[1]
    alpha = max(0.0, eps * k * k - m)

    def formula(sel):
        def f(x, v):
            diff = x - v
            quad = 0.5 * m * (diff * diff).sum(axis=-1)
            wave = eps * (1.0 - np.cos(k * diff)).sum(axis=-1)
            return quad + wave
        return f

    def hit(v, sel, f, axes):
        return _cost(f, v, 0.0, alpha, "ripple", {"m": m, "eps": eps, "k": k}, axes)

    hitting = _hitting(hit, formula, pts, separable=True)
    start = _default_start(d) if start is None else start
    return Instance(d, len(hitting), start, hitting, movement_cost("sq_l2_half"),
                    lam=m / 2.0 if m > 0 else 0.0, family_tag="ripple")


#: Family name -> (parameter dataclass, constructor).  The constructor takes
#: the dataclass fields as keywords, plus ``path`` and ``start``.
FAMILIES = {
    "polyhedral": (Polyhedral, make_polyhedral),
    "strongly_convex": (StronglyConvex, make_strongly_convex),
    "glb": (Glb, make_glb),
    "ripple": (Ripple, make_ripple),
}


def make_instance(family: FamilyParams, path, start=None) -> Instance:
    """Dispatch on a family-params dataclass."""
    for params_cls, make in FAMILIES.values():
        if type(family) is params_cls:
            return make(path=path, start=start, **vars(family))
    raise ValueError(f"unknown family params {family!r}")


def estimate_condition_constants(instance: Instance, domain_radius: float,
                                 samples: int, rng: np.random.Generator,
                                 ) -> tuple[float, float]:
    """Empirical (lam_hat, eta_hat) from random sampling.

    lam_hat is the smallest sampled ratio f_t(x) / (c(x, v_t) + c(v_t, x));
    eta_hat the largest sampled ratio c(x, z) / (c(x, y) + c(y, z)).
    Midpoint triples y = (x + z)/2 are always included, which makes eta_hat
    exact for every built-in movement kind.  Ratios with denominators below
    1e-12 are skipped; if everything is skipped, estimation fails.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if domain_radius <= 0:
        raise ValueError("domain_radius must be positive")
    d, c = instance.dim, instance.movement
    clip_orthant = instance.family_tag == "glb"

    lam_hat = np.inf
    t_idx = rng.integers(0, instance.horizon, size=samples)
    offsets = rng.uniform(-domain_radius, domain_radius, size=(samples, d))
    for t, off in zip(t_idx, offsets):
        cost = instance.hitting[t]
        v = cost.minimizer
        x = v + off
        if clip_orthant:
            x = np.maximum(x, 0.0)
        denom = c(x, v) + c(v, x)
        if denom < 1e-12:
            continue
        lam_hat = min(lam_hat, (cost(x) - cost.min_value) / denom)

    eta_hat = 0.0
    anchor = instance.minimizers().mean(axis=0)
    triples = anchor + rng.uniform(-domain_radius, domain_radius, size=(samples, 3, d))
    if clip_orthant:
        triples = np.maximum(triples, 0.0)
    used = False
    for x, y, z in triples:
        for mid in (y, 0.5 * (x + z)):
            denom = c(x, mid) + c(mid, z)
            if denom < 1e-12:
                continue
            used = True
            eta_hat = max(eta_hat, c(x, z) / denom)

    if not np.isfinite(lam_hat) or not used:
        raise EstimationError("all sampled ratios had near-zero denominators")
    return float(lam_hat), float(eta_hat)


# ---------------------------------------------------------------------------
# JSON instance schema.  Field names here are normative for the CLI:
# {"dim": int, "T": int, "x0": [...], "movement": {"kind": ..., "params": {...}},
#  "hitting": {"family": ..., "params": {...}, "minimizers": [[...], ...]}}
# ---------------------------------------------------------------------------

def instance_to_spec(instance: Instance) -> dict:
    """Serialize an analytic-family instance to the JSON schema."""
    if instance.family_tag not in FAMILIES:
        raise ValueError(f"cannot serialize family {instance.family_tag!r}")
    params = {k: (v.tolist() if isinstance(v, np.ndarray) else v)
              for k, v in instance.hitting[0].params.items()}
    mv_params = {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                 for k, v in instance.movement.params.items()}
    return {
        "dim": instance.dim,
        "T": instance.horizon,
        "x0": instance.start.tolist(),
        "movement": {"kind": instance.movement.kind, "params": mv_params},
        "hitting": {
            "family": instance.family_tag,
            "params": params,
            "minimizers": instance.minimizers().tolist(),
        },
    }


def instance_from_spec(spec: dict) -> Instance:
    """Rebuild an instance from the JSON schema (inverse of instance_to_spec)."""
    family = spec["hitting"]["family"]
    params = spec["hitting"]["params"]
    path = np.asarray(spec["hitting"]["minimizers"], dtype=float)
    start = np.asarray(spec["x0"], dtype=float)
    if path.shape != (spec["T"], spec["dim"]):
        raise ValueError("minimizers must have shape (T, dim)")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    inst = FAMILIES[family][1](path=path, start=start, **params)
    declared = spec["movement"]["kind"]
    if declared != inst.movement.kind:
        raise ValueError(
            f"movement kind {declared!r} does not match family default "
            f"{inst.movement.kind!r}")
    return inst

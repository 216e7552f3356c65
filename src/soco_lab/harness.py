"""Batch experiment runner with bit-stable output.

A config names instances (fixed or generated), algorithms with window
ranges, seeds, an oracle, and the bound checks to assert.  Each
(instance, algorithm, w, seed) combination becomes one result row; rows
are computed by a worker pool but always emitted in config order, and all
randomness is derived from the row key, so adding an algorithm never
perturbs existing rows and reruns are byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import algorithms as algs
from .families import (
    Glb,
    Polyhedral,
    Ripple,
    StronglyConvex,
    instance_from_spec,
)
from .adversary import Constant, RandomWalk, Spikes, generate_oblivious_instance
from .model import Instance, competitive_ratio
from .oracle import offline_optimal_grid, offline_optimal_quadratic
from .windows import Grid, WindowSolver, default_grid


def splitmix64(x: int) -> int:
    """One splitmix64 step; the documented seed-expansion primitive."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def _fnv1a(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode():
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def derive_seed(master: int, *parts) -> int:
    """Stable per-row seed: splitmix64 over the hashed row key."""
    return splitmix64((master ^ _fnv1a("|".join(str(p) for p in parts)))
                      & 0xFFFFFFFFFFFFFFFF)


# ---------------------------------------------------------------------------
# Bound registry
# ---------------------------------------------------------------------------

def _eta_lam(instance: Instance) -> tuple[float, float]:
    if instance.lam is None or instance.lam <= 0:
        raise ValueError("bound checks need a positive declared growth constant")
    return instance.movement.eta, instance.lam


def greedy_bound(instance: Instance, w: int) -> float:
    eta, lam = _eta_lam(instance)
    return max(1.0 + (eta + eta * eta) / (2.0 * lam), eta * eta)


def prediction_bound(instance: Instance, w: int) -> float:
    if w < 2:
        raise ValueError("prediction bound needs w >= 2")
    eta, lam = _eta_lam(instance)
    return 1.0 + (1.0 / w) * max(eta / lam, 2.0 * (eta - 1.0))


def convexifiable_bound(instance: Instance, w: int) -> float:
    if instance.movement.kind != "sq_l2_half":
        raise ValueError("convexifiable bound needs sq_l2_half movement")
    alpha = instance.hitting[0].convexifier_bound
    if alpha is None:
        raise ValueError("instance has no convexifier bound")
    _, lam = _eta_lam(instance)
    return (1.0 + alpha / lam) * (1.0 + (1.0 / w) * max(2.0 / lam, 2.0))


def semi_adaptive_bound(instance: Instance, w: int) -> float:
    if w < 4:
        raise ValueError("semi-adaptive bound needs w >= 4")
    eta, lam = _eta_lam(instance)
    return 1.0 + (2.0 / (w - 2.0)) * max(eta / lam, 2.0 * (eta - 1.0))


#: name -> (bound fn, cost kind, applicability predicate on (algorithm, w))
BOUNDS = {
    "greedy_bound": (greedy_bound, "algorithm",
                     lambda a, w: w == 1),
    "prediction_bound": (prediction_bound, "algorithm",
                         lambda a, w: w >= 2 and a in ("dsfhc", "sfhc")),
    "subroutine_average_bound": (prediction_bound, "subroutine_mean",
                                 lambda a, w: w >= 2 and a in ("dsfhc", "rsfhc-a")),
    "rsfhc_a_expected_bound": (prediction_bound, "subroutine_mean",
                               lambda a, w: w >= 2 and a == "rsfhc-a"),
    "convexifiable_bound": (convexifiable_bound, "algorithm",
                            lambda a, w: w >= 2 and a == "dsfhc"),
    "semi_adaptive_bound": (semi_adaptive_bound, "algorithm",
                            lambda a, w: w >= 4 and a == "rsfhc-b"),
}

CSV_HEADER = ("instance_id,algorithm,w,seed,cost,opt_cost,ratio,"
              "bound_value,within_bound,tolerance_budget")


@dataclass(frozen=True)
class ResultRow:
    instance_id: str
    algorithm: str
    w: int
    seed: int
    cost: float
    opt_cost: float
    ratio: float
    bound_value: float
    within_bound: bool
    tolerance_budget: float
    error: str = ""


@dataclass
class ExperimentConfig:
    instances: list
    algorithms: list
    seeds: list[int]
    oracle: dict = field(default_factory=dict)
    checks: list[str] = field(default_factory=list)
    output: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        seeds = raw.get("seeds", [0])
        if isinstance(seeds, dict):
            master = int(seeds.get("master", 0))
            seeds = [derive_seed(master, "seed", i) % (2 ** 31)
                     for i in range(int(seeds["count"]))]
        checks = list(raw.get("checks", []))
        for name in checks:
            if name not in BOUNDS:
                raise ValueError(
                    f"unknown bound check {name!r}; registered: {sorted(BOUNDS)}")
        for spec in raw.get("algorithms", []):
            if spec["name"] not in ("greedy", "sfhc", "dsfhc", "rsfhc-a",
                                    "rsfhc-b", "afhc"):
                raise ValueError(f"unknown algorithm {spec['name']!r}")
        return cls(list(raw.get("instances", [])), list(raw.get("algorithms", [])),
                   [int(s) for s in seeds], dict(raw.get("oracle", {})),
                   checks, dict(raw.get("output", {})))


_PATHS = {"random_walk": RandomWalk, "spikes": Spikes, "constant": Constant}
_FAMILIES = {"polyhedral": Polyhedral, "strongly_convex": StronglyConvex,
             "glb": Glb, "ripple": Ripple}


def _build_instance(spec: dict, seed: int) -> tuple[str, Instance]:
    instance_id = spec.get("id") or spec.get("name") or "instance"
    if "instance" in spec:
        return instance_id, instance_from_spec(spec["instance"])
    gen = spec["generate"]
    fam_cls = _FAMILIES[gen["family"]]
    fam_params = gen.get("params", {})
    family = fam_cls(**{k: (tuple(v) if isinstance(v, list) else v)
                        for k, v in fam_params.items()})
    path_spec = dict(gen.get("path", {"model": "random_walk"}))
    model_name = path_spec.pop("model")
    path_model = _PATHS[model_name](**path_spec)
    rng = np.random.default_rng(derive_seed(seed, "instance", instance_id))
    grid = None
    if gen.get("snap_to_grid"):
        g = gen["snap_to_grid"]
        grid = Grid.make(g["lo"], g["hi"], g["n"], dim=int(gen.get("d", 1)))
    return instance_id, generate_oblivious_instance(
        family, path_model, int(gen["T"]), int(gen.get("d", 1)), rng, grid=grid)


def _run_algorithm(name: str, instance: Instance, w: int, phase: int,
                   seed: int, solver: WindowSolver, cost_kind: str) -> float:
    if cost_kind == "subroutine_mean":
        return algs.rsfhc_a_expected_cost(instance, w, solver)
    if name == "greedy":
        return algs.run_greedy(instance).total
    if name == "sfhc":
        return algs.run_sfhc(instance, w, phase, solver).total
    if name == "dsfhc":
        return algs.run_dsfhc(instance, w, solver).total
    if name == "rsfhc-a":
        rng = np.random.default_rng(derive_seed(seed, "rsfhc-a", w))
        return algs.run_rsfhc_a(instance, w, rng, solver).total
    if name == "rsfhc-b":
        rng = np.random.default_rng(derive_seed(seed, "rsfhc-b", w))
        return algs.run_rsfhc_b(instance, w, rng, solver).total
    if name == "afhc":
        return algs.run_afhc(instance, w, solver).total
    raise ValueError(f"unknown algorithm {name!r}")


def _oracle_cost(instance: Instance, oracle_spec: dict,
                 grid: Grid | None) -> tuple[float, bool]:
    """(opt cost, used_grid flag)."""
    method = oracle_spec.get("method", "auto")
    if method == "exact_quadratic":
        return offline_optimal_quadratic(instance).cost, False
    if method == "grid":
        return offline_optimal_grid(instance, grid).cost, True
    if instance.family_tag == "strongly_convex":
        return offline_optimal_quadratic(instance).cost, False
    return offline_optimal_grid(instance, grid).cost, True


def _grid_lipschitz(instance: Instance, grid: Grid) -> float:
    """Crude per-step slope bound on the grid box, for budget reporting."""
    width = float((np.asarray(grid.hi) - np.asarray(grid.lo)).max())
    tag = instance.family_tag
    params = instance.hitting[0].params
    if tag == "polyhedral":
        per_step = params["alpha"] + 2.0
    elif tag in ("strongly_convex", "ripple"):
        per_step = params["m"] * width + params.get("eps", 0.0) * params.get("k", 0.0) \
            + 2.0 * width
    elif tag == "glb":
        per_step = float(np.sum(params["e0"]) + np.sum(params["mu"])
                         + 2.0 * np.sum(params["beta"]))
    else:
        per_step = 2.0 * width
    return instance.horizon * per_step


def _select_check(checks, algorithm: str, w: int):
    for name in checks:
        fn, kind, applies = BOUNDS[name]
        if applies(algorithm, w):
            return fn, kind
    return None, "algorithm"


def _compute_row(task, config: ExperimentConfig) -> ResultRow:
    inst_spec, algo_spec, w, seed = task
    algorithm = algo_spec["name"]
    try:
        instance_id, instance = _build_instance(inst_spec, seed)
        grid = None
        if config.oracle.get("grid"):
            g = config.oracle["grid"]
            grid = Grid.make(g["lo"], g["hi"], g["n"], dim=instance.dim)
        elif instance.dim <= 2:
            grid = default_grid(instance)
        solver = WindowSolver(grid)
        bound_fn, cost_kind = _select_check(config.checks, algorithm, w)
        cost = _run_algorithm(algorithm, instance, w, int(algo_spec.get("phase", 0)),
                              seed, solver, cost_kind)
        opt, used_grid = _oracle_cost(instance, config.oracle, grid)
        report = competitive_ratio(cost, opt)
        budget = 1e-8
        if used_grid and grid is not None:
            snap = max(grid.snap(h.minimizer)[1] for h in instance.hitting)
            snap = max(snap, grid.snap(instance.start)[1])
            if snap > 0:
                budget += snap * _grid_lipschitz(instance, grid) / max(opt, 1e-12)
        if bound_fn is None:
            bound_value, within = math.inf, True
        else:
            bound_value = bound_fn(instance, w)
            within = bool(report.ratio <= bound_value + budget)
        return ResultRow(instance_id, algorithm, w, seed, cost, opt,
                         report.ratio, bound_value, within, budget)
    except Exception as exc:  # per-run failures stay in-row
        return ResultRow(inst_spec.get("id", "instance"), algorithm, w, seed,
                         math.nan, math.nan, math.nan, math.nan, False, math.nan,
                         error=f"{type(exc).__name__}: {exc}")


def _tasks(config: ExperimentConfig):
    for inst_spec in config.instances:
        for algo_spec in config.algorithms:
            ws = algo_spec.get("w", [1])
            ws = ws if isinstance(ws, list) else [ws]
            for w in ws:
                for seed in config.seeds:
                    yield (inst_spec, algo_spec, int(w), int(seed))


def run_suite(config: ExperimentConfig) -> tuple[list[ResultRow], dict]:
    """Execute every row; returns (rows in config order, summary)."""
    tasks = list(_tasks(config))
    threads = int(os.environ.get("SOCO_LAB_THREADS", "1"))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(lambda t: _compute_row(t, config), tasks))
    else:
        rows = [_compute_row(t, config) for t in tasks]

    by_algo: dict[str, dict] = {}
    for row in rows:
        key = f"{row.algorithm}/w={row.w}"
        slot = by_algo.setdefault(key, {"max_ratio": -math.inf, "min_margin": math.inf,
                                        "rows": 0, "failures": 0})
        slot["rows"] += 1
        if row.error:
            slot["failures"] += 1
            continue
        slot["max_ratio"] = max(slot["max_ratio"], row.ratio)
        if math.isfinite(row.bound_value):
            slot["min_margin"] = min(slot["min_margin"],
                                     row.bound_value + row.tolerance_budget - row.ratio)
    summary = {
        "rows": len(rows),
        "failures": sum(1 for r in rows if r.error),
        "errors": {f"{r.instance_id}/{r.algorithm}/w={r.w}/seed={r.seed}": r.error
                   for r in rows if r.error},
        "all_within_bounds": all(r.within_bound for r in rows),
        "by_algorithm": {k: {kk: (None if isinstance(vv, float) and not math.isfinite(vv)
                                  else vv) for kk, vv in v.items()}
                         for k, v in sorted(by_algo.items())},
    }
    return rows, summary


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return format(x, ".12g")
    return str(x)


def rows_to_csv(rows: list[ResultRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for r in rows:
        writer.writerow([r.instance_id, r.algorithm, _fmt(r.w), _fmt(r.seed),
                         _fmt(r.cost), _fmt(r.opt_cost), _fmt(r.ratio),
                         _fmt(r.bound_value), _fmt(r.within_bound),
                         _fmt(r.tolerance_budget)])
    return buf.getvalue()


def rows_to_json(rows: list[ResultRow]) -> str:
    payload = [{
        "instance_id": r.instance_id, "algorithm": r.algorithm, "w": r.w,
        "seed": r.seed, "cost": _fmt(r.cost), "opt_cost": _fmt(r.opt_cost),
        "ratio": _fmt(r.ratio), "bound_value": _fmt(r.bound_value),
        "within_bound": r.within_bound, "tolerance_budget": _fmt(r.tolerance_budget),
        "error": r.error,
    } for r in rows]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def sweep_and_report(config: ExperimentConfig, out_path: str,
                     fmt: str = "csv") -> tuple[list[ResultRow], dict]:
    """Run the suite and write the rows file plus a JSON summary next to it."""
    rows, summary = run_suite(config)
    text = rows_to_csv(rows) if fmt == "csv" else rows_to_json(rows)
    with open(out_path, "w") as fh:
        fh.write(text)
    root, _ = os.path.splitext(out_path)
    with open(root + ".summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return rows, summary

"""Batch experiment runner with bit-stable output.

A config names instances (fixed or generated), algorithms with window
ranges, seeds, an oracle, and the bound checks to assert.  Each
(instance, algorithm, w, seed) combination becomes one result row; rows
are computed one after another in config order, and all randomness is
derived from the row key, so adding an algorithm never perturbs existing
rows and reruns are byte-identical.  The rows of one (instance, seed)
share its built instance, lattice, window solver and offline optimum.

``ExperimentConfig.from_dict`` takes only the keys the harness reads (the
README's "Experiment config" lists them): any other key, a missing
required key or an unknown family, path model, algorithm, bound check or
oracle method raises ValueError naming it and where it sits.  Families
are named in ``families.FAMILIES``, algorithms in ``ALGORITHMS``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import algorithms as algs
from .families import FAMILIES, instance_from_spec
from .adversary import Constant, RandomWalk, Spikes, generate_oblivious_instance
from .model import Instance, competitive_ratio
from .oracle import ORACLE_METHODS, offline_optimal
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


#: name -> (bound fn, cost kind, applicability predicate on (algorithm, w)).
#: The paper bounds one phase subroutine only on average over the w phases
#: (``subroutine_average_bound``), so a single ``sfhc`` phase is not checked.
BOUNDS = {
    "greedy_bound": (greedy_bound, "algorithm",
                     lambda a, w: w == 1),
    "prediction_bound": (prediction_bound, "algorithm",
                         lambda a, w: w >= 2 and a == "dsfhc"),
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


def _rng(seed: int, algorithm: str, w: int) -> np.random.Generator:
    return np.random.default_rng(derive_seed(seed, algorithm, w))


#: name -> the run of that algorithm on (instance, w, seed, solver).  The
#: randomized runs draw from a generator keyed by (seed, name, w).
ALGORITHMS = {
    "greedy": lambda inst, w, seed, solver: algs.run_greedy(inst),
    "sfhc": lambda inst, w, seed, solver: algs.run_sfhc(inst, w, 0, solver),
    "dsfhc": lambda inst, w, seed, solver: algs.run_dsfhc(inst, w, solver),
    "rsfhc-a": lambda inst, w, seed, solver: algs.run_rsfhc_a(
        inst, w, _rng(seed, "rsfhc-a", w), solver),
    "rsfhc-b": lambda inst, w, seed, solver: algs.run_rsfhc_b(
        inst, w, _rng(seed, "rsfhc-b", w), solver),
    "afhc": lambda inst, w, seed, solver: algs.run_afhc(inst, w, solver),
}

_PATHS = {"random_walk": RandomWalk, "spikes": Spikes, "constant": Constant}


def _keys(obj, where: str, allowed=None, required=()) -> dict:
    """``obj`` itself, once it is checked to be a dict that holds every key
    in ``required`` and, unless ``allowed`` is None, no key outside it."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, not {type(obj).__name__}")
    for key in required:
        if key not in obj:
            raise ValueError(f"missing required key {key!r} in {where}")
    for key in obj if allowed is not None else ():
        if key not in allowed:
            raise ValueError(f"unknown key {key!r} in {where}; "
                             f"accepted: {', '.join(allowed)}")
    return obj


def _fields(obj, where: str, params_cls, *extra: str) -> dict:
    """``_keys`` for the fields of a parameter dataclass, plus ``extra``."""
    return _keys(obj, where, (*extra, *(f.name for f in fields(params_cls))),
                 (*extra, *(f.name for f in fields(params_cls) if f.default is MISSING)))


def _known(name, table, what: str, where: str):
    if name not in table:
        raise ValueError(f"unknown {what} {name!r} in {where}; "
                         f"expected one of {sorted(table)}")


def _check_instance_spec(spec, where: str):
    """A spec holds an ``id`` and either an inline ``instance`` (the JSON
    instance schema) or a ``generate`` block."""
    _keys(spec, where, ("id", "generate", "instance"))
    if ("generate" in spec) == ("instance" in spec):
        raise ValueError(f"{where} needs exactly one of 'generate' and 'instance'")
    if "generate" not in spec:
        return
    where += ".generate"
    gen = _keys(spec["generate"], where, ("family", "params", "T", "d", "path"),
                ("family", "T"))
    _known(gen["family"], FAMILIES, "family", where)
    _fields(gen.get("params", {}), where + ".params", FAMILIES[gen["family"]][0])
    where += ".path"
    path = _keys(gen.get("path", {"model": "random_walk"}), where, required=("model",))
    _known(path["model"], _PATHS, "path model", where)
    _fields(path, where, _PATHS[path["model"]], "model")


@dataclass
class ExperimentConfig:
    instances: list
    algorithms: list
    seeds: list[int]
    oracle: dict = field(default_factory=dict)
    checks: list[str] = field(default_factory=list)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Check ``raw`` against the schema and expand its seeds.  A key the
        harness does not read, a missing required key or an unknown name
        raises ValueError naming it."""
        _keys(raw, "config", ("instances", "algorithms", "seeds", "oracle", "checks"))
        for i, spec in enumerate(raw.get("instances", [])):
            _check_instance_spec(spec, f"instances[{i}]")
        for i, spec in enumerate(raw.get("algorithms", [])):
            where = f"algorithms[{i}]"
            _keys(spec, where, ("name", "w"), ("name",))
            _known(spec["name"], ALGORITHMS, "algorithm", where)
        seeds = raw.get("seeds", [0])
        if isinstance(seeds, dict):
            _keys(seeds, "seeds", ("master", "count"), ("count",))
            master = int(seeds.get("master", 0))
            seeds = [derive_seed(master, "seed", i) % (2 ** 31)
                     for i in range(int(seeds["count"]))]
        checks = list(raw.get("checks", []))
        for name in checks:
            _known(name, BOUNDS, "bound check", "checks")
        oracle = dict(_keys(raw.get("oracle", {}), "oracle", ("method",)))
        _known(oracle.get("method", "auto"), ORACLE_METHODS, "oracle method", "oracle")
        return cls(list(raw.get("instances", [])), list(raw.get("algorithms", [])),
                   [int(s) for s in seeds], oracle, checks)


def _build_instance(spec: dict, instance_id: str, seed: int) -> Instance:
    if "instance" in spec:
        return instance_from_spec(spec["instance"])
    gen = spec["generate"]
    params_cls, _ = FAMILIES[gen["family"]]
    family = params_cls(**{k: (tuple(v) if isinstance(v, list) else v)
                           for k, v in gen.get("params", {}).items()})
    path_spec = dict(gen.get("path", {"model": "random_walk"}))
    path_model = _PATHS[path_spec.pop("model")](**path_spec)
    rng = np.random.default_rng(derive_seed(seed, "instance", instance_id))
    return generate_oblivious_instance(
        family, path_model, int(gen["T"]), int(gen.get("d", 1)), rng)


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


def _prepare(spec: dict, instance_id: str, seed: int) -> dict:
    """The instance, lattice and window solver shared by the rows of one
    (instance, seed); the offline optimum is added on first use."""
    instance = _build_instance(spec, instance_id, seed)
    grid = default_grid(instance)
    return {"instance": instance, "grid": grid, "solver": WindowSolver(grid)}


def _opt_and_budget(instance: Instance, oracle_spec: dict,
                    grid: Grid) -> tuple[float, float]:
    """Offline optimum, and the ratio's tolerance budget for lattice snapping."""
    res = offline_optimal(instance, grid, oracle_spec.get("method", "auto"))
    if res.method == "exact_quadratic":
        return res.cost, 1e-8
    opt, budget = res.cost, 1e-8
    snap = max(grid.snap(h.minimizer)[1] for h in instance.hitting)
    snap = max(snap, grid.snap(instance.start)[1])
    if snap > 0:
        budget += snap * _grid_lipschitz(instance, grid) / max(opt, 1e-12)
    return opt, budget


def _compute_row(spec: dict, algo_spec: dict, w: int, seed: int,
                 config: ExperimentConfig, prepared: dict) -> ResultRow:
    """One row; ``prepared`` maps seed -> the shared state of this instance."""
    instance_id = spec.get("id") or "instance"
    algorithm = algo_spec["name"]
    try:
        if seed not in prepared:
            prepared[seed] = _prepare(spec, instance_id, seed)
        shared = prepared[seed]
        bound_fn, cost_kind = _select_check(config.checks, algorithm, w)
        if cost_kind == "subroutine_mean":
            cost = algs.rsfhc_a_expected_cost(shared["instance"], w, shared["solver"])
        else:
            cost = ALGORITHMS[algorithm](shared["instance"], w, seed,
                                         shared["solver"]).total
        if "oracle" not in shared:
            try:
                shared["oracle"] = _opt_and_budget(shared["instance"], config.oracle,
                                                   shared["grid"])
            except Exception as exc:  # every row of this (instance, seed) fails alike
                shared["oracle"] = exc
        if isinstance(shared["oracle"], Exception):
            raise shared["oracle"]
        opt, budget = shared["oracle"]
        report = competitive_ratio(cost, opt)
        if bound_fn is None:
            bound_value, within = math.inf, True
        else:
            bound_value = bound_fn(shared["instance"], w)
            within = bool(report.ratio <= bound_value + budget)
        return ResultRow(instance_id, algorithm, w, seed, cost, opt,
                         report.ratio, bound_value, within, budget)
    except Exception as exc:  # per-run failures stay in-row
        return ResultRow(instance_id, algorithm, w, seed,
                         math.nan, math.nan, math.nan, math.nan, False, math.nan,
                         error=f"{type(exc).__name__}: {exc}")


def run_suite(config: ExperimentConfig) -> tuple[list[ResultRow], dict]:
    """Execute every row; returns (rows in config order, summary)."""
    rows = []
    for spec in config.instances:
        prepared: dict = {}
        for algo_spec in config.algorithms:
            ws = algo_spec.get("w", [1])
            for w in (ws if isinstance(ws, list) else [ws]):
                for seed in config.seeds:
                    rows.append(_compute_row(spec, algo_spec, int(w), int(seed),
                                             config, prepared))

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


def format_rows(rows: list[ResultRow], fmt: str = "csv") -> str:
    """The rows file text: CSV with the fixed header, or JSON."""
    return rows_to_csv(rows) if fmt == "csv" else rows_to_json(rows)


def sweep_and_report(config: ExperimentConfig, out_path: str,
                     fmt: str = "csv") -> tuple[list[ResultRow], dict]:
    """Run the suite and write the rows file plus a JSON summary next to it."""
    rows, summary = run_suite(config)
    with open(out_path, "w") as fh:
        fh.write(format_rows(rows, fmt))
    root, _ = os.path.splitext(out_path)
    with open(root + ".summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return rows, summary

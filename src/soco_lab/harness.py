"""Batch experiment runner with bit-stable output.

A config names instances (fixed or generated), algorithms with window
ranges, seeds, an oracle, and the bound checks to assert.  Each
(instance, algorithm, w, seed) combination becomes one result row, and
all randomness is derived from the row key, so adding an algorithm never
perturbs existing rows and reruns are byte-identical.  Rows are returned
in config order.

The rows of one (instance, seed) are computed together, on its built
instance, lattice and window solver (with its stage memo).  Every row's
plan is drawn first (``algorithms.Plan``: the anchor sets of its run, or
of the phase mean its bound check asks for, greedy and ``afhc`` included);
then every run of every row is solved, and every row scored, as one
``algorithms.plan_costs`` call, and the offline optimum is solved last on
the same solver, so its first stages come from the memo.  A row whose plan
cannot be drawn fails alone; if the joint call raises, the plans are
solved one by one, so each row reports its own error.  That
state is dropped before the next seed's, so memory does not grow with the
seed count.

``ExperimentConfig.from_dict`` takes only the keys the harness reads (the
README's "Experiment config" lists them, and the instance schema those of
an inline instance): any other key, a missing required key, an unknown
family, family parameter, path model, algorithm, bound check or oracle
method, a count (``T``, ``d``, ``w``, a seed) that is not a JSON integer
and a greedy ``w`` but 1 raise ValueError naming it and where it sits.
Families are named in ``families.FAMILIES``, algorithms in ``ALGORITHMS``.
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
from .families import FAMILIES, family_of, instance_from_spec
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


#: name -> the plan of that algorithm's run at (w, T, seed).  The
#: randomized plans draw from a generator keyed by (seed, name, w).
PLANS = {
    "greedy": lambda w, T, seed: algs.sfhc_plan(1, 0, T),
    "sfhc": lambda w, T, seed: algs.sfhc_plan(w, 0, T),
    "dsfhc": lambda w, T, seed: algs.dsfhc_plan(w, T),
    "rsfhc-a": lambda w, T, seed: algs.rsfhc_a_plan(w, T, _rng(seed, "rsfhc-a", w)),
    "rsfhc-b": lambda w, T, seed: algs.rsfhc_b_plan(w, T, _rng(seed, "rsfhc-b", w)),
    "afhc": lambda w, T, seed: algs.afhc_plan(w, T),
}

#: The algorithms a config may name.
ALGORITHMS = tuple(PLANS)

_PATHS = {"random_walk": RandomWalk, "spikes": Spikes, "constant": Constant}


def _keys(obj, where: str, allowed=None, required=()) -> dict:
    """``obj`` itself, once it is checked to be a dict that holds, unless
    ``allowed`` is None, no key outside it (a misspelt key is named as
    such) and every key in ``required``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, not {type(obj).__name__}")
    for key in obj if allowed is not None else ():
        if key not in allowed:
            raise ValueError(f"unknown key {key!r} in {where}; "
                             f"accepted: {', '.join(allowed)}")
    for key in required:
        if key not in obj:
            raise ValueError(f"missing required key {key!r} in {where}")
    return obj


def _fields(obj, where: str, params_cls, *extra: str) -> dict:
    """``_keys`` for the fields of a parameter dataclass, plus ``extra``."""
    return _keys(obj, where, (*extra, *(f.name for f in fields(params_cls))),
                 (*extra, *(f.name for f in fields(params_cls) if f.default is MISSING)))


def _integer(value, what: str, least: int | None = None) -> int:
    """``value`` itself, once it is checked to be a JSON integer (a bool, a
    float or a string is not) of at least ``least``; ``what`` names its key
    and place."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be a JSON integer, not "
                         f"{json.dumps(value, default=repr)}")
    if least is not None and value < least:
        raise ValueError(f"{what} must be at least {least}, not {value}")
    return value


def _integers(value, key: str, where: str) -> list[int]:
    """The integers of ``key`` in ``where``: one integer, or a nonempty list
    of them."""
    if not isinstance(value, list):
        return [_integer(value, f"key {key!r} in {where}")]
    if not value:
        raise ValueError(f"key {key!r} in {where} must not be an empty list")
    return [_integer(v, f"entry {i} of key {key!r} in {where}") for i, v in enumerate(value)]


def _known(name, table, what: str, where: str):
    if name not in table:
        raise ValueError(f"unknown {what} {name!r} in {where}; "
                         f"expected one of {sorted(table)}")


def check_instance_schema(spec, where: str = "instance") -> dict:
    """``spec`` itself, once it is checked to hold the keys of the JSON
    instance schema and no other, and the family parameters its family
    takes.  Values are checked when the instance is built."""
    keys = ("dim", "T", "x0", "movement", "hitting")
    _keys(spec, where, keys, keys)
    _keys(spec["movement"], where + ".movement", ("kind", "params"), ("kind",))
    where, keys = where + ".hitting", ("family", "params", "minimizers")
    hitting = _keys(spec["hitting"], where, keys, keys)
    _known(hitting["family"], FAMILIES, "family", where)
    _fields(hitting["params"], where + ".params", FAMILIES[hitting["family"]].params)
    return spec


def _check_instance_spec(spec, where: str):
    """A spec holds an ``id`` and either an inline ``instance`` (the JSON
    instance schema) or a ``generate`` block."""
    _keys(spec, where, ("id", "generate", "instance"))
    if ("generate" in spec) == ("instance" in spec):
        raise ValueError(f"{where} needs exactly one of 'generate' and 'instance'")
    if "generate" not in spec:
        check_instance_schema(spec["instance"], where + ".instance")
        return
    where += ".generate"
    gen = _keys(spec["generate"], where, ("family", "params", "T", "d", "path"),
                ("family", "T"))
    for key in ("T", "d"):
        if key in gen:
            _integer(gen[key], f"key {key!r} in {where}")
    _known(gen["family"], FAMILIES, "family", where)
    _fields(gen.get("params", {}), where + ".params", FAMILIES[gen["family"]].params)
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
            ws = _integers(spec["w"], "w", where) if "w" in spec else [1]
            if spec["name"] == "greedy" and set(ws) != {1}:
                raise ValueError(f"key 'w' in {where} must be 1 for greedy, not {spec['w']}")
        seeds = raw.get("seeds", [0])
        if isinstance(seeds, dict):
            _keys(seeds, "seeds", ("master", "count"), ("count",))
            master = _integer(seeds.get("master", 0), "key 'master' in seeds")
            count = _integer(seeds["count"], "key 'count' in seeds", least=1)
            seeds = [derive_seed(master, "seed", i) % (2 ** 31) for i in range(count)]
        elif isinstance(seeds, list):
            _integers(seeds, "seeds", "config")
        else:
            raise ValueError(f"key 'seeds' in config must be a JSON list or object, not "
                             f"{json.dumps(seeds, default=repr)}")
        checks = list(raw.get("checks", []))
        for name in checks:
            _known(name, BOUNDS, "bound check", "checks")
        oracle = dict(_keys(raw.get("oracle", {}), "oracle", ("method",)))
        _known(oracle.get("method", "auto"), ORACLE_METHODS, "oracle method", "oracle")
        return cls(list(raw.get("instances", [])), list(raw.get("algorithms", [])),
                   list(seeds), oracle, checks)


def _build_instance(spec: dict, instance_id: str, seed: int) -> Instance:
    if "instance" in spec:
        return instance_from_spec(spec["instance"])
    gen = spec["generate"]
    family = FAMILIES[gen["family"]].params(**{k: (tuple(v) if isinstance(v, list) else v)
                                               for k, v in gen.get("params", {}).items()})
    path_spec = dict(gen.get("path", {"model": "random_walk"}))
    path_model = _PATHS[path_spec.pop("model")](**path_spec)
    rng = np.random.default_rng(derive_seed(seed, "instance", instance_id))
    return generate_oblivious_instance(
        family, path_model, int(gen["T"]), int(gen.get("d", 1)), rng)


def _grid_lipschitz(instance: Instance, grid: Grid) -> float:
    """Crude per-step slope bound on the grid box, the family record's
    ``slope``, for budget reporting.  Only ``polyhedral`` (p = 2 or inf in
    d >= 2), ``ripple`` and ``strongly_convex`` (method ``grid``) reach it:
    a ``piecewise_linear`` record's instances run on their breakpoint
    lattice, where every anchor is a lattice point and the snap is 0."""
    width = float((np.asarray(grid.hi) - np.asarray(grid.lo)).max())
    return instance.horizon * family_of(instance).slope(instance.hitting[0].params, width)


def _select_check(checks, algorithm: str, w: int):
    for name in checks:
        fn, kind, applies = BOUNDS[name]
        if applies(algorithm, w):
            return fn, kind
    return None, "algorithm"


def _prepare(spec: dict, instance_id: str, seed: int) -> dict:
    """The instance, lattice and window solver shared by the rows of one
    (instance, seed)."""
    instance = _build_instance(spec, instance_id, seed)
    grid = default_grid(instance)
    return {"instance": instance, "grid": grid, "solver": WindowSolver(grid)}


def _opt_and_budget(instance: Instance, oracle_spec: dict, grid: Grid,
                    solver: WindowSolver) -> tuple[float, float]:
    """Offline optimum, and the ratio's tolerance budget for lattice
    snapping: 1e-8, plus a slope bound times the snap distance when an
    anchor is off the lattice (never on a breakpoint lattice)."""
    res = offline_optimal(instance, grid, oracle_spec.get("method", "auto"), solver=solver)
    if res.method == "exact_quadratic":
        return res.cost, 1e-8
    opt, budget = res.cost, 1e-8
    anchors = np.vstack([instance.minimizers(), instance.start])
    snap = float(np.sqrt(((grid.snap_rows(anchors) - anchors) ** 2).sum(axis=1)).max())
    if snap > 0:
        budget += snap * _grid_lipschitz(instance, grid) / max(opt, 1e-12)
    return opt, budget


class _Failure(str):
    """The error text of a step that raised, standing in for its result."""


def _attempt(fn, *args):
    """``fn(*args)``, or the ``_Failure`` of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # per-run failures stay in-row
        return _Failure(f"{type(exc).__name__}: {exc}")


def _row_costs(instance: Instance, solver: WindowSolver, runs: list, seed: int,
               checks: list[str]) -> list:
    """Each row's cost, or its ``_Failure``: every row's plan is drawn, then
    all plans are one solve and one scoring (``algorithms.plan_costs``).  A
    joint call that raises is redone plan by plan, so each row reports what
    it raises alone."""
    T = instance.horizon
    plans = []
    for algo_spec, w in runs:
        name = algo_spec["name"]
        if _select_check(checks, name, w)[1] == "subroutine_mean":
            plans.append(_attempt(algs.subroutine_mean_plan, w, T))
        else:
            plans.append(_attempt(PLANS[name], w, T, seed))

    drawn = [plan for plan in plans if isinstance(plan, algs.Plan)]
    costs = _attempt(algs.plan_costs, instance, drawn, solver) if drawn else []
    if isinstance(costs, _Failure):
        costs = [_attempt(algs.plan_costs, instance, [plan], solver) for plan in drawn]
        costs = [c if isinstance(c, _Failure) else c[0] for c in costs]
    costs = dict(zip(map(id, drawn), costs))
    return [costs[id(plan)] if isinstance(plan, algs.Plan) else plan for plan in plans]


def _row(instance_id: str, algorithm: str, w: int, seed: int, cost, oracle,
         instance: Instance, checks: list[str]) -> ResultRow:
    """One row from its cost and the (optimum, budget) of its instance and
    seed, either of which may be a ``_Failure``."""
    def scored() -> ResultRow:
        opt, budget = oracle
        report = competitive_ratio(cost, opt)
        bound_fn, _ = _select_check(checks, algorithm, w)
        if bound_fn is None:
            bound_value, within = math.inf, True
        else:
            bound_value = bound_fn(instance, w)
            within = bool(report.ratio <= bound_value + budget)
        return ResultRow(instance_id, algorithm, w, seed, cost, opt,
                         report.ratio, bound_value, within, budget)

    if isinstance(cost, _Failure):
        result = cost
    elif isinstance(oracle, _Failure):
        result = oracle
    else:
        result = _attempt(scored)
    if isinstance(result, ResultRow):
        return result
    return ResultRow(instance_id, algorithm, w, seed,
                     math.nan, math.nan, math.nan, math.nan, False, math.nan,
                     error=str(result))


def _seed_rows(spec: dict, runs: list, seed: int, config: ExperimentConfig) -> list[ResultRow]:
    """The rows of one (instance, seed), in ``runs`` order.  The offline
    optimum is solved once, after the rows' runs, if any run succeeded."""
    instance_id = spec.get("id") or "instance"
    shared = _attempt(_prepare, spec, instance_id, seed)
    if isinstance(shared, _Failure):
        costs, oracle, instance = [shared] * len(runs), None, None
    else:
        instance, solver = shared["instance"], shared["solver"]
        costs = _row_costs(instance, solver, runs, seed, config.checks)
        oracle = None
        if not all(isinstance(cost, _Failure) for cost in costs):
            oracle = _attempt(_opt_and_budget, instance, config.oracle, shared["grid"], solver)
    return [_row(instance_id, algo_spec["name"], w, seed, cost, oracle, instance,
                 config.checks) for (algo_spec, w), cost in zip(runs, costs)]


def run_suite(config: ExperimentConfig) -> tuple[list[ResultRow], dict]:
    """Execute every row; returns (rows in config order, summary)."""
    runs = []  # (algorithm spec, w) per row of one (instance, seed), in config order
    for algo_spec in config.algorithms:
        ws = algo_spec.get("w", [1])
        runs += [(algo_spec, int(w)) for w in (ws if isinstance(ws, list) else [ws])]
    seeds = [int(seed) for seed in config.seeds]
    rows = []
    for spec in config.instances:
        by_seed: dict = {}
        for seed in seeds:
            if seed not in by_seed:
                by_seed[seed] = _seed_rows(spec, runs, seed, config)
        rows += [by_seed[seed][k] for k in range(len(runs)) for seed in seeds]

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


def summary_text(summary: dict) -> str:
    """The JSON text of a summary, as the summary file holds it."""
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


def write_report(rows: list[ResultRow], text: str, out_path: str, fmt: str = "csv"):
    """Write the rows file, and the summary ``text`` next to it."""
    with open(out_path, "w") as fh:
        fh.write(format_rows(rows, fmt))
    root, _ = os.path.splitext(out_path)
    with open(root + ".summary.json", "w") as fh:
        fh.write(text)


def sweep_and_report(config: ExperimentConfig, out_path: str,
                     fmt: str = "csv") -> tuple[list[ResultRow], dict]:
    """Run the suite and write the rows file plus a JSON summary next to it."""
    rows, summary = run_suite(config)
    write_report(rows, summary_text(summary), out_path, fmt)
    return rows, summary

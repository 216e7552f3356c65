import hashlib
import json
import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from soco_lab import harness, windows
from soco_lab.algorithms import AnchorSet
from soco_lab.oracle import ORACLE_METHODS
from soco_lab.harness import (
    BOUNDS,
    CSV_HEADER,
    ExperimentConfig,
    ResultRow,
    derive_seed,
    greedy_bound,
    prediction_bound,
    rows_to_csv,
    rows_to_json,
    run_suite,
    splitmix64,
    sweep_and_report,
)
from soco_lab import (
    WindowSolver,
    anchor_segments,
    competitive_ratio,
    default_grid,
    instance_to_spec,
    make_strongly_convex,
    offline_optimal,
    offline_optimal_grid,
    offline_optimal_quadratic,
    rsfhc_a_expected_cost,
    run_afhc,
    run_dsfhc,
    run_greedy,
    run_rsfhc_a,
    run_rsfhc_b,
    run_sfhc,
    sfhc_subroutine_costs,
)

from test_breakpoint_lattice import rule_axes


def quad_config(seeds=(1, 2), ws=(2, 4), checks=("greedy_bound", "prediction_bound")):
    return ExperimentConfig.from_dict({
        "instances": [{
            "id": "quad-walk",
            "generate": {"family": "strongly_convex", "params": {"m": 2.0},
                         "path": {"model": "random_walk", "step": 0.5},
                         "T": 12, "d": 1},
        }],
        "algorithms": [{"name": "greedy"}, {"name": "dsfhc", "w": list(ws)}],
        "seeds": list(seeds),
        "oracle": {"method": "auto"},
        "checks": list(checks),
    })


def test_splitmix_and_seed_derivation_stable():
    assert splitmix64(0) == splitmix64(0)
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
    assert derive_seed(1, "a", 2) != derive_seed(2, "a", 2)


def test_unknown_check_rejected_at_parse():
    with pytest.raises(ValueError, match="unknown bound check"):
        ExperimentConfig.from_dict({"instances": [], "algorithms": [],
                                    "checks": ["nonsense"]})


def test_unknown_algorithm_rejected_at_parse():
    with pytest.raises(ValueError, match="unknown algorithm"):
        ExperimentConfig.from_dict({"instances": [],
                                    "algorithms": [{"name": "mystery"}]})


def test_unknown_oracle_method_rejected_at_parse():
    # a typo used to run the auto oracle without a word
    with pytest.raises(ValueError, match="unknown oracle method 'exact'"):
        ExperimentConfig.from_dict({"instances": [], "algorithms": [],
                                    "oracle": {"method": "exact"}})
    for method in ORACLE_METHODS:
        ExperimentConfig.from_dict({"oracle": {"method": method}})


def schema_config():
    """A valid config that sets every top-level key."""
    return {
        "instances": [{"id": "walk", "generate": {
            "family": "polyhedral", "params": {"alpha": 1.0, "p": 1}, "T": 6, "d": 1,
            "path": {"model": "spikes", "amplitude": 1.0, "period": 3}}}],
        "algorithms": [{"name": "greedy"}, {"name": "dsfhc", "w": [2, 3]}],
        "seeds": {"master": 3, "count": 2},
        "oracle": {"method": "grid"},
        "checks": ["greedy_bound"],
    }


def test_schema_config_runs():
    rows, summary = run_suite(ExperimentConfig.from_dict(schema_config()))
    assert len(rows) == 6 and summary["failures"] == 0


def at(config, *path):
    """The dict inside ``config`` reached by ``path``."""
    for key in path:
        config = config[key]
    return config


# (where, key, value): each key is one the harness does not read, among
# them every setting it once took and ignored (output, oracle.grid,
# generate.snap_to_grid, the instance alias name, the algorithm phase)
UNREAD_KEYS = [
    ((), "check", ["greedy_bound"]),
    ((), "algorithm", [{"name": "greedy"}]),
    ((), "output", {"path": "rows.csv"}),
    (("instances", 0), "name", "walk"),
    (("instances", 0, "generate"), "snap_to_grid", {"lo": -3, "hi": 3, "n": 61}),
    (("instances", 0, "generate"), "horizon", 6),
    (("instances", 0, "generate", "params"), "beta", 1.0),
    (("instances", 0, "generate", "path"), "step", 0.5),
    (("algorithms", 1), "window", [2]),
    (("algorithms", 1), "phase", 1),
    (("seeds",), "counts", 2),
    (("oracle",), "grid", {"lo": -3, "hi": 3, "n": 61}),
]


@pytest.mark.parametrize("where, key, value", UNREAD_KEYS)
def test_unread_key_rejected_by_name(where, key, value):
    config = schema_config()
    at(config, *where)[key] = value
    with pytest.raises(ValueError, match=f"unknown key '{key}'"):
        ExperimentConfig.from_dict(config)


@pytest.mark.parametrize("where, key, message", [
    (("instances", 0, "generate"), "family", "missing required key 'family'"),
    (("instances", 0, "generate"), "T", "missing required key 'T'"),
    (("instances", 0, "generate", "params"), "alpha", "missing required key 'alpha'"),
    (("instances", 0, "generate", "path"), "model", "missing required key 'model'"),
    (("algorithms", 0), "name", "missing required key 'name'"),
    (("seeds",), "count", "missing required key 'count'"),
    (("instances", 0), "generate", "exactly one of 'generate' and 'instance'"),
])
def test_missing_required_key_rejected_by_name(where, key, message):
    config = schema_config()
    del at(config, *where)[key]
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_dict(config)


@pytest.mark.parametrize("where, key, value, message", [
    (("instances", 0, "generate"), "family", "polyhedal", "unknown family 'polyhedal'"),
    (("instances", 0, "generate", "path"), "model", "walk", "unknown path model 'walk'"),
    ((), "instances", ["walk"], r"instances\[0\] must be a JSON object"),
])
def test_unknown_name_or_shape_rejected_at_load(where, key, value, message):
    config = schema_config()
    at(config, *where)[key] = value
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_dict(config)


# (where, key, value, message): a count that is not a JSON integer, an
# empty list of them, or a seed count below 1; each used to run, truncated
# (w 2.7 ran as w = 2, T 6.9 as T = 6), coerced (w true ran as w = 1, "3"
# as 3) or with no rows at all (count -2)
BAD_COUNTS = [
    (("algorithms", 1), "w", 2.7,
     r"key 'w' in algorithms\[1\] must be a JSON integer, not 2\.7$"),
    (("algorithms", 1), "w", [2, True],
     r"entry 1 of key 'w' in algorithms\[1\] must be a JSON integer, not true$"),
    (("algorithms", 1), "w", "3", r"key 'w' in algorithms\[1\] must be a JSON integer, not \"3\"$"),
    (("algorithms", 1), "w", [], r"key 'w' in algorithms\[1\] must not be an empty list$"),
    (("algorithms", 1), "w", [4.0], r"entry 0 of key 'w' in algorithms\[1\] must be a JSON integer"),
    (("instances", 0, "generate"), "T", 6.9,
     r"key 'T' in instances\[0\]\.generate must be a JSON integer, not 6\.9$"),
    (("instances", 0, "generate"), "T", "6", r"key 'T' in instances\[0\]\.generate must be"),
    (("instances", 0, "generate"), "d", True,
     r"key 'd' in instances\[0\]\.generate must be a JSON integer, not true$"),
    (("seeds",), "count", -2, r"key 'count' in seeds must be at least 1, not -2$"),
    (("seeds",), "count", 0, r"key 'count' in seeds must be at least 1, not 0$"),
    (("seeds",), "count", 2.5, r"key 'count' in seeds must be a JSON integer, not 2\.5$"),
    (("seeds",), "master", "3", r"key 'master' in seeds must be a JSON integer, not \"3\"$"),
    ((), "seeds", [], r"key 'seeds' in config must not be an empty list$"),
    ((), "seeds", [1, 2.0], r"entry 1 of key 'seeds' in config must be a JSON integer, not 2\.0$"),
    ((), "seeds", [False], r"entry 0 of key 'seeds' in config must be a JSON integer, not false$"),
    ((), "seeds", 5, r"key 'seeds' in config must be a JSON list or object, not 5$"),
]


@pytest.mark.parametrize("where, key, value, message", BAD_COUNTS)
def test_non_integer_count_rejected_at_load(where, key, value, message):
    config = schema_config()
    at(config, *where)[key] = value
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_dict(config)


@pytest.mark.parametrize("w", [3, [1, 3], 0, [2]])
def test_greedy_w_other_than_one_rejected_at_load(w):
    # greedy is the w = 1 algorithm; a greedy w = 3 row used to run as
    # greedy, labelled w = 3, and skip greedy_bound (bound inf)
    config = schema_config()
    config["algorithms"][0]["w"] = w
    with pytest.raises(ValueError, match=r"key 'w' in algorithms\[0\] must be 1 for greedy, "
                                         rf"not {re.escape(json.dumps(w))}$"):
        ExperimentConfig.from_dict(config)
    config["algorithms"][0]["w"] = [1, 1] if isinstance(w, list) else 1
    assert ExperimentConfig.from_dict(config).algorithms[0]["name"] == "greedy"


@pytest.mark.parametrize("edit, message", [
    (lambda spec: spec.pop("x0"), r"missing required key 'x0' in instances\[0\]\.instance$"),
    (lambda spec: spec.update(horizon=3), r"unknown key 'horizon' in instances\[0\]\.instance;"),
    (lambda spec: spec["movement"].update(beta=1.0), r"unknown key 'beta' in .*\.movement;"),
    (lambda spec: spec["hitting"].pop("minimizers"), r"missing required key 'minimizers'"),
    (lambda spec: spec["hitting"].update(family="quadratic"), r"unknown family 'quadratic'"),
    (lambda spec: spec["hitting"]["params"].update(mu=1.0),
     r"unknown key 'mu' in instances\[0\]\.instance\.hitting\.params; accepted: m$"),
    (lambda spec: spec["hitting"]["params"].pop("m"), r"missing required key 'm'"),
])
def test_inline_instance_schema_checked_at_load(edit, message):
    config = schema_config()
    spec = instance_to_spec(make_strongly_convex(2.0, [[1.0], [0.5]], start=[0.0]))
    edit(spec)
    config["instances"] = [{"id": "inline", "instance": spec}]
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_dict(config)


def test_inline_instance_spec_runs():
    config = schema_config()
    inst = make_strongly_convex(2.0, [[1.0], [0.5], [1.5]], start=[0.0])
    config["instances"] = [{"id": "inline", "instance": instance_to_spec(inst)}]
    rows, summary = run_suite(ExperimentConfig.from_dict(config))
    assert [r.instance_id for r in rows] == ["inline"] * 6
    assert summary["failures"] == 0
    config["instances"][0]["generate"] = schema_config()["instances"][0]["generate"]
    with pytest.raises(ValueError, match="exactly one of 'generate' and 'instance'"):
        ExperimentConfig.from_dict(config)


def test_empty_instances_empty_rows():
    rows, summary = run_suite(ExperimentConfig.from_dict({
        "instances": [], "algorithms": [{"name": "greedy"}], "seeds": [1]}))
    assert rows == []
    assert summary["all_within_bounds"]


def test_single_greedy_run_bounded_by_four():
    config = quad_config(seeds=(3,))
    config.algorithms = [{"name": "greedy"}]
    rows, summary = run_suite(config)
    assert len(rows) == 1
    row = rows[0]
    assert row.bound_value == pytest.approx(4.0)   # max(1 + 3/1, 4) at m = 2
    assert row.ratio <= 4.0 + row.tolerance_budget
    assert row.within_bound
    assert summary["all_within_bounds"]


def test_w_sweep_within_bounds_and_reported():
    config = quad_config(seeds=(1, 2, 3), ws=(2, 4, 8))
    rows, summary = run_suite(config)
    assert all(r.within_bound for r in rows)
    ratios = {w: summary["by_algorithm"][f"dsfhc/w={w}"]["max_ratio"]
              for w in (2, 4, 8)}
    assert all(math.isfinite(v) for v in ratios.values())


def test_rows_invariant_within_iff_ratio_below_bound():
    rows, _ = run_suite(quad_config())
    for r in rows:
        assert r.within_bound == (r.ratio <= r.bound_value + r.tolerance_budget)


def test_csv_determinism_and_header(tmp_path):
    config = quad_config()
    first = rows_to_csv(run_suite(config)[0])
    second = rows_to_csv(run_suite(quad_config())[0])
    assert first == second
    assert first.splitlines()[0] == CSV_HEADER
    out = tmp_path / "rows.csv"
    sweep_and_report(quad_config(), str(out))
    assert out.read_text() == first
    summary = json.loads((tmp_path / "rows.summary.json").read_text())
    assert summary["all_within_bounds"]


def test_json_rows_match_csv_rows():
    rows, _ = run_suite(quad_config(seeds=(1,)))
    as_json = json.loads(rows_to_json(rows))
    as_csv = rows_to_csv(rows).splitlines()[1:]
    assert len(as_json) == len(as_csv)
    for obj, line in zip(as_json, as_csv):
        assert obj["instance_id"] == line.split(",")[0]
        assert obj["ratio"] == line.split(",")[6]
        assert obj["error"] == ""


def test_floats_use_twelve_significant_digits():
    rows, _ = run_suite(quad_config(seeds=(1,)))
    cell = rows_to_csv(rows).splitlines()[1].split(",")[4]
    assert cell == format(rows[0].cost, ".12g")


def test_failures_recorded_in_row_not_raised():
    config = ExperimentConfig.from_dict({
        "instances": [{"id": "broken",
                       "generate": {"family": "strongly_convex",
                                    "params": {"m": -1.0}, "T": 4, "d": 1}}],
        "algorithms": [{"name": "greedy"}],
        "seeds": [1],
    })
    rows, summary = run_suite(config)
    assert len(rows) == 1
    assert rows[0].error and not rows[0].within_bound
    assert not summary["all_within_bounds"]
    assert summary["failures"] == 1
    assert summary["errors"] == {"broken/greedy/w=1/seed=1": rows[0].error}
    assert json.loads(rows_to_json(rows))[0]["error"] == rows[0].error
    assert rows_to_csv(rows) == CSV_HEADER + "\nbroken,greedy,1,1,nan,nan,nan,nan,false,nan\n"


def test_non_finite_family_param_fails_its_row_by_name():
    # Python's json reads NaN and Infinity; the constructor names the
    # parameter instead of the row failing later on non-finite points
    config = ExperimentConfig.from_dict(json.loads("""{
        "instances": [{"id": "nan-m", "generate": {"family": "strongly_convex",
                       "params": {"m": NaN}, "T": 4, "d": 1}}],
        "algorithms": [{"name": "greedy"}, {"name": "dsfhc", "w": [2]}],
        "seeds": [1]}"""))
    rows, summary = run_suite(config)
    assert [r.error for r in rows] == ["ValueError: m must be finite, not nan"] * 2
    assert summary["failures"] == 2


def test_added_algorithm_does_not_perturb_rows():
    base = quad_config(seeds=(1, 2), ws=(2,))
    rows_before, _ = run_suite(base)
    extended = quad_config(seeds=(1, 2), ws=(2,))
    extended.algorithms = extended.algorithms + [{"name": "afhc", "w": [2]}]
    rows_after, _ = run_suite(extended)
    key = lambda r: (r.instance_id, r.algorithm, r.w, r.seed)  # noqa: E731
    before = {key(r): r.cost for r in rows_before}
    after = {key(r): r.cost for r in rows_after}
    for k, v in before.items():
        assert after[k] == v


def test_failed_row_labelled_by_spec_name():
    rows, summary = run_suite(ExperimentConfig.from_dict({
        "instances": [{"id": "named-bad",
                       "generate": {"family": "strongly_convex",
                                    "params": {"m": -1.0}, "T": 4, "d": 1}}],
        "algorithms": [{"name": "greedy"}],
        "seeds": [1],
    }))
    assert rows[0].instance_id == "named-bad"
    assert list(summary["errors"]) == ["named-bad/greedy/w=1/seed=1"]


def lattice_config(seeds=(1,)):
    """One 1-D polyhedral instance with all six algorithms: 15 rows a seed."""
    return ExperimentConfig.from_dict({
        "instances": [{"id": "poly", "generate": {
            "family": "polyhedral", "params": {"alpha": 1.0, "p": 1},
            "path": {"model": "random_walk", "step": 0.5}, "T": 12, "d": 1}}],
        "algorithms": [{"name": "greedy"}, {"name": "sfhc", "w": [2, 3, 4]},
                       {"name": "dsfhc", "w": [2, 3, 4]},
                       {"name": "rsfhc-a", "w": [2, 3, 4]},
                       {"name": "rsfhc-b", "w": [4, 6]},
                       {"name": "afhc", "w": [2, 3, 4]}],
        "seeds": list(seeds),
        "checks": ["greedy_bound", "prediction_bound"],
    })


def test_oracle_runs_once_per_instance_and_seed(monkeypatch):
    calls = []

    def counting(instance, grid=None, method="auto", solver=None):
        calls.append(instance)
        return offline_optimal(instance, grid, method, solver=solver)

    monkeypatch.setattr(harness, "offline_optimal", counting)
    rows, summary = run_suite(lattice_config())
    assert len(rows) == 15 and summary["failures"] == 0
    assert len(calls) == 1
    assert {r.opt_cost for r in rows} == {offline_optimal_grid(calls[0]).cost}


def test_oracle_failure_lands_in_every_row_of_its_instance(monkeypatch):
    calls = []

    def failing(instance, grid=None, method="auto", solver=None):
        calls.append(instance)
        raise RuntimeError("lattice exhausted")

    monkeypatch.setattr(harness, "offline_optimal", failing)
    rows, summary = run_suite(lattice_config(seeds=(1, 2)))
    assert len(rows) == 30 and len(calls) == 2
    assert all(r.error == "RuntimeError: lattice exhausted" for r in rows)
    assert summary["failures"] == 30


def test_three_dimensional_rows():
    # separable families solve per coordinate in d = 3; polyhedral p = 2
    # couples the coordinates and has no lattice solve beyond 2-D
    def spec(name, family, params):
        return {"id": name, "generate": {
            "family": family, "params": params, "T": 8, "d": 3,
            "path": {"model": "random_walk", "step": 0.5}}}

    rows, summary = run_suite(ExperimentConfig.from_dict({
        "instances": [spec("ripple", "ripple", {"m": 0.5, "eps": 1.0, "k": 4.0}),
                      spec("coupled", "polyhedral", {"alpha": 1.0, "p": 2})],
        "algorithms": [{"name": "greedy"}, {"name": "dsfhc", "w": [2, 4]},
                       {"name": "afhc", "w": [3]}],
        "seeds": [1, 2],
    }))
    ripple = [r for r in rows if r.instance_id == "ripple"]
    assert len(ripple) == 8 and not any(r.error for r in ripple)
    assert all(math.isfinite(r.ratio) for r in ripple)
    coupled = [r for r in rows if r.instance_id == "coupled"]
    assert summary["failures"] == len(coupled) == 8
    assert all(r.error.startswith("UnsupportedProblemError: no lattice solve for a 3-D")
               for r in coupled)


def test_bound_registry_values():
    inst = make_strongly_convex(2.0, [[0.0], [1.0]])
    assert greedy_bound(inst, 1) == pytest.approx(4.0)
    assert prediction_bound(inst, 4) == pytest.approx(1.5)
    assert BOUNDS["semi_adaptive_bound"][0](inst, 6) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        prediction_bound(inst, 1)


def test_prediction_bound_checks_the_phase_mean_not_one_sfhc_phase():
    # The paper bounds a single phase subroutine only on average over the w
    # phases.  On this quadratic instance (T = 40, random walk 0.5), phase 0
    # at w = 6 has ratio 1.336, above 1 + 2/6, while the phase mean is 1.095.
    spec = {"id": "strongly_convex-103", "generate": {
        "family": "strongly_convex", "params": {"m": 2.0}, "T": 40, "d": 1,
        "path": {"model": "random_walk", "step": 0.5}}}
    seed = 160485265
    inst = harness._build_instance(spec, spec["id"], seed)
    opt = offline_optimal_quadratic(inst).cost
    bound = prediction_bound(inst, 6)
    costs = sfhc_subroutine_costs(inst, 6)
    assert costs[0] / opt > bound
    assert sum(costs) / len(costs) / opt <= bound
    rows, summary = run_suite(ExperimentConfig.from_dict({
        "instances": [spec],
        "algorithms": [{"name": "sfhc", "w": [6]}, {"name": "dsfhc", "w": [6]},
                       {"name": "rsfhc-a", "w": [6]}],
        "seeds": [seed],
        "checks": ["prediction_bound", "subroutine_average_bound"]}))
    sfhc, dsfhc, mean = rows
    assert sfhc.ratio == pytest.approx(costs[0] / opt, rel=1e-12)
    assert sfhc.bound_value == math.inf and sfhc.within_bound
    assert dsfhc.bound_value == bound and dsfhc.within_bound
    assert mean.cost == pytest.approx(sum(costs) / len(costs), rel=1e-12)
    assert mean.bound_value == bound and mean.within_bound
    assert summary["all_within_bounds"]


#: (family, params) of each 1-D instance of the ``sweep-1d`` benchmark workload
SWEEP_1D_FAMILIES = [
    ("polyhedral", {"alpha": 1.0, "p": 1}),
    ("glb", {"e0": [1.0], "beta": [1.0], "mu": [3.0]}),
    ("ripple", {"m": 2.0, "eps": 0.3, "k": 2.0}),
    ("strongly_convex", {"m": 2.0}),
]


def test_a_wrong_bound_fails_ripple_rows(monkeypatch):
    # every anchor is a lattice point, so no row adds a snap budget to its
    # bound, and a bound too tight for the ripple rows fails them: with a
    # budget of snap distance x T x slope / OPT (47.6 here) every row passed
    _, _, applies = BOUNDS["prediction_bound"]
    monkeypatch.setitem(BOUNDS, "prediction_bound",
                        (lambda instance, w: 1.0, "algorithm", applies))
    rows, summary = run_suite(ExperimentConfig.from_dict({
        "instances": [{"id": family, "generate": {
            "family": family, "params": params, "T": 40, "d": 1,
            "path": {"model": "random_walk", "step": 0.5}}}
            for family, params in SWEEP_1D_FAMILIES],
        "algorithms": [{"name": "greedy"}, {"name": "sfhc", "w": [2, 4, 6]},
                       {"name": "dsfhc", "w": [2, 4, 6]}, {"name": "rsfhc-a", "w": [2, 4, 6]},
                       {"name": "rsfhc-b", "w": [4, 6]}, {"name": "afhc", "w": [2, 4, 6]}],
        "seeds": [1],
        "oracle": {"method": "auto"},
        "checks": ["greedy_bound", "prediction_bound", "semi_adaptive_bound"]}))
    assert summary["failures"] == 0 and len(rows) == 4 * 15
    assert {r.tolerance_budget for r in rows} == {1e-8}
    ripple = [r for r in rows if r.instance_id == "ripple" and r.algorithm == "dsfhc"]
    assert all(r.bound_value == 1.0 for r in ripple)
    assert not all(r.within_bound for r in ripple)


def test_seed_state_dropped_before_next_seed_and_rows_in_config_order(monkeypatch):
    # the rows of one (instance, seed) are computed together; its solver,
    # and so its stage memo, is gone before the next seed's is built, while
    # the rows still come back algorithm by w by seed
    import weakref

    solvers, prepare = [], harness._prepare

    def recording(spec, instance_id, seed):
        assert all(ref() is None for ref in solvers), "an earlier seed's solver is alive"
        shared = prepare(spec, instance_id, seed)
        solvers.append(weakref.ref(shared["solver"]))
        return shared

    monkeypatch.setattr(harness, "_prepare", recording)
    rows, summary = run_suite(quad_config(seeds=(5, 3, 5, 9), ws=(2, 4)))
    assert summary["failures"] == 0 and len(solvers) == 3
    assert [(r.algorithm, r.w, r.seed) for r in rows] == [
        (a, w, s) for a, w in (("greedy", 1), ("dsfhc", 2), ("dsfhc", 4))
        for s in (5, 3, 5, 9)]
    assert rows[0] == rows[2]   # a repeated seed repeats its rows


# ---------------------------------------------------------------------------
# One planned solve per (instance, seed)
# ---------------------------------------------------------------------------

#: case -> (family, params, d).  polyhedral p = 2 couples the coordinates,
#: and its joint 2-D DP on the default lattice (about 201 x 201) takes minutes, so
#: it runs in 1-D only.
ROW_CASES = {
    "polyhedral-p1-1d": ("polyhedral", {"alpha": 1.2, "p": 1}, 1),
    "polyhedral-p1-2d": ("polyhedral", {"alpha": 1.2, "p": 1}, 2),
    "polyhedral-p2-1d": ("polyhedral", {"alpha": 0.9, "p": 2}, 1),
    "glb-1d": ("glb", {"e0": [0.5], "beta": [2.0], "mu": [1.5]}, 1),
    "glb-2d": ("glb", {"e0": [0.5, 0.5], "beta": [2.0, 1.0], "mu": [1.5, 1.5]}, 2),
    "ripple-1d": ("ripple", {"m": 2.0, "eps": 0.3, "k": 2.0}, 1),
    "ripple-2d": ("ripple", {"m": 2.0, "eps": 0.3, "k": 2.0}, 2),
    "strongly_convex-1d": ("strongly_convex", {"m": 1.5}, 1),
    "strongly_convex-2d": ("strongly_convex", {"m": 1.5}, 2),
}


def reference_row(spec, algorithm, w, seed, config) -> ResultRow:
    """One row computed alone on a fresh solver and a fresh oracle, with the
    snap distance checked point by point: the row-by-row harness."""
    instance_id = spec["id"]
    try:
        inst = harness._build_instance(spec, instance_id, seed)
        grid = default_grid(inst)
        solver = WindowSolver(grid)
        bound_fn, kind = harness._select_check(config.checks, algorithm, w)
        if kind == "subroutine_mean":
            cost = rsfhc_a_expected_cost(inst, w, solver)
        else:
            cost = {
                "greedy": lambda: run_greedy(inst),
                "sfhc": lambda: run_sfhc(inst, w, 0, solver),
                "dsfhc": lambda: run_dsfhc(inst, w, solver),
                "rsfhc-a": lambda: run_rsfhc_a(inst, w, harness._rng(seed, "rsfhc-a", w),
                                               solver),
                "rsfhc-b": lambda: run_rsfhc_b(inst, w, harness._rng(seed, "rsfhc-b", w),
                                               solver),
                "afhc": lambda: run_afhc(inst, w, solver),
            }[algorithm]().total
        res = offline_optimal(inst, grid, config.oracle.get("method", "auto"))
        # every anchor is a lattice point, so the budget is 1e-8 alone
        assert max(grid.snap(p)[1] for p in [inst.start, *inst.minimizers()]) == 0
        opt, budget = res.cost, 1e-8
        ratio = competitive_ratio(cost, opt).ratio
        if bound_fn is None:
            bound_value, within = math.inf, True
        else:
            bound_value = bound_fn(inst, w)
            within = bool(ratio <= bound_value + budget)
        return ResultRow(instance_id, algorithm, w, seed, cost, opt, ratio, bound_value,
                         within, budget)
    except Exception as exc:
        return ResultRow(instance_id, algorithm, w, seed, math.nan, math.nan, math.nan,
                         math.nan, False, math.nan, error=f"{type(exc).__name__}: {exc}")


@pytest.mark.parametrize("case", sorted(ROW_CASES))
@given(st.integers(3, 12), st.sets(st.integers(1, 6), min_size=1, max_size=3),
       st.permutations(sorted(BOUNDS)),
       st.lists(st.integers(0, 2 ** 31 - 1), min_size=1, max_size=2))
def test_rows_equal_each_row_computed_alone(case, T, ws, checks, seeds):
    # every row of one (instance, seed) is solved in one planned solve, the
    # afhc chains in lockstep, and the oracle on the shared solver; each row
    # must still be the row computed alone, bit for bit, failures included
    # (rsfhc-b at w = 3 cannot draw its anchors and fails alone).  Every
    # bound check runs, in a drawn order, so a row takes the first that
    # applies: the phase mean, its own run, or a check that raises.
    family, params, d = ROW_CASES[case]
    ws = sorted(ws)
    spec = {"id": case, "generate": {
        "family": family, "params": params, "T": T, "d": d,
        "path": {"model": "random_walk", "step": 0.6}}}
    config = ExperimentConfig.from_dict({
        "instances": [spec],
        "algorithms": [{"name": "greedy"}, {"name": "sfhc", "w": ws},
                       {"name": "dsfhc", "w": ws}, {"name": "rsfhc-a", "w": ws},
                       {"name": "rsfhc-b", "w": [3] + [w for w in ws if w >= 4]},
                       {"name": "afhc", "w": ws}],
        "seeds": seeds,
        "checks": list(checks),
    })
    rows, _ = run_suite(config)
    runs = [(a["name"], w) for a in config.algorithms for w in a.get("w", [1])]
    assert [repr(r) for r in rows] == [
        repr(reference_row(spec, a, w, seed, config)) for a, w in runs for seed in seeds]
    assert all(r.error == "ValueError: randomized anchor schedule requires w >= 4"
               for r in rows if r.algorithm == "rsfhc-b" and r.w == 3)
    assert any(not r.error for r in rows)


def _counting(monkeypatch, cls, name, counts, items=None):
    """Count the calls of ``cls.name``, and under ``items`` the summed
    length of their first argument."""
    method = getattr(cls, name)

    def counted(self, *args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        if items:
            counts[items] = counts.get(items, 0) + len(args[0])
        return method(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)


#: min-plus calls per (instance, seed) of ``work_gate_config``, by family,
#: for seeds 1301 and 7.  Solved row by row, the same rows took 51 batches
#: and 104/111 (polyhedral), 95/100 (glb) and 106/110 (ripple) calls on the
#: 201-point uniform lattice, and jointly 74/73 (polyhedral) and 70/71
#: (glb).  On the breakpoint lattice an ``afhc`` chain that restarts from a
#: minimizer restarts from the left anchor of the phase windows that start
#: there, so it shares their stages more often.  So does ``ripple``'s since
#: its lattice holds its anchors: it took 71/73 on 201 evenly spaced points.
MINPLUS_CALLS = {"polyhedral": [68, 73], "glb": [45, 45], "ripple": [70, 72]}

#: Windows handed to ``solve_batch`` per (instance, seed) of
#: ``work_gate_config``, for seeds 1301 and 7 (the ``rsfhc-b`` draws
#: differ); any family.  Solving the greedy row's T = 40 windows (k, k+1],
#: which hold no free timestep, made them 302 and 303.
SOLVED_WINDOWS = [262, 263]


def work_gate_config(family, params, seed):
    return ExperimentConfig.from_dict({
        "instances": [{"id": family, "generate": {
            "family": family, "params": params, "T": 40, "d": 1,
            "path": {"model": "random_walk", "step": 0.5}}}],
        "algorithms": [{"name": "greedy"}] + [
            {"name": name, "w": [2, 4, 6]}
            for name in ("sfhc", "dsfhc", "rsfhc-a", "rsfhc-b", "afhc")],
        "seeds": [seed],
        "checks": ["greedy_bound", "prediction_bound", "semi_adaptive_bound"],
    })


@pytest.mark.parametrize("family,params", [
    ("polyhedral", {"alpha": 1.0, "p": 1}),
    ("glb", {"e0": [1.0], "beta": [1.0], "mu": [3.0]}),
    ("ripple", {"m": 2.0, "eps": 0.3, "k": 2.0}),
])
def test_work_per_instance_and_seed(monkeypatch, family, params):
    # the work of one (instance, seed) is deterministic, so it is gated
    # exactly: one batch per step of the longest afhc chain, the first of
    # which also holds every anchored window with a free timestep, and a
    # pinned number of windows and min-plus calls
    longest = max(len(anchor_segments(AnchorSet.phase(h, w, 40), 40))
                  for w in (2, 4, 6) for h in range(w))
    assert longest == 21
    for seed, minplus, solved in zip((1301, 7), MINPLUS_CALLS[family], SOLVED_WINDOWS):
        counts = {}
        _counting(monkeypatch, windows.WindowSolver, "solve_batch", counts, "windows")
        _counting(monkeypatch, windows._GridEval, "minplus", counts)
        rows, summary = run_suite(work_gate_config(family, params, seed))
        monkeypatch.undo()
        assert len(rows) == 16 and summary["failures"] == 1   # rsfhc-b at w = 2
        assert counts == {"solve_batch": longest, "windows": solved, "minplus": minplus}


@pytest.mark.parametrize("family,params", [
    ("polyhedral", {"alpha": 1.0, "p": 1}),
    ("glb", {"e0": [1.0], "beta": [1.0], "mu": [3.0]}),
    ("ripple", {"m": 2.0, "eps": 0.3, "k": 2.0}),
])
def test_work_gate_lattice_size(family, params):
    # the piecewise-linear families run on their distinct breakpoints -- the
    # start, 40 minimizers and 0 for glb --; ripple adds the 201 evenly
    # spaced points less those within half a spacing of a breakpoint
    for seed in (1301, 7):
        inst = harness._build_instance(work_gate_config(family, params, seed).instances[0],
                                       family, seed)
        size = default_grid(inst).size
        if family == "ripple":
            assert size == len(rule_axes(inst)[0]) > 201
        else:
            points = {0.0, *inst.minimizers()[:, 0].tolist(), *inst.start.tolist()}
            assert size == len(points) <= 42


@pytest.mark.parametrize("family,params", [
    ("polyhedral", {"alpha": 1.0, "p": 1}),
    ("strongly_convex", {"m": 2.0}),
])
def test_greedy_rows_solve_no_window(monkeypatch, family, params):
    # every timestep of a greedy run, or of an anchored run at w = 1, is an
    # anchor, written from the minimizers: no window is solved, and each
    # row costs what run_greedy's points cost
    config = work_gate_config(family, params, 1301)
    config.algorithms = [{"name": name, "w": 1} for name in ("greedy", "sfhc", "dsfhc",
                                                             "rsfhc-a")]
    counts = {}
    _counting(monkeypatch, windows.WindowSolver, "solve_batch", counts)
    rows, summary = run_suite(config)
    assert counts == {} and summary["failures"] == 0
    inst = harness._build_instance(config.instances[0], family, 1301)
    assert [r.cost for r in rows] == [run_greedy(inst).total] * 4


def test_failed_joint_solve_fails_only_the_rows_that_fail_alone(monkeypatch):
    # a joint solve that raises is redone row by row, so only the rows that
    # raise alone fail, each with its own error; the others are unchanged
    clean, _ = run_suite(lattice_config())
    solve_plans = harness.algs.solve_plans

    def failing_plans(instance, plans, solver=None):
        if any(plan.combine == "mean_points" and not plan.chained for plan in plans):
            raise RuntimeError("dsfhc window failed")
        if any(plan.chained and len(plan.anchor_sets) == 3 for plan in plans):
            raise RuntimeError("afhc chain failed")
        return solve_plans(instance, plans, solver)

    monkeypatch.setattr(harness.algs, "solve_plans", failing_plans)
    rows, summary = run_suite(lattice_config())
    failed = {(r.algorithm, r.w): r.error for r in rows if r.error}
    assert failed == {("dsfhc", 2): "RuntimeError: dsfhc window failed",
                      ("dsfhc", 3): "RuntimeError: dsfhc window failed",
                      ("dsfhc", 4): "RuntimeError: dsfhc window failed",
                      ("afhc", 3): "RuntimeError: afhc chain failed"}
    assert [r for r in rows if not r.error] == [r for r in clean
                                                if (r.algorithm, r.w) not in failed]


# ---------------------------------------------------------------------------
# Byte-identity pin for lattice rows
# ---------------------------------------------------------------------------

#: (family, params, d) of each instance of ``lattice_pin_config``.
LATTICE_PIN_FAMILIES = [
    ("polyhedral", {"alpha": 1.3, "p": 1}, 1),
    ("glb", {"e0": [1.0], "beta": [2.0], "mu": [3.0]}, 1),
    ("ripple", {"m": 2.0, "eps": 0.3, "k": 2.0}, 1),
    ("strongly_convex", {"m": 2.0}, 1),
    ("glb", {"e0": [1.0, 0.5], "beta": [2.0, 1.0], "mu": [3.0, 2.5]}, 2),
]


def lattice_pin_config():
    """Every algorithm on four 1-D families and 2-D ``glb`` at T = 40.  The
    check order makes ``dsfhc`` score the mean of its phase points,
    ``rsfhc-a`` the mean of its phase costs and ``sfhc`` its one run."""
    return {
        "instances": [{"id": f"{family}-{d}d", "generate": {
            "family": family, "params": params, "T": 40, "d": d,
            "path": {"model": "random_walk", "step": 0.5}}}
            for family, params, d in LATTICE_PIN_FAMILIES],
        "algorithms": [{"name": "greedy"}, {"name": "sfhc", "w": [2, 4, 6]},
                       {"name": "dsfhc", "w": [2, 4, 6]},
                       {"name": "rsfhc-a", "w": [2, 4, 6]},
                       {"name": "rsfhc-b", "w": [4, 6]},
                       {"name": "afhc", "w": [2, 4, 6]}],
        "seeds": [1301, 7],
        "checks": ["prediction_bound", "subroutine_average_bound", "greedy_bound",
                   "semi_adaptive_bound"],
    }


#: sha256 of the CSV and of the summary JSON that ``sweep_and_report``
#: writes for ``lattice_pin_config``.  A change to these bytes must be
#: explained to the last ulp before the values here are updated.
LATTICE_PIN_SHA256 = (
    "df058578585617b81c7351c9d28f8fa7ac875943fc8ded087f24013a0cc5c800",
    "f93cc5b9f659b3429d6296208522582d012842c659110054aa5fa6754de0b701",
)


def test_lattice_rows_are_byte_stable(tmp_path):
    out = tmp_path / "rows.csv"
    _, summary = sweep_and_report(ExperimentConfig.from_dict(lattice_pin_config()), str(out))
    assert summary["rows"] == 5 * 2 * 15 and summary["failures"] == 0, summary["errors"]
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in (out, tmp_path / "rows.summary.json"))
    assert digests == LATTICE_PIN_SHA256

import json
import math

import pytest

from soco_lab import harness
from soco_lab.oracle import ORACLE_METHODS
from soco_lab.harness import (
    BOUNDS,
    CSV_HEADER,
    ExperimentConfig,
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
    instance_to_spec,
    make_strongly_convex,
    offline_optimal,
    offline_optimal_grid,
    offline_optimal_quadratic,
    sfhc_subroutine_costs,
)


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
    config = quad_config(seeds=(3,), ws=())
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

    def counting(instance, grid=None, method="auto"):
        calls.append(instance)
        return offline_optimal(instance, grid, method)

    monkeypatch.setattr(harness, "offline_optimal", counting)
    rows, summary = run_suite(lattice_config())
    assert len(rows) == 15 and summary["failures"] == 0
    assert len(calls) == 1
    assert {r.opt_cost for r in rows} == {offline_optimal_grid(calls[0]).cost}


def test_oracle_failure_lands_in_every_row_of_its_instance(monkeypatch):
    calls = []

    def failing(instance, grid=None, method="auto"):
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

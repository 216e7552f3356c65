import json
import math

import pytest

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
from soco_lab import make_strongly_convex


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


def test_worker_pool_preserves_rows(monkeypatch):
    serial = rows_to_csv(run_suite(quad_config())[0])
    monkeypatch.setenv("SOCO_LAB_THREADS", "4")
    pooled = rows_to_csv(run_suite(quad_config())[0])
    assert pooled == serial


def test_bound_registry_values():
    inst = make_strongly_convex(2.0, [[0.0], [1.0]])
    assert greedy_bound(inst, 1) == pytest.approx(4.0)
    assert prediction_bound(inst, 4) == pytest.approx(1.5)
    assert BOUNDS["semi_adaptive_bound"][0](inst, 6) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        prediction_bound(inst, 1)

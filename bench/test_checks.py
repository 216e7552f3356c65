"""Each benchmark check accepts real program output and rejects corrupted output.

    python3 -m pytest bench/test_checks.py -q
"""

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
from workloads import Chase2D, GameSpike, Sweep1D  # noqa: E402


def run_round(workload):
    return [(item, workload.run(item)) for item in workload.round_inputs()]


def check(cls, records, tmp_path):
    """All problems a fresh workload finds in ``records``, as one checked round."""
    workload = cls(0, tmp_path)
    return workload.check(records) + workload.finish()


# ---------------------------------------------------------------------------
# exact 1-D optimum
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("costs", [checks.polyhedral_l1(1.5), checks.glb(1.0, 2.0, 3.0)])
def test_exact_opt_matches_brute_force(costs):
    rng = np.random.default_rng(5)
    lattice = np.round(np.arange(0.0, 3.01, 0.1), 10)
    for _ in range(5):
        v = rng.choice(lattice, size=3)
        start = float(rng.choice(lattice))
        brute = min(checks.trajectory_cost(costs, v, start, np.array(x))
                    for x in itertools.product(lattice, repeat=3))
        assert checks.exact_opt_1d(costs, v, start) == pytest.approx(brute, abs=1e-9)


def test_exact_quadratic_opt_matches_numeric_minimum():
    from scipy.optimize import minimize
    rng = np.random.default_rng(6)
    costs = checks.quadratic(2.0)
    for _ in range(5):
        v, start = rng.normal(size=6), float(rng.normal())
        found = minimize(lambda x: checks.trajectory_cost(costs, v, start, x),
                         np.zeros(6), method="BFGS", options={"gtol": 1e-10})
        assert checks.exact_opt_quadratic_1d(2.0, v, start) == pytest.approx(found.fun,
                                                                             rel=1e-8)


# ---------------------------------------------------------------------------
# sweep-1d
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    return run_round(Sweep1D(3, tmp_path_factory.mktemp("sweep")))


def corrupt_csv(item, algorithm, field, new):
    rows = item["out"].read_text().splitlines()
    header = rows[0].split(",")
    for i, line in enumerate(rows[1:], 1):
        cells = line.split(",")
        if cells[1] == algorithm:
            cells[header.index(field)] = new(cells[header.index(field)])
            rows[i] = ",".join(cells)
            break
    item["out"].write_text("\n".join(rows) + "\n")


def test_sweep_accepts_program_output(sweep, tmp_path):
    assert check(Sweep1D, sweep, tmp_path) == []


@pytest.mark.parametrize("family, algorithm, field, new, expect", [
    (0, "greedy", "cost", lambda c: repr(float(c) * 1.001), "greedy cost"),
    (0, "sfhc", "cost", lambda c: "0.01", "below exact OPT"),
    (1, "dsfhc", "opt_cost", lambda c: "0.01", "below exact OPT"),
    (2, "afhc", "cost", lambda c: "nan", "row"),
    (1, "rsfhc-a", "ratio", lambda c: c + "1", "different CSV"),
    (3, "sfhc", "cost", lambda c: "0.01", "below exact OPT"),
    (3, "dsfhc", "opt_cost", lambda c: repr(float(c) * 1.001), "!= exact OPT"),
    (3, "greedy", "cost", lambda c: repr(float(c) * 1.001), "greedy cost"),
])
def test_sweep_rejects_corrupted_rows(sweep, tmp_path, family, algorithm, field, new,
                                      expect):
    item, out = sweep[family]
    copy = dict(item, out=tmp_path / "rows.csv")
    copy["out"].write_bytes(item["out"].read_bytes())
    corrupt_csv(copy, algorithm, field, new)
    problems = check(Sweep1D, [(copy, out)], tmp_path)
    assert any(expect in p for p in problems), problems


def test_sweep_rejects_failed_command(sweep, tmp_path):
    item, (_, err) = sweep[0]
    assert any("exit code 1" in p for p in check(Sweep1D, [(item, (1, err))], tmp_path))
    assert any("summary" in p for p in check(Sweep1D, [(item, (0, "{}"))], tmp_path))


# ---------------------------------------------------------------------------
# chase-2d
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def chase(tmp_path_factory):
    return run_round(Chase2D(4, tmp_path_factory.mktemp("chase")))[0][1]


def test_chase_accepts_program_output(chase):
    assert checks.check_chase(chase) == []


def shifted(points, index, delta):
    pts = np.array(points, dtype=float)
    pts[index] += delta
    return pts


@pytest.mark.parametrize("change, expect", [
    (lambda o: {"chase_points": shifted(o["chase_points"], (0, 1), -0.5)}, "outside epigraph"),
    (lambda o: {"chase_points": shifted(o["chase_points"], (1, 1), 0.2)}, "off the plane"),
    (lambda o: {"chase_cost": o["chase_cost"] + 1e-3}, "chase cost"),
    (lambda o: {"lifted_cost": o["lifted_cost"] * 1.01}, "lifted cost"),
    (lambda o: {"opt_cost": o["opt_cost"] + 0.05}, "exact OPT"),
    (lambda o: {"mapped_points": shifted(o["mapped_points"], 2, 0.1)}, "epigraph visits"),
    (lambda o: {"chasing_opt": o["lifted_cost"] + 1.0}, "A10: chasing OPT"),
])
def test_chase_rejects_corrupted_output(chase, change, expect):
    problems = checks.check_chase(dict(chase, **change(chase)))
    assert any(expect in p for p in problems), problems


# ---------------------------------------------------------------------------
# game-spike
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def games(tmp_path_factory):
    workload = GameSpike(5, tmp_path_factory.mktemp("game"))
    return [(item, workload.run(item)) for item in workload.round_inputs()[:2]]


def test_games_accept_program_output(games, tmp_path):
    assert [out["learner"] for _, out in games] == ["rsfhc-b", "dsfhc"]
    assert check(GameSpike, games + games, tmp_path) == []


@pytest.mark.parametrize("index, change, expect", [
    (0, lambda o: {"learner_cost": o["learner_cost"] * 1.001}, "learner cost"),
    (0, lambda o: {"adversary_points": shifted(o["adversary_points"], 3, 0.01)},
     "adversary cost"),
    (1, lambda o: {"learner_points": shifted(o["learner_points"], 10, 1e-6)},
     "offline replay"),
    (0, lambda o: {"reveal_clock": tuple(c - 3 if i == 20 else c
                                         for i, c in enumerate(o["reveal_clock"]))},
     "window allows"),
])
def test_games_reject_corrupted_output(games, tmp_path, index, change, expect):
    item, out = games[index]
    problems = check(GameSpike, games + [(item, dict(out, **change(out)))], tmp_path)
    assert any(expect in p for p in problems), problems


def test_a09_rejects_learner_above_bound():
    assert checks.check_a09([1.0, 1.1, 0.9], [1.0, 1.0, 1.0], 2.0) == []
    assert checks.check_a09([3.0, 3.1, 2.9], [1.0, 1.0, 1.0], 2.0) != []


# ---------------------------------------------------------------------------
# run.py: a failed item makes the run incorrect
# ---------------------------------------------------------------------------

class HalfFailing:
    """Rounds of two items, the second of which raises."""

    def __init__(self, seed, workdir):
        pass

    def warm_up_inputs(self):
        return [0]

    def round_inputs(self):
        return [0, 1]

    def run(self, item):
        if item:
            raise ValueError("broken item")
        return item

    def check(self, records):
        return []

    def finish(self):
        return []


def test_failed_item_makes_run_incorrect(monkeypatch, capsys):
    import json
    import run
    import workloads
    monkeypatch.setitem(workloads.WORKLOADS, "chase-2d", HalfFailing)
    code = run.main(["--workload", "chase-2d", "--seed", "0", "--seconds", "0",
                     "--trace", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 4, 2)

import numpy as np
import pytest

from soco_lab import (
    AnchorSet,
    Grid,
    WindowSolver,
    constrained_offline,
    default_grid,
    evaluate_total_cost,
    make_glb,
    make_polyhedral,
    make_ripple,
    make_strongly_convex,
    movement_cost,
    offline_optimal,
    offline_optimal_grid,
    offline_optimal_quadratic,
    padded_movement,
    run_greedy,
    solve_segments,
)
from soco_lab.model import Instance
from soco_lab.adversary import RandomWalk, minimizer_path
from soco_lab.reductions import CbcInstance, cbc_to_indicator_instance, interval

from monolithic import monolithic_optimum


def lattice_quadratic(T, seed, grid=None, m=2.0):
    grid = grid or Grid.make(-8.0, 8.0, 201, dim=1)
    rng = np.random.default_rng(seed)
    path = minimizer_path(RandomWalk(0.5), T, 1, rng, base=np.zeros(1), grid=grid)
    return make_strongly_convex(m, path, start=[0.0]), grid


def test_grid_opt_zero_when_staying_is_free():
    inst = make_strongly_convex(2.0, np.zeros((4, 1)), start=[0.0])
    res = offline_optimal_grid(inst, Grid.make(-2, 2, 41, dim=1))
    assert res.cost == 0.0
    assert np.all(res.trajectory.points == 0.0)


def test_grid_opt_matches_exact_quadratic_small():
    inst = make_strongly_convex(2.0, [[1.0], [1.0]], start=[0.0])
    grid = Grid.make(-2.0, 2.0, 401, dim=1)
    g = offline_optimal_grid(inst, grid)
    e = offline_optimal_quadratic(inst)
    spacing = grid.spacing().max()
    assert g.cost >= e.cost - 1e-12
    assert g.cost <= e.cost + 8 * spacing  # one-spacing-per-point slope budget


def test_grid_opt_interval_chasing_encoding():
    # chase [1, 2] then [0, 0.5] from 0 with l1 movement: cost 1 + 0.5
    cbc = CbcInstance(1, np.zeros(1), (interval(1, 2), interval(0, 0.5)),
                      movement_cost("norm_l1"))
    inst = cbc_to_indicator_instance(cbc)
    res = offline_optimal_grid(inst, Grid.make(0.0, 2.0, 201, dim=1))
    assert res.cost == pytest.approx(1.5, abs=1e-9)


def test_grid_opt_rejects_oversized_grid():
    # the joint DP refuses 1001 x 1001 points; a separable instance solves
    # on the same lattice, one 1001-point axis at a time
    grid = Grid.make(-1, 1, 1001, dim=2)
    inst = make_polyhedral(1.0, np.zeros((2, 2)), p=2, start=[0.0, 0.0])
    with pytest.raises(ValueError, match="reduce n"):
        offline_optimal_grid(inst, grid)
    inst = make_strongly_convex(2.0, np.zeros((2, 2)), start=[0.0, 0.0])
    assert offline_optimal_grid(inst, grid).cost == 0.0


def test_exact_quadratic_single_step():
    for m, v, x0 in [(3.0, 1.0, 0.0), (0.5, -2.0, 1.0)]:
        inst = make_strongly_convex(m, [[v]], start=[x0])
        res = offline_optimal_quadratic(inst)
        assert res.trajectory.points[0, 0] == pytest.approx((m * v + x0) / (m + 1))


def test_exact_quadratic_stationary_path_is_free():
    inst = make_strongly_convex(2.0, np.full((5, 2), 0.3), start=[0.3, 0.3])
    assert offline_optimal_quadratic(inst).cost == pytest.approx(0.0, abs=1e-18)


def test_exact_quadratic_agrees_with_grid_T30():
    inst, grid = lattice_quadratic(30, seed=9)
    e = offline_optimal_quadratic(inst)
    g = offline_optimal_grid(inst, grid)
    assert g.cost >= e.cost - 1e-12
    assert g.cost <= e.cost + 30 * 4.0 * grid.spacing().max() ** 2  # curvature budget


def test_exact_quadratic_rejects_other_families():
    inst = make_polyhedral(1.0, [[0.0]])
    with pytest.raises(ValueError):
        offline_optimal_quadratic(inst)


ORACLE_INSTANCES = {
    "strongly_convex": lambda path: make_strongly_convex(2.0, path, start=[0.0]),
    "polyhedral": lambda path: make_polyhedral(1.0, path, p=1, start=[0.0]),
    "glb": lambda path: make_glb([0.2], [1.0], [1.0], np.abs(path)),
    "ripple": lambda path: make_ripple(0.5, 1.0, 4.0, path, start=[0.0]),
}


@pytest.mark.parametrize("family, method, expected", [
    ("strongly_convex", "auto", "exact_quadratic"),
    ("polyhedral", "auto", "grid_dp"),
    ("glb", "auto", "grid_dp"),
    ("ripple", "auto", "grid_dp"),
    ("strongly_convex", "grid", "grid_dp"),
    ("polyhedral", "grid", "grid_dp"),
    ("strongly_convex", "exact_quadratic", "exact_quadratic"),
])
def test_offline_optimal_dispatch(family, method, expected):
    # offline_optimal is the one place that picks the closed form or the lattice
    path = minimizer_path(RandomWalk(0.5), 6, 1, np.random.default_rng(4), base=np.zeros(1))
    inst = ORACLE_INSTANCES[family](path)
    grid = default_grid(inst, 101)
    res = offline_optimal(inst, grid, method)
    assert res.method == expected
    reference = (offline_optimal_quadratic(inst) if expected == "exact_quadratic"
                 else offline_optimal_grid(inst, grid))
    assert res.cost == reference.cost
    assert np.array_equal(res.trajectory.points, reference.trajectory.points)


@pytest.mark.parametrize("family", sorted(ORACLE_INSTANCES))
def test_oracle_on_a_warm_solver_equals_a_cold_one(family):
    # the oracle run on a window solver whose stage memo already holds the
    # windows of every phase shares those stages and still gives the cold
    # optimum, bit for bit; a solver on another lattice is refused
    path = minimizer_path(RandomWalk(0.5), 9, 1, np.random.default_rng(5), base=np.zeros(1))
    inst = ORACLE_INSTANCES[family](path)
    grid = default_grid(inst, 101)
    solver = WindowSolver(grid)
    solve_segments(inst, [AnchorSet.phase(h, 3, 9) for h in range(3)], solver)
    for method in ("auto", "grid"):
        warm = offline_optimal(inst, grid, method, solver=solver)
        cold = offline_optimal(inst, grid, method)
        assert warm.method == cold.method and warm.cost == cold.cost
        assert np.array_equal(warm.trajectory.points, cold.trajectory.points)
    assert offline_optimal_grid(inst, solver=solver).cost == offline_optimal_grid(inst, grid).cost
    with pytest.raises(ValueError, match="solver's lattice is not the oracle's grid"):
        offline_optimal_grid(inst, default_grid(inst, 51), solver)


def test_offline_optimal_rejects_bad_methods():
    poly = make_polyhedral(1.0, [[0.5], [1.0]], p=1, start=[0.0])
    with pytest.raises(ValueError, match="exact quadratic oracle needs"):
        offline_optimal(poly, method="exact_quadratic")
    with pytest.raises(ValueError, match="unknown oracle method 'exact'"):
        offline_optimal(poly, method="exact")


def test_constrained_fully_anchored_is_greedy():
    inst, grid = lattice_quadratic(8, seed=1)
    res = constrained_offline(inst, AnchorSet.phase(0, 1, 8), WindowSolver(grid))
    assert res.cost == pytest.approx(run_greedy(inst).total, rel=1e-12)


def test_constrained_start_only_is_unconstrained():
    inst, _ = lattice_quadratic(8, seed=2)
    res = constrained_offline(inst, [0])
    assert res.cost == pytest.approx(offline_optimal_quadratic(inst).cost, rel=1e-10)


def test_constrained_dominates_unconstrained():
    for seed in range(5):
        inst, _ = lattice_quadratic(12, seed=seed)
        opt = offline_optimal_quadratic(inst).cost
        for anchors in ([0, 3, 6, 9], [0, 2, 4, 6, 8, 10], [0, 5]):
            res = constrained_offline(inst, anchors)
            assert res.cost >= opt - 1e-12


def test_constrained_upper_bound_against_comparison_sequences():
    # cost(constrained) <= C(x') + (eta/lam) sum_anchors H'_s
    #                      + (eta-1) sum_anchors (M'_s + M'_{s+1})
    rng = np.random.default_rng(13)
    inst, _ = lattice_quadratic(12, seed=5)
    eta, lam = 2.0, 1.0
    anchors = [0, 3, 6, 9, 12]
    res = constrained_offline(inst, anchors)
    for _ in range(20):
        xs = rng.uniform(-3, 3, size=(12, 1))
        traj = evaluate_total_cost(inst, xs)
        mo = padded_movement(traj.per_step_movement)
        inner = [s for s in anchors if 1 <= s <= 12]
        rhs = traj.total \
            + (eta / lam) * sum(traj.per_step_hitting[s - 1] for s in inner) \
            + (eta - 1) * sum(mo[s - 1] + mo[s] for s in inner)
        assert res.cost <= rhs + 1e-9


def test_constrained_gap_one_allowed():
    inst, _ = lattice_quadratic(6, seed=3)
    res = constrained_offline(inst, [0, 1, 2, 3, 4, 5, 6])
    assert res.cost == pytest.approx(run_greedy(inst).total, rel=1e-12)
    with pytest.raises(ValueError):
        constrained_offline(inst, [0, 3, 9])  # beyond the horizon


@pytest.mark.parametrize("family", sorted(ORACLE_INSTANCES))
def test_anchors_are_written_not_solved(monkeypatch, family):
    # an anchored timestep is data: its decision is the minimizer, a run
    # anchored at every timestep calls no solver and reports the method
    # "anchors", and a window (a, a+1] is its anchor alone
    path = minimizer_path(RandomWalk(0.5), 7, 1, np.random.default_rng(5), base=np.zeros(1))
    inst = ORACLE_INSTANCES[family](path)
    solver = WindowSolver(default_grid(inst))
    anchors = [0, 1, 2, 5, 7]
    some = constrained_offline(inst, anchors, solver)
    assert some.method == ("exact_quadratic" if family == "strongly_convex" else "grid_dp")
    assert np.array_equal(some.trajectory.points[[0, 1, 4, 6]],
                          inst.minimizers()[[0, 1, 4, 6]])

    def solve_batch(self, problems):
        raise AssertionError(f"solved {len(problems)} windows")

    monkeypatch.setattr(WindowSolver, "solve_batch", solve_batch)
    every = constrained_offline(inst, AnchorSet.phase(0, 1, 7), solver)
    assert every.method == "anchors" and every.cost == run_greedy(inst).total
    assert np.array_equal(every.trajectory.points, inst.minimizers())
    points, tags = solve_segments(inst, [range(1, 8)], solver)
    assert tags == [set()] and np.array_equal(points[0], inst.minimizers())


def test_constrained_method_of_several_solvers_is_mixed():
    # quadratic windows take the closed form, the others the lattice DP
    path = minimizer_path(RandomWalk(0.5), 6, 1, np.random.default_rng(6), base=np.zeros(1))
    quad, ripple = make_strongly_convex(2.0, path), make_ripple(0.5, 1.0, 4.0, path)
    inst = Instance(1, 6, np.zeros(1), quad.hitting[:3] + ripple.hitting[3:], quad.movement)
    solver = WindowSolver(default_grid(inst))
    assert constrained_offline(inst, [0, 3], solver).method == "mixed"
    # pinned windows add no tag: the one solved window is (0, 2]
    assert constrained_offline(inst, [0, 2, 3, 4, 5, 6], solver).method == "exact_quadratic"


def test_monolithic_matches_segments_on_lattice():
    # in 2-D the segments are solved per coordinate and the monolithic
    # program, whose pinned costs do not split, by the joint DP
    for grid in (Grid.make(-8.0, 8.0, 161, dim=1), Grid.make(-4.0, 4.0, 41, dim=2)):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            path = minimizer_path(RandomWalk(0.6), 10, grid.dim, rng,
                                  base=np.zeros(grid.dim), grid=grid)
            inst = make_polyhedral(1.0, path, p=1, start=np.zeros(grid.dim))
            solver = WindowSolver(grid)
            seg = constrained_offline(inst, [0, 3, 6, 9], solver)
            mono = monolithic_optimum(inst, grid, AnchorSet((0, 3, 6, 9)).members)
            assert seg.cost == pytest.approx(mono.cost, abs=1e-9)


def test_dp_beats_random_lattice_trajectories(rng):
    grid = Grid.make(-4.0, 4.0, 101, dim=1)
    path = minimizer_path(RandomWalk(0.5), 10, 1, rng, base=np.zeros(1), grid=grid)
    inst = make_polyhedral(1.5, path, p=1, start=[0.0])
    res = offline_optimal_grid(inst, grid)
    pts = grid.points()
    for _ in range(1000):
        sample = pts[rng.integers(0, grid.size, size=10)]
        assert res.cost <= evaluate_total_cost(inst, sample).total + 1e-12


def test_grid_opt_matches_exhaustive_enumeration():
    # independent oracle: enumerate every lattice path of a tiny instance
    from itertools import product

    grid = Grid.make(-1.0, 1.0, 5, dim=1)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        path = np.stack([grid.snap(p)[0]
                         for p in rng.uniform(-1, 1, size=(3, 1))])
        inst = make_polyhedral(1.0, path, p=1, start=[0.0])
        pts = grid.points()
        brute = min(evaluate_total_cost(inst, np.array(combo)).total
                    for combo in product(pts, repeat=3))
        res = offline_optimal_grid(inst, grid)
        assert res.cost == pytest.approx(brute, abs=1e-12)


def test_constrained_matches_exhaustive_enumeration():
    from itertools import product

    grid = Grid.make(-1.0, 1.0, 5, dim=1)
    rng = np.random.default_rng(3)
    path = np.stack([grid.snap(p)[0] for p in rng.uniform(-1, 1, size=(4, 1))])
    inst = make_polyhedral(1.0, path, p=1, start=[0.0])
    anchors = AnchorSet((0, 2))
    pts = grid.points()
    v2 = inst.hitting[1].minimizer
    brute = min(evaluate_total_cost(
        inst, np.array([a, v2, c, d])).total
        for a, c, d in product(pts, pts, pts))
    res = constrained_offline(inst, anchors, WindowSolver(grid))
    assert res.cost == pytest.approx(brute, abs=1e-12)
    mono = monolithic_optimum(inst, grid, anchors.members)
    assert mono.cost == pytest.approx(brute, abs=1e-12)


def test_grid_opt_two_dimensional_cross_check():
    rng = np.random.default_rng(5)
    path = np.cumsum(0.3 * rng.standard_normal((6, 2)), axis=0)
    inst = make_strongly_convex(2.0, path, start=[0.0, 0.0])
    grid = Grid.make(-3.0, 3.0, 41, dim=2)
    g = offline_optimal_grid(inst, grid)
    e = offline_optimal_quadratic(inst)
    assert g.cost >= e.cost - 1e-12
    assert g.cost <= e.cost + 6 * 6.0 * grid.spacing().max() ** 2
    mono = monolithic_optimum(inst, grid, AnchorSet((0, 2, 4)).members)
    seg = constrained_offline(inst, [0, 2, 4])
    assert mono.cost >= seg.cost - 1e-9


def test_backpointer_trajectory_attains_cost():
    inst, grid = lattice_quadratic(15, seed=8)
    res = offline_optimal_grid(inst, grid)
    again = evaluate_total_cost(inst, res.trajectory.points)
    assert again.total == pytest.approx(res.cost, rel=1e-12)

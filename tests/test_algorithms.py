import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from soco_lab import (
    AnchorSet,
    Grid,
    WindowProblem,
    WindowSolver,
    anchor_segments,
    constrained_offline,
    evaluate_total_cost,
    gap_support,
    gen_anchor_sequence,
    make_glb,
    make_polyhedral,
    make_ripple,
    make_strongly_convex,
    offline_optimal_grid,
    offline_optimal_quadratic,
    padded_movement,
    rsfhc_a_expected_cost,
    run_afhc,
    run_dsfhc,
    run_greedy,
    run_rsfhc_a,
    run_rsfhc_b,
    run_sfhc,
    sfhc_subroutine_costs,
    solve_plans,
    solver_for,
)
from soco_lab.algorithms import (
    afhc_plan,
    dsfhc_plan,
    plan_costs,
    rsfhc_a_plan,
    rsfhc_b_plan,
    sfhc_plan,
    subroutine_mean_plan,
)
from soco_lab.adversary import RandomWalk, minimizer_path
from soco_lab.windows import _GridEval

from monolithic import monolithic_optimum


def quad(T=12, m=2.0, seed=0, step=0.6):
    rng = np.random.default_rng(seed)
    path = np.cumsum(step * rng.standard_normal((T, 1)), axis=0)
    return make_strongly_convex(m, path, start=[0.0])


def lattice_family(kind, T, seed, grid):
    rng = np.random.default_rng(seed)
    nonneg = kind == "glb"
    path = minimizer_path(RandomWalk(0.8), T, 1, rng, grid=grid, nonnegative=nonneg)
    if kind == "polyhedral":
        return make_polyhedral(1.0, path, p=1, start=[0.0])
    if kind == "glb":
        return make_glb([1.0], [2.0], [1.5], path, start=[0.0])
    if kind == "ripple":
        return make_ripple(1.0, 1.0, 6.0, path, start=[0.0])
    raise ValueError(kind)


def test_w1_is_greedy():
    inst = quad()
    traj = run_sfhc(inst, 1, 0)
    assert np.array_equal(traj.points, inst.minimizers())
    assert traj.total == pytest.approx(run_greedy(inst).total)


def test_anchor_points_exact():
    inst = quad(T=13, seed=4)
    for w, h in [(3, 0), (3, 2), (5, 1)]:
        traj = run_sfhc(inst, w, h)
        for t in AnchorSet.phase(h, w, 13).members:
            if t >= 1:
                assert np.array_equal(traj.points[t - 1],
                                      inst.hitting[t - 1].minimizer)


def test_sfhc_small_matches_constrained_oracle():
    inst = quad(T=3, seed=7)
    traj = run_sfhc(inst, 2, 0)
    assert np.array_equal(traj.points[1], inst.hitting[1].minimizer)
    res = constrained_offline(inst, [0, 2])
    assert traj.total == pytest.approx(res.cost, abs=1e-8)


def test_sfhc_full_window_is_unconstrained_opt():
    inst = quad(T=6, seed=2)
    traj = run_sfhc(inst, 7, 0)
    assert traj.total == pytest.approx(offline_optimal_quadratic(inst).cost, abs=1e-10)


def test_sfhc_equals_monolithic_constrained_program():
    grid = Grid.make(-8.0, 8.0, 161, dim=1)
    inst = lattice_family("polyhedral", 10, 3, grid)
    solver = WindowSolver(grid)
    for h in range(3):
        traj = run_sfhc(inst, 3, h, solver)
        mono = monolithic_optimum(inst, grid, AnchorSet.phase(h, 3, 10).members)
        assert traj.total == pytest.approx(mono.cost, abs=1e-9)


def _covers_horizon_once(segments, T):
    covered = sorted(t for a, b in segments for t in range(a + 1, min(b, T) + 1))
    return covered == list(range(1, T + 1))


@given(st.integers(1, 25), st.integers(1, 9), st.data())
def test_segments_respect_prediction_window(T, w, data):
    # phase anchors: gaps of w, so every window reads at most w costs ahead
    h = data.draw(st.integers(0, w - 1))
    segments = anchor_segments(AnchorSet.phase(h, w, T), T)
    assert all(b - a <= w for a, b in segments)
    assert _covers_horizon_once(segments, T)
    # randomized anchors: gaps in (w/2, w-1], and the tail is no longer
    if w >= 4:
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        anchors = gen_anchor_sequence(w, T, np.random.default_rng(seed))
        segments = anchor_segments(anchors, T)
        assert all(b - a <= w - 1 for a, b in segments)
        assert _covers_horizon_once(segments, T)


@given(st.integers(4, 16), st.integers(1, 60), st.integers(0, 2 ** 32 - 1))
def test_gap_law_support_property(w, T, seed):
    support = gap_support(w)
    assert all(2 * n > w and n <= w - 1 for n in support)
    anchors = gen_anchor_sequence(w, T, np.random.default_rng(seed))
    gaps = np.diff(anchors.members)
    assert anchors.members[0] == 0
    assert np.all(gaps >= 2) and np.all(gaps <= w - 1)


def test_subroutine_average_bound_quadratic():
    # mean subroutine cost <= (1 + (1/w) max(eta/lam, 2(eta-1))) * OPT
    for seed in range(5):
        inst = quad(T=16, seed=seed)
        opt = offline_optimal_quadratic(inst).cost
        for w in (2, 3, 5):
            avg = float(np.mean(sfhc_subroutine_costs(inst, w)))
            bound = (1 + (1 / w) * max(2.0 / 1.0, 2.0)) * opt
            assert avg <= bound + 1e-8


@pytest.mark.parametrize("kind", ["polyhedral", "glb", "ripple"])
def test_subroutine_average_bound_grid_families(kind):
    grid = Grid.make(0.0, 8.0, 161, dim=1) if kind == "glb" else \
        Grid.make(-8.0, 8.0, 161, dim=1)
    inst = lattice_family(kind, 12, 11, grid)
    solver = WindowSolver(grid)
    opt = offline_optimal_grid(inst, grid).cost
    eta, lam = inst.movement.eta, inst.lam
    for w in (2, 4):
        avg = float(np.mean(sfhc_subroutine_costs(inst, w, solver)))
        bound = (1 + (1 / w) * max(eta / lam, 2 * (eta - 1))) * opt
        assert avg <= bound + 1e-8


def test_greedy_refined_component_bound():
    # greedy total <= (1 + (eta^2+eta)/(2 lam)) * sum H* + eta^2 * sum M*
    cases = []
    for seed in range(4):
        inst = quad(T=14, seed=seed)
        cases.append((inst, offline_optimal_quadratic(inst).trajectory))
    grid = Grid.make(-8.0, 8.0, 161, dim=1)
    for kind in ("polyhedral", "glb", "ripple"):
        g = Grid.make(0.0, 8.0, 161, dim=1) if kind == "glb" else grid
        inst = lattice_family(kind, 12, 5, g)
        cases.append((inst, offline_optimal_grid(inst, g).trajectory))
    for inst, opt_traj in cases:
        eta, lam = inst.movement.eta, inst.lam
        lhs = run_greedy(inst).total
        rhs = (1 + (eta * eta + eta) / (2 * lam)) * opt_traj.per_step_hitting.sum() \
            + eta * eta * opt_traj.per_step_movement.sum()
        assert lhs <= rhs + 1e-9


def test_extra_cost_decomposition_per_phase():
    # cost(SFHC(h)) - cost(OPT) <= (eta/lam) sum_{anchors} H*_s
    #                              + (eta-1) sum_{anchors} (M*_s + M*_{s+1})
    inst = quad(T=15, seed=6)
    opt = offline_optimal_quadratic(inst)
    mo = padded_movement(opt.trajectory.per_step_movement)
    eta, lam = 2.0, 1.0
    for w in (2, 4):
        for h in range(w):
            anchors = [s for s in AnchorSet.phase(h, w, 15).members if s >= 1]
            extra = (eta / lam) * sum(opt.trajectory.per_step_hitting[s - 1]
                                      for s in anchors) \
                + (eta - 1) * sum(mo[s - 1] + mo[s] for s in anchors)
            assert run_sfhc(inst, w, h).total - opt.cost <= extra + 1e-9


def test_dsfhc_jensen_step_convex():
    for seed in range(4):
        inst = quad(T=14, seed=seed)
        for w in (2, 3, 5):
            dsfhc = run_dsfhc(inst, w)
            avg = float(np.mean(sfhc_subroutine_costs(inst, w)))
            assert dsfhc.total <= avg + 1e-8


def test_dsfhc_w1_is_greedy():
    inst = quad()
    assert run_dsfhc(inst, 1).total == pytest.approx(run_greedy(inst).total)


def test_dsfhc_stationary_minimizers():
    inst = make_strongly_convex(2.0, np.full((6, 1), 0.7), start=[0.7])
    traj = run_dsfhc(inst, 3)
    assert traj.total == pytest.approx(0.0, abs=1e-18)
    assert np.allclose(traj.points, 0.7)


def test_dsfhc_prediction_bound_quadratic():
    rng = np.random.default_rng(17)
    for _ in range(20):
        inst = quad(T=20, seed=int(rng.integers(1e9)))
        opt = offline_optimal_quadratic(inst).cost
        traj = run_dsfhc(inst, 4)
        assert traj.total <= (1 + 0.25 * max(4 / 2.0, 2)) * opt + 1e-8


def test_convexifiable_averaging_bound_ripple():
    grid = Grid.make(-8.0, 8.0, 201, dim=1)
    for seed in (0, 1):
        inst = lattice_family("ripple", 14, seed, grid)
        solver = WindowSolver(grid)
        alpha = inst.hitting[0].convexifier_bound
        lam = inst.lam
        for w in (2, 3):
            subs = sfhc_subroutine_costs(inst, w, solver)
            lhs = run_dsfhc(inst, w, solver).total
            assert lhs <= (1 / w) * (1 + alpha / lam) * sum(subs) + 1e-8


def test_dsfhc_ripple_three_dimensions_finite():
    # stiff non-convex 3-D costs: a fixed-step descent solver diverged here
    path = minimizer_path(RandomWalk(0.5), 10, 3, np.random.default_rng(2))
    inst = make_ripple(45.0, 0.3, 2.0, path)
    assert np.isfinite(run_dsfhc(inst, 2).total)


def test_rsfhc_a_matches_some_subroutine_and_is_deterministic():
    inst = quad(T=10, seed=3)
    t1 = run_rsfhc_a(inst, 3, np.random.default_rng(42))
    t2 = run_rsfhc_a(inst, 3, np.random.default_rng(42))
    assert np.array_equal(t1.points, t2.points)
    subs = sfhc_subroutine_costs(inst, 3)
    assert any(abs(t1.total - c) < 1e-12 for c in subs)
    assert rsfhc_a_expected_cost(inst, 3) == pytest.approx(float(np.mean(subs)))


def test_rsfhc_a_w1_is_greedy():
    inst = quad(T=8, seed=9)
    traj = run_rsfhc_a(inst, 1, np.random.default_rng(0))
    assert traj.total == pytest.approx(run_greedy(inst).total)


def test_gap_support_enumeration():
    assert gap_support(4) == [3]
    assert gap_support(6) == [4, 5]
    assert gap_support(8) == [5, 6, 7]


def test_gen_anchor_sequence_w4_deterministic():
    anchors = gen_anchor_sequence(4, 20, np.random.default_rng(0))
    assert anchors.members == (0, 3, 6, 9, 12, 15, 18)


def test_gen_anchor_sequence_gap_law(rng):
    mean = np.mean([np.diff(gen_anchor_sequence(8, 10 ** 4, rng).members).mean()
                    for _ in range(10)])
    assert mean == pytest.approx(6.0, abs=0.02)
    anchors = gen_anchor_sequence(6, 200, rng)
    gaps = np.diff(anchors.members)
    assert anchors.members[0] == 0
    assert set(gaps).issubset({4, 5})
    assert np.all(gaps >= 2) and np.all(gaps <= 5)


def test_gen_anchor_sequence_rejects_small_w():
    with pytest.raises(ValueError):
        gen_anchor_sequence(3, 10, np.random.default_rng(0))


def test_rsfhc_b_w4_equals_explicit_anchor_run():
    inst = quad(T=12, seed=5)
    traj = run_rsfhc_b(inst, 4, np.random.default_rng(1))
    res = constrained_offline(inst, [0, 3, 6, 9, 12])
    assert traj.total == pytest.approx(res.cost, abs=1e-8)


def test_rsfhc_b_matches_constrained_oracle_same_draw():
    inst = quad(T=14, seed=8)
    anchors = gen_anchor_sequence(6, 14, np.random.default_rng(123))
    traj = run_rsfhc_b(inst, 6, np.random.default_rng(123))
    res = constrained_offline(inst, anchors)
    assert traj.total == pytest.approx(res.cost, abs=1e-8)


def test_afhc_w1_per_step_minimization():
    inst = quad(T=10, seed=2, m=3.0)
    traj = run_afhc(inst, 1)
    prev = 0.0
    for t in range(10):
        v = inst.hitting[t].minimizer[0]
        expect = (3.0 * v + prev) / 4.0    # argmin (m/2)(x-v)^2 + (x-prev)^2/2
        assert traj.points[t, 0] == pytest.approx(expect, abs=1e-10)
        prev = expect


def test_afhc_stationary_fixed_point():
    inst = make_strongly_convex(2.0, np.full((6, 1), 1.3), start=[1.3])
    traj = run_afhc(inst, 3)
    assert traj.total == pytest.approx(0.0, abs=1e-18)


def test_afhc_recorded_alongside_dsfhc():
    inst = quad(T=12, seed=4)
    afhc = run_afhc(inst, 4)
    dsfhc = run_dsfhc(inst, 4)
    assert afhc.total >= 0 and dsfhc.total >= 0


def test_dsfhc_glb_stays_feasible_and_bounded():
    grid = Grid.make(0.0, 8.0, 161, dim=1)
    inst = lattice_family("glb", 10, 21, grid)
    solver = WindowSolver(grid)
    traj = run_dsfhc(inst, 3, solver)
    assert np.all(traj.points >= 0)
    opt = offline_optimal_grid(inst, grid).cost
    eta, lam = inst.movement.eta, inst.lam
    bound = (1 + (1 / 3) * max(eta / lam, 2 * (eta - 1))) * opt
    assert traj.total <= bound + 1e-8


def test_afhc_runs_on_grid_families():
    grid = Grid.make(-8.0, 8.0, 161, dim=1)
    inst = lattice_family("polyhedral", 10, 22, grid)
    traj = run_afhc(inst, 3, WindowSolver(grid))
    assert np.isfinite(traj.total) and traj.total >= 0


def test_anchor_set_validation():
    with pytest.raises(ValueError):
        AnchorSet.explicit([1, 3])      # must start at 0
    with pytest.raises(ValueError):
        AnchorSet.explicit([0, 1])      # gap < 2
    phase = AnchorSet.phase(1, 3, 10)
    assert np.all(np.diff(phase.members) == 3)
    assert phase.members[0] == 1 and phase.members[-1] <= 10
    with pytest.raises(ValueError):
        AnchorSet.phase(3, 3, 10)


BATCHED_CALLER_CASES = {
    "polyhedral": lambda path, x0: make_polyhedral(1.3, path, p=1, start=x0),
    "glb": lambda path, x0: make_glb([1.0], [2.0], [1.5], path, start=x0),
    "ripple": lambda path, x0: make_ripple(0.5, 1.0, 4.0, path, start=x0),
    "strongly_convex": lambda path, x0: make_strongly_convex(2.0, path, start=x0),
    "glb-2d": lambda path, x0: make_glb([1.0, 0.5], [2.0, 1.0], [3.0, 2.5], path, start=x0),
    # splits per axis into 1-D sq_l2_half windows: the bracketed min-plus
    "ripple-2d": lambda path, x0: make_ripple(0.5, 1.0, 4.0, path, start=x0),
    # l2 costs and movement do not split by coordinate: the joint 2-D DP,
    # whose backtracking recomputes each back-pointer
    "polyhedral-p2-2d": lambda path, x0: make_polyhedral(1.3, path, p=2, start=x0),
}


def batched_caller_instance(case, T=17, seed=3):
    rng = np.random.default_rng(seed)
    dim = 2 if case.endswith("2d") else 1
    path = np.abs(np.cumsum(0.7 * rng.standard_normal((T + 1, dim)), axis=0))
    return BATCHED_CALLER_CASES[case](path[1:], path[0])


def case_solver(inst):
    """A fresh solver on the case's lattice: the default one, or for the
    joint 2-D case an explicit 21 x 21 lattice over the anchors' box (the
    default there is about 201 x 201)."""
    if inst.dim == 1 or inst.hitting[0].params.get("p") != 2:
        return solver_for(inst)
    anchors = np.vstack([inst.start, inst.minimizers()])
    return WindowSolver(Grid.make(anchors.min(axis=0), anchors.max(axis=0), 21, dim=2))


def afhc_per_phase_reference(instance, w, solver):
    """``run_afhc`` as a chained loop per phase, one window at a time."""
    T = instance.horizon
    per_phase = []
    for h in range(w):
        points = np.empty((T, instance.dim))
        current = instance.start
        for a, b in anchor_segments(AnchorSet.phase(h, w, T), T):
            problem = WindowProblem(a, b, current, None,
                                    tuple(instance.hitting[a:min(b, T)]),
                                    instance.movement)
            points[a:min(b, T)] = solver(problem).free_points
            current = points[min(b, T) - 1]
        per_phase.append(points)
    if w == 1:
        return evaluate_total_cost(instance, per_phase[0])
    return evaluate_total_cost(instance, np.stack(per_phase).mean(axis=0))


@pytest.mark.parametrize("case", sorted(BATCHED_CALLER_CASES))
@pytest.mark.parametrize("w", [1, 2, 3, 5])
def test_phase_batch_equals_per_phase_runs(case, w):
    # the w phases solved as one batch give each phase's own run, bit for bit
    inst = batched_caller_instance(case)
    solver = case_solver(inst)
    per_phase = [run_sfhc(inst, w, h, solver) for h in range(w)]
    assert sfhc_subroutine_costs(inst, w, solver) == [t.total for t in per_phase]
    ref = evaluate_total_cost(inst, np.stack([t.points for t in per_phase]).mean(axis=0))
    got = run_dsfhc(inst, w, solver)
    assert np.array_equal(got.points, ref.points) and got.total == ref.total
    afhc = run_afhc(inst, w, solver)
    ref = afhc_per_phase_reference(inst, w, case_solver(inst))
    assert np.array_equal(afhc.points, ref.points) and afhc.total == ref.total


@pytest.mark.parametrize("case", sorted(BATCHED_CALLER_CASES))
@pytest.mark.parametrize("ws", [[1], [2, 4, 6], [5, 1, 3, 3], [6, 2]])
def test_afhc_lockstep_equals_each_w_alone(case, ws):
    # the chains of every w advance together, one batch per step, on one
    # solver; each w still gets its per-phase chained run, bit for bit
    inst = batched_caller_instance(case)
    plans = [afhc_plan(w, inst.horizon) for w in ws]
    runs = [plan.trajectory(inst, points)
            for plan, points in zip(plans, solve_plans(inst, plans, case_solver(inst)))]
    assert len(runs) == len(ws)
    for w, got in zip(ws, runs):
        ref = afhc_per_phase_reference(inst, w, case_solver(inst))
        assert np.array_equal(got.points, ref.points) and got.total == ref.total
    with pytest.raises(ValueError, match="w must be >= 1"):
        [afhc_plan(w, inst.horizon) for w in [2, 0]]
    assert solve_plans(inst, []) == []


@pytest.mark.parametrize("case", sorted(BATCHED_CALLER_CASES))
def test_plans_solved_together_equal_each_alone(case):
    # the plans of many rows, some sharing windows and some chained, solved
    # as one batch: each plan's runs are its runs solved alone, bit for bit
    inst = batched_caller_instance(case)
    T = inst.horizon
    rng = np.random.default_rng(4)
    plans = [sfhc_plan(2, 0, T), dsfhc_plan(2, T), dsfhc_plan(5, T), sfhc_plan(3, 1, T),
             rsfhc_b_plan(6, T, rng), subroutine_mean_plan(4, T), rsfhc_a_plan(4, T, rng),
             afhc_plan(3, T), afhc_plan(5, T)]
    together = solve_plans(inst, plans, case_solver(inst))
    for plan, got in zip(plans, together):
        alone = solve_plans(inst, [plan], case_solver(inst))[0]
        assert got.shape == (len(plan.anchor_sets), T, inst.dim)
        assert np.array_equal(got, alone)
    assert together[0].shape[0] == 1 and np.array_equal(together[0][0], together[1][0])
    assert plans[1].cost(inst, together[1]) == run_dsfhc(inst, 2, case_solver(inst)).total
    assert plans[5].cost(inst, together[5]) == rsfhc_a_expected_cost(inst, 4, case_solver(inst))
    # scored together, each plan costs what it costs alone
    costs = plan_costs(inst, plans, case_solver(inst))
    assert costs == [plan.cost(inst, got) for plan, got in zip(plans, together)]


@pytest.mark.parametrize("case", sorted(BATCHED_CALLER_CASES))
def test_plans_solved_again_make_no_minplus_call(monkeypatch, case):
    # every stage of a second solve of the same plans on the same solver
    # comes from the stage memo: no min-plus call, the same arrays
    inst = batched_caller_instance(case)
    T, solver = inst.horizon, case_solver(inst)
    plans = [dsfhc_plan(3, T), afhc_plan(2, T), afhc_plan(4, T),
             rsfhc_b_plan(5, T, np.random.default_rng(1))]
    first = solve_plans(inst, plans, solver)
    calls = []
    minplus = _GridEval.minplus
    monkeypatch.setattr(_GridEval, "minplus",
                        lambda self, *args: calls.append(1) or minplus(self, *args))
    again = solve_plans(inst, plans, solver)
    assert calls == []
    assert all(np.array_equal(a, b) for a, b in zip(first, again))


def test_batched_callers_reject_off_lattice_anchor():
    # one window of the batch has an anchor off the lattice: the call fails
    # and names the coordinate
    grid = Grid.make(-1.0, 1.0, 21, dim=1)
    inst = make_polyhedral(1.0, [[0.1], [0.4], [-0.3], [2.5], [0.2], [0.0]], p=1,
                           start=[0.0])
    for run in (run_dsfhc, sfhc_subroutine_costs):
        with pytest.raises(ValueError, match=r"point coordinate 2\.5 outside grid range"):
            run(inst, 3, WindowSolver(grid))
    # afhc anchors only at its own lattice points, so only the start can be off
    inst = make_polyhedral(1.0, [[0.1], [0.4], [-0.3], [0.2]], p=1, start=[-1.5])
    with pytest.raises(ValueError, match=r"point coordinate -1\.5 outside grid range"):
        run_afhc(inst, 2, WindowSolver(grid))

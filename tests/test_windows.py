import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from soco_lab import (
    Grid,
    HittingCost,
    WindowProblem,
    WindowSolver,
    as_point,
    build_window,
    default_grid,
    make_polyhedral,
    make_ripple,
    make_strongly_convex,
    movement_cost,
    solve_descent,
    solve_grid_dp,
    solve_quadratic_chain,
    window_objective,
)
from soco_lab.windows import SolverError, UnsupportedProblemError, _GridEval


def quad_instance(T=10, m=2.0, seed=0):
    rng = np.random.default_rng(seed)
    return make_strongly_convex(m, rng.uniform(-2, 2, (T, 1)), start=[0.0])


def test_build_window_interior():
    inst = quad_instance(T=10)
    wp = build_window(inst, 0, 2)
    assert wp.free_count == 1
    assert wp.right_anchor is not None
    assert np.array_equal(wp.right_anchor, inst.hitting[1].minimizer)
    assert np.array_equal(wp.left_anchor, inst.start)


def test_build_window_overshoot():
    inst = quad_instance(T=10)
    wp = build_window(inst, 8, 12)
    assert wp.free_count == 2          # timesteps 9, 10
    assert wp.right_anchor is None
    assert list(wp.free_times()) == [9, 10]


def test_build_window_zero_free():
    inst = quad_instance(T=10)
    wp = build_window(inst, 3, 4)
    assert wp.free_count == 0
    v3, v4 = inst.hitting[2].minimizer, inst.hitting[3].minimizer
    expect = inst.hitting[3](v4) + inst.movement(v4, v3)
    assert window_objective(wp, np.empty((0, 1))) == pytest.approx(expect)


@given(st.integers(0, 9), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
def test_build_window_free_count_rule(tau1, span, seed):
    # free_count is tau2 - tau1 - 1 inside the horizon, T - tau1 beyond it
    inst = quad_instance(T=10, seed=seed)
    tau2 = tau1 + span
    wp = build_window(inst, tau1, tau2)
    if tau2 <= 10:
        assert wp.free_count == tau2 - tau1 - 1
        assert wp.right_anchor is not None
    else:
        assert wp.free_count == 10 - tau1
        assert wp.right_anchor is None


def test_build_window_rejects_bad_range():
    inst = quad_instance()
    with pytest.raises(ValueError):
        build_window(inst, 3, 3)
    with pytest.raises(ValueError):
        build_window(inst, 4, 2)


def _single_free_quadratic(m, v, a, b):
    inst = make_strongly_convex(max(m, 1e-12), [[v], [0.0]], start=[a])
    wp = build_window(inst, 0, 2, left_override=[a])
    return WindowProblem(0, 2, as_point([a]), as_point([b]), wp.costs[:1] * 1 + (
        inst.hitting[1],), inst.movement), inst


def test_quadratic_chain_single_free_var():
    # one free y between anchors a, b with f(y) = (y - v)^2, i.e. m = 2:
    # stationarity gives y = (2 v + a + b) / 4
    inst = make_strongly_convex(2.0, [[1.0], [2.0]], start=[0.0])
    sol = solve_quadratic_chain(build_window(inst, 0, 2))
    assert sol.free_points[0, 0] == pytest.approx((2 * 1.0 + 0.0 + 2.0) / 4)
    assert sol.solver_tag == "exact_quadratic"


def test_quadratic_chain_symmetric_case():
    inst = make_strongly_convex(2.0, [[1.0], [1.0]], start=[1.0])
    sol = solve_quadratic_chain(build_window(inst, 0, 2))
    assert sol.free_points[0, 0] == pytest.approx(1.0)
    assert sol.objective == pytest.approx(0.0, abs=1e-12)


def test_quadratic_chain_zero_m_limit():
    # f == 0: minimize movement only -> midpoint of the anchors
    flat = HittingCost(lambda x: 0.0, as_point([0.0]), family_tag="strongly_convex",
                       params={"m": 0.0})
    anchored = HittingCost(lambda x: 0.0, as_point([3.0]), family_tag="strongly_convex",
                           params={"m": 0.0})
    wp = WindowProblem(0, 2, as_point([1.0]), as_point([3.0]), (flat, anchored),
                       movement_cost("sq_l2_half"))
    sol = solve_quadratic_chain(wp)
    assert sol.free_points[0, 0] == pytest.approx(2.0)


def test_quadratic_chain_rejects_other_costs():
    inst = make_polyhedral(1.0, [[0.0], [1.0]])
    with pytest.raises(UnsupportedProblemError):
        solve_quadratic_chain(build_window(inst, 0, 2))


def test_grid_dp_matches_exact_within_spacing():
    inst = quad_instance(T=8, seed=3)
    grid = default_grid(inst, n=201)
    for (a, b) in [(0, 4), (2, 6), (5, 9)]:
        wp = build_window(inst, a, b)
        exact = solve_quadratic_chain(wp)
        gsol = solve_grid_dp(wp, grid)
        assert gsol.objective >= exact.objective - 1e-12
        assert gsol.objective <= exact.objective + 0.1
        assert np.max(np.abs(gsol.free_points - exact.free_points)) <= \
            2 * grid.spacing().max()


def test_grid_dp_zero_free_direct_evaluation():
    inst = quad_instance(T=8)
    wp = build_window(inst, 3, 4)
    sol = solve_grid_dp(wp, default_grid(inst))
    assert sol.objective == pytest.approx(window_objective(wp, np.empty((0, 1))))


def test_grid_dp_dominates_greedy_candidate_on_ripple():
    grid = Grid.make(-6.0, 6.0, 201, dim=1)
    v = grid.points()[120]
    rip = make_ripple(1.0, 1.0, 6.0, [v, v + 0.06, [0.0]], start=[0.0])
    wp = build_window(rip, 0, 2)
    sol = solve_grid_dp(wp, grid)
    greedy_candidate = window_objective(wp, rip.hitting[0].minimizer[None, :])
    assert sol.objective <= greedy_candidate + 1e-12


def test_grid_dp_rejects_out_of_range_anchor():
    inst = quad_instance()
    grid = Grid.make(-0.1, 0.1, 11, dim=1)
    with pytest.raises(ValueError):
        solve_grid_dp(build_window(inst, 0, 3), grid)


def test_blocked_minplus_matches_dense(monkeypatch):
    # force the row-blocked sweep and compare against the dense result
    import soco_lab.windows as windows_mod

    inst = quad_instance(T=8, seed=3)
    grid = default_grid(inst, n=101)
    wp = build_window(inst, 0, 5)
    dense = solve_grid_dp(wp, grid)
    monkeypatch.setattr(windows_mod, "_DENSE_TRANSITION_LIMIT", 500)
    blocked = solve_grid_dp(wp, grid)
    assert blocked.objective == pytest.approx(dense.objective, abs=1e-12)
    assert np.array_equal(blocked.free_points, dense.free_points)


SEPARABLE_CASES = [("norm_l1", 1), ("rectified_linear", 1), ("norm_l2", 1),
                   ("norm_linf", 1), ("norm_l1", 2), ("rectified_linear", 2)]


@given(st.sampled_from(SEPARABLE_CASES), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_separable_minplus_matches_dense(case, integer_valued, seed):
    # the prefix-min kernel against the dense reference pairwise(pts, pts) + v;
    # integer values on a unit lattice give exact ties, where the lowest
    # flat index must win exactly as numpy's argmin picks it
    kind, dim = case
    rng = np.random.default_rng(seed)
    n = rng.integers(2, 12, dim)
    if integer_valued:
        grid = Grid.make(np.zeros(dim), n - 1.0, n, dim=dim)
        beta = rng.integers(1, 4, dim).astype(float)
        value = rng.integers(0, 4, grid.size).astype(float)
    else:
        lo = rng.uniform(-3, 0, dim)
        grid = Grid.make(lo, lo + rng.uniform(0.5, 4, dim), n, dim=dim)
        beta = rng.uniform(0.2, 3, dim)
        value = rng.normal(size=grid.size)
    movement = movement_cost(kind, beta=beta if kind == "rectified_linear" else None)
    cache = _GridEval()
    best, arg = cache.minplus(value, movement, grid)
    assert not cache._moves
    pts = grid.points()
    dense = movement.pairwise(pts, pts) + value[None, :]
    ref = dense.min(axis=1)
    assert np.max(np.abs(best - ref)) <= 1e-12
    assert np.max(np.abs(dense[np.arange(grid.size), arg] - ref)) <= 1e-12
    if integer_valued:
        assert np.array_equal(arg, dense.argmin(axis=1))


def _zero_on(targets):
    """Hitting cost that is 0 on the given points and 5 elsewhere."""
    targets = np.asarray(targets, dtype=float)

    def fn(x):
        gap = np.abs(np.asarray(x, dtype=float)[..., None, :] - targets).max(axis=-1)
        return np.where((gap < 1e-9).any(axis=-1), 0.0, 5.0)

    return HittingCost(fn, as_point(targets[0]))


def test_grid_dp_tie_breaks_to_lowest_index():
    # flat hitting cost + ramp movement: every lattice point at or below the
    # left anchor costs zero, so the solver must pick the lowest index.
    flat = HittingCost(lambda x: np.zeros(np.asarray(x).shape[:-1]) if
                       np.asarray(x).ndim > 1 else 0.0, as_point([0.0]))
    wp = WindowProblem(0, 2, as_point([2.0]), None, (flat,),
                       movement_cost("rectified_linear", beta=[1.0]))
    sol = solve_grid_dp(wp, Grid.make(0.0, 2.0, 5, dim=1))
    assert sol.free_points[0, 0] == pytest.approx(0.0)
    assert sol.objective == 0.0
    # 2-D l1: the corner (1, 1) is reached at cost 2 through either (0, 1)
    # (flat index 1) or (1, 0) (flat index 2); the back-pointer takes (0, 1).
    wp = WindowProblem(0, 3, as_point([0.0, 0.0]), None,
                       (_zero_on([[0.0, 1.0], [1.0, 0.0]]), _zero_on([[1.0, 1.0]])),
                       movement_cost("norm_l1"))
    sol = solve_grid_dp(wp, Grid.make([0.0, 0.0], [1.0, 1.0], [2, 2], dim=2))
    assert np.array_equal(sol.free_points, [[0.0, 1.0], [1.0, 1.0]])
    assert sol.objective == 2.0


def test_descent_matches_exact_single_var():
    inst = make_strongly_convex(2.0, [[1.0], [2.0]], start=[0.0])
    wp = build_window(inst, 0, 2)
    sol = solve_descent(wp, step=0.1, iters=20000, tol=1e-12)
    assert sol.free_points[0, 0] == pytest.approx(1.0, abs=1e-6)


def test_descent_zero_gradient_start():
    inst = make_strongly_convex(2.0, [[1.0], [1.0]], start=[1.0])
    sol = solve_descent(build_window(inst, 0, 2))
    assert sol.objective == pytest.approx(0.0, abs=1e-12)


def test_descent_divergence_detected():
    inst = make_strongly_convex(50.0, [[1.0], [0.5]], start=[0.0])
    with pytest.raises(SolverError):
        solve_descent(build_window(inst, 0, 2), step=0.2, iters=1000, tol=1e-14)


def test_descent_rejects_nonsmooth():
    inst = make_polyhedral(1.0, [[0.0], [1.0]])
    with pytest.raises(UnsupportedProblemError):
        solve_descent(build_window(inst, 0, 2))


def test_dispatch_routes_polyhedral_to_grid():
    inst = make_polyhedral(1.0, [[0.0], [1.0], [0.5]])
    solver = WindowSolver(default_grid(inst))
    sol = solver(build_window(inst, 0, 3))
    assert sol.solver_tag == "grid_dp"
    quad = quad_instance()
    assert WindowSolver()(build_window(quad, 0, 3)).solver_tag == "exact_quadratic"


def test_dispatch_routes_high_dimension_to_descent():
    rng = np.random.default_rng(1)
    inst = make_ripple(2.0, 0.1, 2.0, rng.uniform(-1, 1, (4, 3)),
                       start=np.zeros(3))
    sol = WindowSolver()(build_window(inst, 0, 3))
    assert sol.solver_tag == "descent"
    assert np.isfinite(sol.objective)


def test_solver_agreement_random_convex_windows():
    # exact vs grid within spacing * slope budget; exact vs descent to 1e-5
    rng = np.random.default_rng(11)
    for trial in range(50):
        T = int(rng.integers(3, 8))
        inst = make_strongly_convex(float(rng.uniform(0.5, 3.0)),
                                    rng.uniform(-2, 2, (T, 1)),
                                    start=rng.uniform(-1, 1, 1))
        a = int(rng.integers(0, T - 1))
        b = int(rng.integers(a + 2, a + 5))
        wp = build_window(inst, a, b)
        exact = solve_quadratic_chain(wp)
        grid = default_grid(inst, n=201)
        gsol = solve_grid_dp(wp, grid)
        m = inst.hitting[0].params["m"]
        width = float((np.asarray(grid.hi) - np.asarray(grid.lo)).max())
        budget = grid.spacing().max() * wp.free_count * (m * width + 2 * width)
        assert abs(exact.objective - gsol.objective) <= budget
        dsol = solve_descent(wp, step=0.05, iters=50000, tol=1e-11)
        assert abs(exact.objective - dsol.objective) <= 1e-5


def test_objective_reproduces_on_reevaluation():
    inst = quad_instance(T=8, seed=5)
    solver = WindowSolver(default_grid(inst))
    for a, b in [(0, 3), (2, 6), (6, 10)]:
        wp = build_window(inst, a, b)
        sol = solver(wp)
        assert sol.objective == pytest.approx(
            window_objective(wp, sol.free_points), rel=1e-9)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4))
def test_exact_solution_is_stationary(seed, free_count):
    # the chain solve zeroes the window gradient at every free variable
    rng = np.random.default_rng(seed)
    T = free_count + 2
    inst = make_strongly_convex(float(rng.uniform(0.2, 4.0)),
                                rng.uniform(-2, 2, (T, 1)),
                                start=rng.uniform(-1, 1, 1))
    wp = build_window(inst, 0, free_count + 1)
    sol = solve_quadratic_chain(wp)
    base = window_objective(wp, sol.free_points)
    eps = 1e-6
    for i in range(wp.free_count):
        for sign in (+1, -1):
            bumped = sol.free_points.copy()
            bumped[i, 0] += sign * eps
            assert window_objective(wp, bumped) >= base - 1e-9


@given(st.integers(0, 2 ** 32 - 1))
def test_window_objective_nonnegative_anywhere(seed):
    rng = np.random.default_rng(seed)
    inst = make_polyhedral(1.0, rng.uniform(-2, 2, (5, 1)), p=1,
                           start=rng.uniform(-1, 1, 1))
    wp = build_window(inst, 1, 4)
    val = window_objective(wp, rng.uniform(-5, 5, (wp.free_count, 1)))
    assert np.isfinite(val) and val >= 0


def test_overshoot_never_worse_than_anchored():
    # dropping the right anchor cannot increase the optimum of the same costs
    rng = np.random.default_rng(4)
    for _ in range(20):
        inst = quad_instance(T=6, seed=int(rng.integers(1e6)))
        anchored = build_window(inst, 1, 6)
        free = WindowProblem(1, 7, anchored.left_anchor, None, anchored.costs,
                             inst.movement)
        a_sol = solve_quadratic_chain(anchored)
        f_sol = solve_quadratic_chain(free)
        assert f_sol.objective <= a_sol.objective + 1e-12

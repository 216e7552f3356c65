from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scipy.linalg import solve_banded

from soco_lab import (
    Grid,
    HittingCost,
    MovementCost,
    WindowProblem,
    WindowSolver,
    anchor_segments,
    as_point,
    build_window,
    default_grid,
    make_glb,
    make_polyhedral,
    make_ripple,
    make_strongly_convex,
    movement_cost,
    run_afhc,
    run_dsfhc,
    solve_grid_dp,
    solve_grid_dp_batch,
    solve_quadratic_batch,
    solve_quadratic_chain,
    window_objective,
)
from soco_lab.windows import UnsupportedProblemError, _GridEval


def quad_instance(T=10, m=2.0, seed=0):
    rng = np.random.default_rng(seed)
    return make_strongly_convex(m, rng.uniform(-2, 2, (T, 1)), start=[0.0])


def test_grid_rejects_non_finite_bounds():
    for lo, hi in ((0.0, np.nan), (np.nan, 1.0), (-np.inf, 1.0), (0.0, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            Grid.make(lo, hi, 5)


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
    assert len(wp.costs) == 2
    assert wp.costs[0] is inst.hitting[8] and wp.costs[1] is inst.hitting[9]


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
    return WindowProblem(0, 2, as_point([a]), as_point([b]), tuple(inst.hitting),
                         inst.movement), inst


def test_quadratic_chain_single_free_var():
    # one free y between anchors a, b with f(y) = (y - v)^2, i.e. m = 2:
    # stationarity gives y = (2 v + a + b) / 4
    inst = make_strongly_convex(2.0, [[1.0], [2.0]], start=[0.0])
    sol = solve_quadratic_chain(build_window(inst, 0, 2))
    assert sol.free_points[0, 0] == pytest.approx((2 * 1.0 + 0.0 + 2.0) / 4)
    assert sol.solver_tag == "exact_quadratic"


def test_quadratic_chain_symmetric_case():
    inst = make_strongly_convex(2.0, [[1.0], [1.0]], start=[1.0])
    wp = build_window(inst, 0, 2)
    sol = solve_quadratic_chain(wp)
    assert sol.free_points[0, 0] == pytest.approx(1.0)
    assert window_objective(wp, sol.free_points) == pytest.approx(0.0, abs=1e-12)


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
        g_obj = window_objective(wp, gsol.free_points)
        e_obj = window_objective(wp, exact.free_points)
        assert g_obj >= e_obj - 1e-12
        assert g_obj <= e_obj + 0.1
        assert np.max(np.abs(gsol.free_points - exact.free_points)) <= \
            2 * grid.spacing().max()


def test_grid_dp_zero_free_direct_evaluation():
    inst = quad_instance(T=8)
    wp = build_window(inst, 3, 4)
    sol = solve_grid_dp(wp, default_grid(inst))
    assert sol.free_points.shape == (0, 1)
    assert window_objective(wp, sol.free_points) == pytest.approx(
        window_objective(wp, np.empty((0, 1))))


def test_grid_dp_dominates_greedy_candidate_on_ripple():
    grid = Grid.make(-6.0, 6.0, 201, dim=1)
    v = grid.points()[120]
    rip = make_ripple(1.0, 1.0, 6.0, [v, v + 0.06, [0.0]], start=[0.0])
    wp = build_window(rip, 0, 2)
    sol = solve_grid_dp(wp, grid)
    greedy_candidate = window_objective(wp, rip.hitting[0].minimizer[None, :])
    assert window_objective(wp, sol.free_points) <= greedy_candidate + 1e-12


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
    assert window_objective(wp, blocked.free_points) == pytest.approx(
        window_objective(wp, dense.free_points), abs=1e-12)
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
    assert window_objective(wp, sol.free_points) == 0.0
    # 2-D l1: the corner (1, 1) is reached at cost 2 through either (0, 1)
    # (flat index 1) or (1, 0) (flat index 2); the back-pointer takes (0, 1).
    wp = WindowProblem(0, 3, as_point([0.0, 0.0]), None,
                       (_zero_on([[0.0, 1.0], [1.0, 0.0]]), _zero_on([[1.0, 1.0]])),
                       movement_cost("norm_l1"))
    sol = solve_grid_dp(wp, Grid.make([0.0, 0.0], [1.0, 1.0], [2, 2], dim=2))
    assert np.array_equal(sol.free_points, [[0.0, 1.0], [1.0, 1.0]])
    assert window_objective(wp, sol.free_points) == 2.0


def test_dispatch_routes_polyhedral_to_grid():
    inst = make_polyhedral(1.0, [[0.0], [1.0], [0.5]])
    solver = WindowSolver(default_grid(inst))
    sol = solver(build_window(inst, 0, 3))
    assert sol.solver_tag == "grid_dp"
    quad = quad_instance()
    assert WindowSolver()(build_window(quad, 0, 3)).solver_tag == "exact_quadratic"


@pytest.mark.parametrize("family", ["polyhedral", "glb", "ripple"])
def test_solver_without_lattice_rejects_lattice_windows(family):
    # the lattice is the run's; a solver built without one makes none up
    path = [[0.5], [1.0], [0.8]]
    inst = {"polyhedral": lambda: make_polyhedral(1.0, path, p=1),
            "glb": lambda: make_glb([0.2], [1.0], [1.0], path),
            "ripple": lambda: make_ripple(0.5, 1.0, 4.0, path, start=[0.0])}[family]()
    with pytest.raises(UnsupportedProblemError, match=f"a {family} window needs a lattice"):
        WindowSolver()(build_window(inst, 0, 3))


def test_dispatch_routes_high_dimension_to_grid_dp():
    # a 3-D separable window is solved per coordinate on the lattice's axes;
    # a 3-D window that does not separate has no lattice solve
    rng = np.random.default_rng(1)
    path = rng.uniform(-1, 1, (4, 3))
    inst = make_ripple(2.0, 0.1, 2.0, path, start=np.zeros(3))
    wp = build_window(inst, 0, 3)
    grid = default_grid(inst, n=41)
    sol = WindowSolver(grid)(wp)
    assert sol.solver_tag == "grid_dp"
    assert sol.free_points.shape == (2, 3)
    for j, axis in enumerate(grid.axes()):
        assert np.isin(sol.free_points[:, j], axis).all()
    assert np.isfinite(window_objective(wp, sol.free_points))
    coupled = build_window(make_polyhedral(1.0, path, p=2, start=np.zeros(3)), 0, 3)
    with pytest.raises(UnsupportedProblemError, match="does not separate"):
        WindowSolver(grid)(coupled)


def test_solver_agreement_random_convex_windows():
    # exact vs grid within spacing * slope budget
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
        e_obj = window_objective(wp, exact.free_points)
        assert abs(e_obj - window_objective(wp, gsol.free_points)) <= budget


SEPARABLE_FAMILIES = {
    "polyhedral": lambda path, x0: make_polyhedral(1.3, path, p=1, start=x0),
    "glb": lambda path, x0: make_glb([1.0, 0.5], [2.0, 1.0], [3.0, 2.5], path, start=x0),
    "ripple": lambda path, x0: make_ripple(0.5, 1.0, 4.0, path, start=x0),
    "strongly_convex": lambda path, x0: make_strongly_convex(2.0, path, start=x0),
}


@given(st.sampled_from(sorted(SEPARABLE_FAMILIES)), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_axis_solve_matches_joint_dp(family, anchored, seed):
    # a 2-D separable window solved one axis at a time attains the joint
    # DP's optimum; the joint reference is the same window with the costs'
    # axis costs removed, on a lattice small enough for the dense kernel.
    # Anchors are lattice points, so tied optima score alike.
    rng = np.random.default_rng(seed)
    T = int(rng.integers(2, 6))
    grid = Grid.make([0.0, 0.0], [3.0, 2.5], rng.integers(5, 16, 2), dim=2)
    path = np.stack([grid.snap(p)[0] for p in rng.uniform(0.0, 2.5, (T + 1, 2))])
    inst = SEPARABLE_FAMILIES[family](path[1:], path[0])
    wp = build_window(inst, int(rng.integers(0, T - 1)), T if anchored else T + 1)
    joint = replace(wp, costs=tuple(replace(c, axes=None) for c in wp.costs))
    split = solve_grid_dp(wp, grid)
    ref = solve_grid_dp(joint, grid)
    assert split.free_points.shape == ref.free_points.shape
    assert window_objective(wp, split.free_points) == pytest.approx(
        window_objective(wp, ref.free_points), rel=1e-12, abs=1e-12)


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
        assert window_objective(free, f_sol.free_points) <= \
            window_objective(anchored, a_sol.free_points) + 1e-12


def _table_cost(grid, table):
    """Hitting cost equal to ``table`` (flat ij order) at the lattice points."""
    lo, step = np.array(grid.lo), grid.spacing()

    def fn(x):
        idx = np.rint((np.asarray(x, dtype=float) - lo) / step).astype(int)
        return table[np.ravel_multi_index(tuple(idx.T), grid.n)]

    return HittingCost(fn, as_point(grid.points()[int(np.argmin(table))]))


#: (kind of costs, dimension, movement kind or family parameter)
BATCH_CASES = [("polyhedral", 1, 1), ("polyhedral", 1, 2), ("glb", 1, None),
               ("ripple", 1, None), ("polyhedral", 3, 1), ("glb", 3, None),
               ("ripple", 3, None)] + [
    ("table", 1, kind) for kind in ("norm_l1", "rectified_linear", "norm_l2",
                                    "norm_linf", "sq_l2_half")] + [
    ("table", 2, kind) for kind in ("norm_l1", "rectified_linear", "norm_l2")]


def _family_batch(kind, dim, p, anchored, F, B, rng):
    """B windows of one generated instance, each at its own offset."""
    T = F + 6
    path = rng.uniform(0.0, 3.0, (T + 1, dim))
    if kind == "polyhedral":
        inst = make_polyhedral(1.3, path[1:], p=p, start=path[0])
    elif kind == "glb":
        inst = make_glb(np.full(dim, 1.0), np.linspace(1.0, 2.0, dim),
                        np.full(dim, 2.5), path[1:], start=path[0])
    else:
        inst = make_ripple(0.5, 1.0, 4.0, path[1:], start=path[0])
    grid = default_grid(inst, n=int(rng.integers(5, 41 if dim == 1 else 16)))
    problems = [build_window(inst, int(tau1), int(tau1) + F + 1)
                for tau1 in rng.integers(0, T - F, B)]
    if not anchored:
        problems = [replace(p, right_anchor=None, costs=p.costs[:F]) for p in problems]
    return grid, problems


def _table_batch(dim, kind, anchored, integer_valued, F, B, rng):
    """B windows with their own random cost tables and anchors.  Integer
    tables on a unit lattice with integer prices tie exactly; in 2-D some
    stages are pinned (+inf off one lattice point), as the oracle pins
    anchor stages."""
    n = rng.integers(2, 30 if dim == 1 else 8, dim)
    if integer_valued:
        grid = Grid.make(np.zeros(dim), n - 1.0, n, dim=dim)
        beta = rng.integers(1, 4, dim).astype(float)
    else:
        lo = rng.uniform(-3, 0, dim)
        grid = Grid.make(lo, lo + rng.uniform(0.5, 4, dim), n, dim=dim)
        beta = rng.uniform(0.2, 3, dim)
    movement = movement_cost(kind, beta=beta if kind == "rectified_linear" else None)
    pts = grid.points()

    def anchor():
        if integer_valued:
            return as_point(pts[rng.integers(grid.size)])
        return as_point(rng.uniform(grid.lo, grid.hi))

    def cost():
        table = (rng.integers(0, 4, grid.size).astype(float) if integer_valued
                 else rng.normal(size=grid.size))
        if dim == 2 and rng.random() < 0.3:
            table = np.where(np.arange(grid.size) == rng.integers(grid.size), table, np.inf)
        return _table_cost(grid, table)

    problems = [WindowProblem(0, F + 1, anchor(), anchor() if anchored else None,
                              tuple(cost() for _ in range(F + anchored)), movement)
                for _ in range(B)]
    return grid, problems


@given(st.sampled_from(BATCH_CASES), st.booleans(), st.booleans(), st.integers(0, 4),
       st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
def test_batch_equals_each_window_alone(case, anchored, integer_valued, F, B, seed):
    # one value-table column per window: every column must backtrack to the
    # points its window gets when solved alone, bit for bit, including the
    # lowest-index tie-breaks
    kind, dim, param = case
    rng = np.random.default_rng(seed)
    if kind == "table":
        grid, problems = _table_batch(dim, param, anchored, integer_valued, F, B, rng)
    else:
        grid, problems = _family_batch(kind, dim, param, anchored, F, B, rng)
    alone = [solve_grid_dp(p, grid).free_points for p in problems]
    batch = solve_grid_dp_batch(problems, grid, _GridEval())
    assert [s.solver_tag for s in batch] == ["grid_dp"] * B
    for ref, sol in zip(alone, batch):
        assert sol.free_points.shape == (F, dim)
        assert np.array_equal(sol.free_points, ref)


def test_solve_batch_keeps_order_across_kinds_of_window():
    # windows of different free counts, anchoring and solvers come back in
    # the order given, each as the solver gives it alone
    rng = np.random.default_rng(5)
    glb = make_glb([1.0], [2.0], [1.5], rng.uniform(0.0, 3.0, (12, 1)), start=[1.0])
    quad = quad_instance(T=12)
    problems = [build_window(inst, a, b) for inst in (glb, quad)
                for a, b in ((0, 3), (2, 4), (5, 13), (4, 9), (1, 2), (7, 10))]
    order = rng.permutation(len(problems))
    problems = [problems[i] for i in order]
    solver = WindowSolver(default_grid(glb))
    batch = solver.solve_batch(problems)
    for problem, sol in zip(problems, batch):
        ref = WindowSolver(default_grid(glb))(problem)
        assert sol.solver_tag == ref.solver_tag
        assert np.array_equal(sol.free_points, ref.free_points)


def test_batch_rejects_off_lattice_anchor_by_coordinate():
    inst = make_polyhedral(1.0, [[0.5], [0.2], [3.25], [0.0]], p=1, start=[0.0])
    grid = Grid.make(-1.0, 1.0, 21, dim=1)
    problems = [build_window(inst, 0, 2), build_window(inst, 1, 3), build_window(inst, 0, 1)]
    with pytest.raises(ValueError, match=r"point coordinate 3\.25 outside grid range"):
        solve_grid_dp_batch(problems, grid)
    with pytest.raises(ValueError, match=r"point coordinate 3\.25 outside grid range"):
        WindowSolver(grid).solve_batch(problems)


def _snap_loop(grid, p):
    """Per-coordinate snap, the reference for ``Grid.snap_rows``."""
    snapped = np.empty(len(p))
    for j, (a, b, k) in enumerate(zip(grid.lo, grid.hi, grid.n)):
        if p[j] < a - 1e-9 or p[j] > b + 1e-9:
            raise ValueError(f"point coordinate {p[j]} outside grid range [{a}, {b}]")
        step = (b - a) / (k - 1)
        snapped[j] = a + min(max(int(round((p[j] - a) / step)), 0), k - 1) * step
    return snapped


def test_snap_rows_matches_per_coordinate_loop():
    # rows include exact half steps (round half to even) and points just
    # outside the range but within the 1e-9 slack
    grid = Grid.make([-1.0, 0.0], [1.0, 2.5], [5, 11], dim=2)
    rng = np.random.default_rng(2)
    rows = np.vstack([rng.uniform([-1.0, 0.0], [1.0, 2.5], (50, 2)),
                      [[-0.75, 0.125], [0.25, 0.375], [-1.0 - 5e-10, 2.5 + 5e-10]]])
    assert np.array_equal(grid.snap_rows(rows), np.stack([_snap_loop(grid, r) for r in rows]))
    bad = np.array([[0.0, 1.0], [0.5, 2.75], [3.0, 0.0]])
    with pytest.raises(ValueError) as loop_err:
        [_snap_loop(grid, r) for r in bad]
    with pytest.raises(ValueError, match=r"point coordinate 2\.75 outside") as rows_err:
        grid.snap_rows(bad)
    assert str(rows_err.value) == str(loop_err.value)


# ---------------------------------------------------------------------------
# Stage memo, batched quadratic solves, bounded dense blocks
# ---------------------------------------------------------------------------

MEMO_FAMILIES = {
    "polyhedral p=1": lambda path, x0: make_polyhedral(1.3, path, p=1, start=x0),
    "polyhedral p=2": lambda path, x0: make_polyhedral(0.8, path, p=2, start=x0),
    "glb": lambda path, x0: make_glb(np.full(path.shape[1], 1.0),
                                     np.linspace(1.0, 2.0, path.shape[1]),
                                     np.full(path.shape[1], 2.5), path, start=x0),
    "ripple": lambda path, x0: make_ripple(0.5, 1.0, 4.0, path, start=x0),
    "strongly_convex": lambda path, x0: make_strongly_convex(2.0, path, start=x0),
}


def _memo_instance(family, d, rng, T=None):
    T = T or int(rng.integers(3, 9))
    path = rng.uniform(0.0, 2.5, (T + 1, d))
    inst = MEMO_FAMILIES[family](path[1:], path[0])
    return inst, default_grid(inst, n=int(rng.integers(5, 30 if d == 1 else 12)))


def _random_anchor_windows(inst, rng):
    """The windows of one to three random anchor sets, some repeated."""
    T = inst.horizon
    sets = [rng.integers(1, T + 1, rng.integers(0, T)) for _ in range(rng.integers(1, 4))]
    return [build_window(inst, a, b) for anchors in sets for a, b in anchor_segments(anchors, T)]


@given(st.sampled_from(sorted(MEMO_FAMILIES)), st.sampled_from([1, 2]),
       st.integers(0, 2 ** 32 - 1))
def test_warm_stage_memo_equals_cold_solves(family, d, seed):
    # windows solved through a cache whose memo already holds stages of
    # earlier windows (whole windows, shared prefixes, shared left anchors)
    # get the points a fresh cache gives them, bit for bit; so do afhc runs,
    # whose unanchored chains restart from lattice points
    rng = np.random.default_rng(seed)
    inst, grid = _memo_instance(family, d, rng)
    cache = _GridEval()
    for _ in range(3):
        problems = _random_anchor_windows(inst, rng)
        for problem, sol in zip(problems, solve_grid_dp_batch(problems, grid, cache)):
            assert np.array_equal(sol.free_points, solve_grid_dp(problem, grid).free_points)
    assert cache._stages
    if family != "strongly_convex":
        solver = WindowSolver(grid)
        for w in rng.permutation(np.arange(1, 5)).tolist() * 2:
            warm = run_afhc(inst, w, solver)
            assert np.array_equal(warm.points, run_afhc(inst, w, WindowSolver(grid)).points)


@given(st.sampled_from(sorted(set(MEMO_FAMILIES) - {"strongly_convex"})),
       st.sampled_from([1, 2]), st.integers(0, 2 ** 32 - 1))
def test_one_batch_of_mixed_windows_equals_each_alone(family, d, seed):
    # windows of every free count, anchored and not, repeated and sharing
    # prefixes, with unanchored windows that start at lattice points (as
    # afhc's do), all in one batch: each gets the points it gets alone
    rng = np.random.default_rng(seed)
    inst, grid = _memo_instance(family, d, rng)
    problems = _random_anchor_windows(inst, rng)
    pts = grid.points()
    for a, b in ((0, inst.horizon + 1), (1, 3), (0, 2)):
        if a < inst.horizon:
            start = as_point(pts[rng.integers(grid.size)])
            problems.append(WindowProblem(a, b, start, None,
                                          tuple(inst.hitting[a:min(b, inst.horizon)]),
                                          inst.movement))
    problems = [problems[i] for i in rng.permutation(len(problems))]
    batch = solve_grid_dp_batch(problems, grid, _GridEval())
    for problem, sol in zip(problems, batch):
        assert np.array_equal(sol.free_points, solve_grid_dp(problem, grid).free_points)


def test_batch_solves_each_distinct_stage_once(monkeypatch):
    # windows that share a left anchor and a cost prefix share their stages
    # inside one batch: (0, 4] twice and (0, 3] need the stages of (0, 4]
    # only, one min-plus column per stage
    inst = make_polyhedral(1.0, [[0.5], [0.2], [1.0], [0.0], [0.3]], p=1, start=[0.0])
    grid = Grid.make(-2.0, 2.0, 41, dim=1)
    columns = []
    minplus = _GridEval.minplus

    def counted(self, value, movement, grid):
        columns.append(value.shape[1])
        return minplus(self, value, movement, grid)

    monkeypatch.setattr(_GridEval, "minplus", counted)
    problems = [build_window(inst, 0, 4), build_window(inst, 0, 4), build_window(inst, 0, 3),
                build_window(inst, 0, 6)]
    batch = solve_grid_dp_batch(problems, grid)
    # (0, 4] and (0, 3] have free counts 3 and 2; (0, 6] is unanchored with
    # 5 free steps, the first 3 shared with (0, 4]
    assert columns == [1, 1, 1, 1]
    monkeypatch.undo()
    for problem, sol in zip(problems, batch):
        assert np.array_equal(sol.free_points, solve_grid_dp(problem, grid).free_points)


@given(st.sampled_from(sorted(set(MEMO_FAMILIES) - {"strongly_convex"})),
       st.sampled_from([1, 2]), st.integers(0, 2 ** 32 - 1))
def test_solver_shared_by_two_instances_gives_each_its_cold_answer(family, d, seed):
    # one solver, and so one memo, used on two instances in turn: cost
    # objects key the memo, so neither instance reads the other's stages
    rng = np.random.default_rng(seed)
    T = int(rng.integers(3, 9))
    first, _ = _memo_instance(family, d, rng, T)
    second, _ = _memo_instance(family, d, rng, T)
    grid = Grid.make(np.zeros(d), np.full(d, 3.0), int(rng.integers(5, 30 if d == 1 else 12)),
                     dim=d)
    solver = WindowSolver(grid)
    for inst in (first, second, first):
        w = int(rng.integers(2, 5))
        for run in (lambda s: run_dsfhc(inst, w, s), lambda s: run_afhc(inst, w, s)):
            assert np.array_equal(run(solver).points, run(WindowSolver(grid)).points)


def _chain_reference(problem):
    """One window's tridiagonal solve on its own, the reference for
    ``solve_quadratic_batch``."""
    F, d = problem.free_count, problem.dim
    if F == 0:
        return np.empty((0, d))
    m = np.array([c.params["m"] for c in problem.costs[:F]])
    anchored = problem.right_anchor is not None
    diag = m + 2.0
    if not anchored:
        diag[-1] = m[-1] + 1.0
    rhs = m[:, None] * np.stack([c.minimizer for c in problem.costs[:F]])
    rhs[0] += problem.left_anchor
    if anchored:
        rhs[-1] += problem.right_anchor
    if F == 1:
        return rhs / diag[:, None]
    ab = np.zeros((3, F))
    ab[0, 1:], ab[1], ab[2, :-1] = -1.0, diag, -1.0
    return solve_banded((1, 1), ab, rhs)


@given(st.sampled_from([0, 1, 2, 5]), st.booleans(), st.sampled_from([1, 3]),
       st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
def test_quadratic_batch_equals_each_window_alone(F, anchored, d, B, seed):
    # B windows of two instances (two values of m) share one solve_banded
    # call per group of equal matrices; each window gets the bits of its
    # own solve
    rng = np.random.default_rng(seed)
    T = F + 6
    insts = [make_strongly_convex(m, rng.uniform(-3, 3, (T, d)) * 10.0 ** rng.uniform(-3, 3),
                                  start=rng.uniform(-1, 1, d)) for m in (0.7, 2.0)]
    problems = []
    for _ in range(B):
        inst = insts[rng.integers(2)]
        tau1 = int(rng.integers(0, T - F))
        problem = build_window(inst, tau1, tau1 + F + 1)
        if not anchored:
            problem = replace(problem, right_anchor=None, costs=problem.costs[:F])
        problems.append(problem)
    batch = solve_quadratic_batch(problems)
    assert [s.solver_tag for s in batch] == ["exact_quadratic"] * B
    for problem, sol in zip(problems, batch):
        ref = _chain_reference(problem)
        assert sol.free_points.shape == (F, d)
        assert np.array_equal(sol.free_points, ref)
        assert np.array_equal(solve_quadratic_chain(problem).free_points, ref)


def test_blocked_dense_minplus_bounds_its_temporaries(monkeypatch):
    # a 2-D norm_l2 stage on a lattice too large for the transition matrix
    # takes row blocks; the (block, G, d) differences and every array made
    # from them stay within the limit, and the result is the unblocked one
    import soco_lab.windows as windows_mod

    grid = Grid.make([-1.0, 0.0], [2.0, 1.5], [9, 7], dim=2)
    value = np.random.default_rng(8).normal(size=grid.size)
    movement = movement_cost("norm_l2")
    ref_best, ref_arg = _GridEval().minplus(value, movement, grid)
    limit, sizes = 500, []
    of_difference = MovementCost.of_difference

    def recording(self, diff):
        out = of_difference(self, diff)
        sizes.extend((diff.size, out.size))
        return out

    monkeypatch.setattr(windows_mod, "_DENSE_TRANSITION_LIMIT", limit)
    monkeypatch.setattr(MovementCost, "of_difference", recording)
    best, arg = _GridEval().minplus(value, movement, grid)
    assert np.array_equal(best, ref_best) and np.array_equal(arg, ref_arg)
    assert sizes and max(sizes) <= limit

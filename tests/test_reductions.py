import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soco_lab import (
    CbcInstance,
    Grid,
    HittingCost,
    as_point,
    ball,
    box,
    cbc_cost,
    cbc_from_spec,
    cbc_interval_opt,
    cbc_opt_grid,
    cbc_to_indicator_instance,
    cbc_to_spec,
    duplicate_cbc_instance,
    embed_soco_opt_in_cbc,
    epigraph,
    epigraph_reduce,
    evaluate_total_cost,
    extract_unduplicated_solution,
    halfspace,
    hyperplane,
    interval,
    make_polyhedral,
    make_ripple,
    make_strongly_convex,
    map_cbc_to_soco,
    movement_cost,
    offline_optimal_grid,
    run_cbc_greedy_projection,
    zero_plane,
)
from soco_lab import windows
from soco_lab.adversary import RandomWalk, minimizer_path


def random_interval_instance(rng, T=6):
    bodies = []
    for _ in range(T):
        lo = rng.uniform(-3, 3)
        bodies.append(interval(lo, lo + rng.uniform(0.2, 2.0)))
    return CbcInstance(1, rng.uniform(-1, 1, 1), tuple(bodies),
                       movement_cost("norm_l1"))


BODIES = [
    halfspace([1.0, -2.0], 1.5),
    hyperplane([1.0, 1.0], 0.5),
    box([-1.0, 0.0], [1.0, 2.0]),
    ball([0.5, -0.5], 1.2),
    zero_plane(2),
    epigraph(make_polyhedral(1.0, [[0.3]]).hitting[0], 2),
    epigraph(make_strongly_convex(2.0, [[0.0]]).hitting[0], 2),
    epigraph(make_polyhedral(1.3, [[0.3, -0.4]], p=1).hitting[0], 3),
    epigraph(make_polyhedral(0.8, [[0.3, -0.4]], p=np.inf).hitting[0], 3),
    epigraph(make_polyhedral(1.0, [[0.2, -0.1, 0.5]]).hitting[0], 4),
    epigraph(make_strongly_convex(2.0, [[0.4, -0.3]]).hitting[0], 3),
]


def body_id(body):
    # variant and family, then the cost's d and p unless 1 and 2, so the
    # first epigraphs keep their ids
    cost = body.data.get("cost")
    if cost is None:
        return body.variant
    p = cost.params.get("p", 2)
    extra = (f"-d{body.dim - 1}" if body.dim != 2 else "") + (f"-p{p}" if p != 2 else "")
    return body.variant + cost.family_tag + extra


@pytest.mark.parametrize("body", BODIES, ids=body_id)
def test_projection_membership_and_idempotence(body, rng):
    for _ in range(100):
        p = rng.uniform(-4, 4, size=body.dim)
        proj = body.project(p)
        assert body.contains(proj, tol=1e-8)
        again = body.project(proj)
        assert np.max(np.abs(again - proj)) <= 1e-8
        if body.contains(p, tol=0.0):
            assert np.array_equal(body.project(p), p)


def reference_contains(body, p, tol):
    """Per-point membership, written out variant by variant."""
    d = body.data
    if body.variant in ("halfspace", "hyperplane"):
        gap = float(d["a"] @ p) - d["b"]
        return gap <= tol if body.variant == "halfspace" else abs(gap) <= tol
    if body.variant in ("box", "interval"):
        return bool(np.all(p >= d["lo"] - tol) and np.all(p <= d["hi"] + tol))
    if body.variant == "ball":
        return float(np.linalg.norm(p - d["center"])) <= d["r"] + tol
    if body.variant == "zero_plane":
        return abs(float(p[-1])) <= tol
    return float(p[-1]) >= d["cost"](p[:-1]) - tol


@pytest.mark.parametrize("body", BODIES + [interval(-0.7, 1.3)], ids=body_id)
def test_stacked_membership_matches_scalar(body, rng):
    # random points plus a lattice: 0.1-step up to 2-D, whose points sit on
    # the boundaries of every such body here up to rounding, 1.0-step above
    lattice = Grid.make(-4.0, 4.0, 81 if body.dim <= 2 else 9, dim=body.dim).points()
    pts = np.vstack([rng.uniform(-4, 4, size=(200, body.dim)), lattice])
    stacked = body.contains_stack(pts, 1e-8)
    assert stacked.shape == (pts.shape[0],)
    assert stacked.tolist() == [body.contains(p, 1e-8) for p in pts]
    assert stacked.tolist() == [reference_contains(body, p, 1e-8) for p in pts]
    assert 0 < stacked.sum() < pts.shape[0]


def test_wedge_projection_example():
    # f(x) = |x|: the projection of (0.5, -1) lands on the apex
    body = epigraph(make_polyhedral(1.0, [[0.0]]).hitting[0], 2)
    proj = body.project(np.array([0.5, -1.0]))
    assert proj[1] >= abs(proj[0]) - 1e-12
    assert proj == pytest.approx([0.0, 0.0])
    assert body.contains(np.array([0.5, 0.5]))


def test_epigraph_refuses_costs_without_exact_projection():
    ripple = make_ripple(1.0, 1.0, 6.0, [[0.0]]).hitting[0]
    custom = HittingCost(lambda x: float(np.abs(x).sum()), as_point([0.0]))
    for cost, family in ((ripple, "ripple"), (custom, "custom")):
        with pytest.raises(ValueError, match=family):
            epigraph(cost, 2)


def test_epigraph_refuses_a_dimension_other_than_d_plus_one():
    # a 3-D body list with a 1-D minimizer used to load, and greedy
    # projection then mapped (0, 0, 0) to (0.5, 0.5, 0.7071) by broadcasting
    cost = make_polyhedral(1.0, [[1.0]]).hitting[0]
    for dim in (1, 3):
        with pytest.raises(ValueError, match=f"1-D cost has dimension 2, not {dim}"):
            epigraph(cost, dim)
    spec = cbc_to_spec(CbcInstance(2, np.zeros(2), (epigraph(cost, 2),),
                                   movement_cost("norm_l2")))
    spec.update(dim=3, start=[0.0] * 3)
    with pytest.raises(ValueError, match="not 3"):
        cbc_from_spec(spec)


def squared_gap(cost, point, x):
    """Squared distance from ``point`` to the boundary point (x, f(x))."""
    return float(((x - point[:-1]) ** 2).sum() + (cost(x) - point[-1]) ** 2)


@settings(max_examples=20)
@given(st.sampled_from([1, 2, np.inf, None]), st.integers(1, 5), st.floats(0.2, 3.0),
       st.floats(0.2, 5.0), st.integers(0, 2 ** 32 - 1))
@example(1, 3, 1.3, 1.0, 14)
def test_epigraph_projection_is_exact(order, d, alpha, m, seed):
    # order None is the quadratic (m/2) |x - v|^2, else alpha |x - v|_order.
    # For each point outside, the projection P lies on the boundary, makes an
    # obtuse angle <p - P, z - P> <= 0 with every epigraph point z, and no
    # Nelder-Mead run finds a nearer boundary point.  The example is a case
    # the former scan-and-polish projection missed: on its third point it
    # stopped 2.0e-5 farther, in squared distance, than the exact point
    from scipy.optimize import minimize

    rng = np.random.default_rng(seed)
    v = rng.uniform(-2, 2, d)
    inst = make_strongly_convex(m, [v]) if order is None else make_polyhedral(alpha, [v], p=order)
    cost = inst.hitting[0]
    body = epigraph(cost, d + 1)
    for point in rng.uniform(-4, 4, size=(4, d + 1)):
        if body.contains(point, tol=0.0):
            continue
        proj = body.project(point)
        assert proj[-1] == pytest.approx(cost(proj[:-1]), rel=1e-12, abs=1e-12)
        zx = np.vstack([proj[:-1] + rng.normal(0.0, 0.1, (10, d)),
                        v + rng.uniform(-2, 2, (10, d))])
        z = np.column_stack([zx, cost.values(zx) + rng.exponential(1.0, 20)])
        assert np.max((z - proj) @ (point - proj)) <= 1e-12
        best = squared_gap(cost, point, proj[:-1])
        for start in (proj[:-1], point[:-1]):
            ref = minimize(lambda x: squared_gap(cost, point, x), start, method="Nelder-Mead",
                           options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 2000 * d})
            assert ref.fun >= best - 1e-12


def test_duplicate_identity_and_order():
    inst = random_interval_instance(np.random.default_rng(0), T=2)
    assert duplicate_cbc_instance(inst, 1).bodies == inst.bodies
    dup = duplicate_cbc_instance(inst, 3)
    assert len(dup.bodies) == 6
    assert dup.bodies[0] is dup.bodies[1] is dup.bodies[2] is inst.bodies[0]
    assert dup.bodies[3] is inst.bodies[1]


def test_duplication_preserves_interval_opt():
    rng = np.random.default_rng(7)
    for _ in range(10):
        inst = random_interval_instance(rng)
        for w in (2, 3, 5):
            dup = duplicate_cbc_instance(inst, w)
            assert cbc_interval_opt(dup) == pytest.approx(cbc_interval_opt(inst),
                                                          abs=1e-9)


def test_extract_validates_length_and_triangle():
    with pytest.raises(ValueError):
        extract_unduplicated_solution(np.zeros((5, 1)), 2, 3)
    pts = np.array([[0.0], [1.0], [3.0], [2.0]])
    ext = extract_unduplicated_solution(pts, 2, 2)
    assert ext.tolist() == [[0.0], [3.0]]
    assert abs(3.0 - 0.0) <= abs(1.0 - 0.0) + abs(3.0 - 1.0)


def test_extracted_greedy_cost_never_exceeds_duplicated_run():
    rng = np.random.default_rng(3)
    for _ in range(10):
        inst = random_interval_instance(rng)
        w = int(rng.integers(2, 5))
        dup = duplicate_cbc_instance(inst, w)
        pts, dup_cost = run_cbc_greedy_projection(dup)
        ext = extract_unduplicated_solution(pts, w, len(inst.bodies))
        assert cbc_cost(inst, ext) <= dup_cost + 1e-9


@pytest.mark.parametrize("kind", ["norm_l1", "norm_l2", "norm_linf"])
def test_cbc_cost_equals_step_loop(kind):
    # the vectorized movement sum against one scalar movement call per step
    rng = np.random.default_rng(5)
    bodies = tuple(box([-1.0, -1.0], [1.0, 1.0]) for _ in range(12))
    inst = CbcInstance(2, rng.uniform(-1, 1, 2), bodies, movement_cost(kind))
    pts = rng.uniform(-1, 1, (12, 2))
    prev, loop = inst.start, 0.0
    for p in pts:
        loop += inst.movement(p, prev)
        prev = p
    assert cbc_cost(inst, pts) == pytest.approx(loop, rel=1e-12)


def test_greedy_projection_hand_example():
    inst = CbcInstance(1, np.zeros(1), (interval(1, 2), interval(0, 0.5)),
                       movement_cost("norm_l1"))
    pts, cost = run_cbc_greedy_projection(inst)
    assert pts.ravel().tolist() == [1.0, 0.5]
    assert cost == pytest.approx(1.5)
    assert cbc_interval_opt(inst) == pytest.approx(1.5)


def test_greedy_projection_free_when_inside():
    inst = CbcInstance(1, np.array([0.5]), (interval(0, 1), interval(0, 2)),
                       movement_cost("norm_l1"))
    _, cost = run_cbc_greedy_projection(inst)
    assert cost == 0.0


def test_nested_shrinking_balls_monotone_movement():
    radii = [4.0 * 0.6 ** k for k in range(6)]
    bodies = tuple(ball([0.0, 0.0], r) for r in radii)
    inst = CbcInstance(2, np.array([8.0, 0.0]), bodies, movement_cost("norm_l2"))
    traj, _ = run_cbc_greedy_projection(inst)
    moves = [np.linalg.norm(traj[0] - inst.start)]
    moves += [np.linalg.norm(traj[i] - traj[i - 1]) for i in range(1, 6)]
    assert all(a >= b - 1e-12 for a, b in zip(moves, moves[1:]))


def test_epigraph_reduce_structure():
    soco = make_polyhedral(1.0, [[1.0]], p=1, start=[0.5])
    cbc = epigraph_reduce(soco)
    assert [b.variant for b in cbc.bodies] == ["epigraph", "zero_plane"]
    assert cbc.start.tolist() == [0.5, 0.0]
    assert cbc.dim == 2


def test_epigraph_reduce_rejects_non_norm_and_nonconvex():
    with pytest.raises(ValueError):
        epigraph_reduce(make_strongly_convex(1.0, [[0.0]]))  # sq_l2_half movement
    with pytest.raises(ValueError):
        epigraph_reduce(make_ripple(1.0, 1.0, 6.0, [[0.0]]))


def test_embed_zero_hitting_stays_in_plane():
    soco = make_polyhedral(1.0, [[0.0], [1.0]], p=1, start=[0.0])
    points = soco.minimizers()
    lifted, cost = embed_soco_opt_in_cbc(points, soco)
    assert np.all(lifted[:, 1] == 0.0)
    assert cost == pytest.approx(evaluate_total_cost(soco, points).total)


def test_embed_hand_example():
    soco = make_polyhedral(1.0, [[1.0]], p=1, start=[0.0])
    lifted, cost = embed_soco_opt_in_cbc([[1.0]], soco)
    assert cost == pytest.approx(1.0)
    assert cost <= 2.0 * 1.0 + 1e-12


def test_embed_bounded_by_twice_cost_of_same_sequence():
    rng = np.random.default_rng(5)
    grid = Grid.make(-4.0, 4.0, 81, dim=1)
    for _ in range(10):
        path = minimizer_path(RandomWalk(0.5), 5, 1, rng, base=np.zeros(1), grid=grid)
        soco = make_polyhedral(1.0, path, p=1, start=[0.0])
        opt = offline_optimal_grid(soco, grid)
        _, cbc_val = embed_soco_opt_in_cbc(opt.trajectory.points, soco)
        assert cbc_val <= 2.0 * opt.cost + 1e-9


def test_map_round_trip_and_bound():
    rng = np.random.default_rng(8)
    for _ in range(10):
        path = minimizer_path(RandomWalk(0.5), 4, 1, rng, base=np.zeros(1))
        soco = make_polyhedral(1.0, path, p=1, start=[0.0])
        cbc = epigraph_reduce(soco)
        pts, run_cost = run_cbc_greedy_projection(cbc)
        mapped = map_cbc_to_soco(pts, cbc, soco)
        soco_cost = evaluate_total_cost(soco, mapped).total
        assert soco_cost <= 2.0 * run_cost + 1e-9


def test_map_rejects_membership_violation():
    soco = make_polyhedral(1.0, [[0.0]], p=1, start=[0.0])
    cbc = epigraph_reduce(soco)
    bad = np.array([[0.0, -1.0], [0.0, 0.0]])  # below the epigraph
    with pytest.raises(ValueError):
        map_cbc_to_soco(bad, cbc, soco)


def test_indicator_view_matches_interval_oracle():
    rng = np.random.default_rng(2)
    grid = Grid.make(-4.0, 4.0, 161, dim=1)
    for _ in range(5):
        lows = np.round(rng.uniform(-3, 2, size=4) / 0.05) * 0.05
        bodies = tuple(interval(lo, lo + 0.5) for lo in lows)
        inst = CbcInstance(1, np.zeros(1), bodies, movement_cost("norm_l1"))
        encoded = cbc_to_indicator_instance(inst)
        res = offline_optimal_grid(encoded, grid)
        assert res.cost == pytest.approx(cbc_interval_opt(inst), abs=1e-9)


def test_cbc_grid_oracle_on_reduced_instance():
    soco = make_polyhedral(1.0, [[1.0]], p=1, start=[0.0])
    cbc = epigraph_reduce(soco)
    grid = Grid.make([-2.0, 0.0], [2.0, 4.0], [41, 41], dim=2)
    res = cbc_opt_grid(cbc, grid)
    assert res.cost == pytest.approx(1.0, abs=1e-9)  # touch apex (1, 0), return free


def test_lift_oracle_work_on_the_chase_shape(monkeypatch):
    # the A10 lift oracle on a T = 5 path and the 61 x 61 lift lattice is
    # one unanchored window of F = 10 free steps: one min-plus call per
    # stage after the first, one back-pointer recomputed per backtracked
    # step (F - 1), and no memo node keeps a back-pointer array.  Cost and
    # trajectory bytes are those the eager back-pointer kernel gave
    path = np.linspace(-3.0, 3.0, 61)[[35, 40, 33, 25, 20]]
    reduced = epigraph_reduce(make_polyhedral(1.0, path[:, None], p=1, start=[0.0]))
    grid = Grid.make([-3.0, 0.0], [3.0, 6.0], [61, 61], dim=2)
    counts, caches = {"minplus": 0, "back_pointer": 0}, []
    minplus, back_pointer = windows._GridEval.minplus, windows._back_pointer

    def counted_minplus(self, *args):
        counts["minplus"] += 1
        caches.append(self)
        return minplus(self, *args)

    def counted_back_pointer(*args):
        counts["back_pointer"] += 1
        return back_pointer(*args)

    monkeypatch.setattr(windows._GridEval, "minplus", counted_minplus)
    monkeypatch.setattr(windows, "_back_pointer", counted_back_pointer)
    res = cbc_opt_grid(reduced, grid)
    assert counts == {"minplus": 9, "back_pointer": 9}
    nodes = [node for by_left in caches[0]._stages.values() for children in by_left.values()
             for node in children.values()]
    walked = 0
    while nodes:
        value, back, children = nodes.pop()
        assert value.shape == (grid.size,) and back is None
        nodes.extend(children.values())
        walked += 1
    assert walked == 10
    assert res.cost == 3.0
    assert hashlib.sha256(res.trajectory.points.tobytes()).hexdigest() == (
        "a7bccdbd854d889d0f3bf1c829eda6c494894b433f0f0e8bd598c0d452c699b6")


def test_cbc_requires_norm_movement():
    with pytest.raises(ValueError):
        CbcInstance(1, np.zeros(1), (interval(0, 1),), movement_cost("sq_l2_half"))


#: variant -> a body of it: every branch of ``cbc_from_spec``
SPEC_BODIES = {
    "interval": lambda: interval(-0.5, 1.25),
    "box": lambda: box([-1.0, 0.25], [0.5, 2.0]),
    "ball": lambda: ball([0.3, -0.7], 1.1),
    "halfspace": lambda: halfspace([1.0, -2.0], 0.4),
    "hyperplane": lambda: hyperplane([0.6, 0.8], -0.3),
    "zero_plane": lambda: zero_plane(2),
    "polyhedral epigraph": lambda: epigraph(
        make_polyhedral(1.5, [[0.25]], p=1).hitting[0], 2),
    "strongly_convex epigraph": lambda: epigraph(
        make_strongly_convex(2.0, [[-0.4, 0.9]]).hitting[0], 3),
}


@pytest.mark.parametrize("variant", sorted(SPEC_BODIES))
def test_every_body_variant_round_trips(variant, tmp_path, capsys):
    # cbc_to_spec then cbc_from_spec, directly and through `reduce --mode
    # duplicate`, gives back the spec and the same membership
    from soco_lab.cli import main

    body = SPEC_BODIES[variant]()
    movement = movement_cost("norm_l1")
    inst = CbcInstance(body.dim, np.zeros(body.dim), (body,), movement)
    spec = json.loads(json.dumps(cbc_to_spec(inst)))
    again = cbc_from_spec(spec)
    assert cbc_to_spec(again) == spec
    path = tmp_path / "cbc.json"
    path.write_text(json.dumps(spec))
    assert main(["reduce", "--mode", "duplicate", "--instance", str(path), "--w", "2"]) == 0
    dup_spec = json.loads(capsys.readouterr().out)
    assert dup_spec == dict(spec, bodies=spec["bodies"] * 2)
    rng = np.random.default_rng(8)
    pts = rng.uniform(-2.0, 2.0, size=(40, body.dim))
    pts = np.vstack([pts, [body.project(p) for p in pts[:6]]])
    inside = body.contains_stack(pts)
    assert inside.any() and not inside.all()
    for rebuilt in (*again.bodies, *cbc_from_spec(dup_spec).bodies):
        assert rebuilt.variant == body.variant
        assert np.array_equal(rebuilt.contains_stack(pts), inside)


def test_cbc_spec_roundtrip():
    rng = np.random.default_rng(4)
    inst = random_interval_instance(rng, T=3)
    spec = json.loads(json.dumps(cbc_to_spec(inst)))
    again = cbc_from_spec(spec)
    assert len(again.bodies) == 3
    assert cbc_interval_opt(again) == pytest.approx(cbc_interval_opt(inst))
    reduced = epigraph_reduce(make_polyhedral(1.0, [[0.5]], p=1))
    spec2 = json.loads(json.dumps(cbc_to_spec(reduced)))
    again2 = cbc_from_spec(spec2)
    assert again2.bodies[0].variant == "epigraph"
    assert again2.bodies[0].data["cost"]([2.0]) == pytest.approx(1.5)

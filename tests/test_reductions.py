import json

import numpy as np
import pytest

from soco_lab import (
    CbcInstance,
    Grid,
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
]


def body_id(body):
    return body.variant + body.data.get(
        "cost", type("x", (), {"family_tag": ""})).family_tag


@pytest.mark.parametrize("body", BODIES, ids=body_id)
def test_projection_membership_and_idempotence(body, rng):
    for _ in range(100):
        p = rng.uniform(-4, 4, size=2)
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
    # random points plus a 0.1-step lattice, whose points sit on the
    # boundaries of every body here up to rounding
    lattice = Grid.make(-4.0, 4.0, 81, dim=body.dim).points()
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

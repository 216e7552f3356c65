import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from soco_lab import (
    HittingCost,
    Instance,
    as_point,
    competitive_ratio,
    evaluate_total_cost,
    make_glb,
    make_polyhedral,
    make_ripple,
    make_strongly_convex,
    movement_cost,
    padded_movement,
)
from soco_lab.windows import build_window, window_objective

ALL_KINDS = ["norm_l1", "norm_l2", "norm_linf", "sq_l2_half", "rectified_linear"]


def _movement(kind, d=2):
    if kind == "rectified_linear":
        return movement_cost(kind, beta=np.full(d, 1.5))
    return movement_cost(kind)


def quadratic_pair_instance():
    # d=1, T=2, f_t(x) = (x - t)^2, c = half squared l2, x0 = 0
    return make_strongly_convex(2.0, [[1.0], [2.0]], start=[0.0])


def test_total_cost_hand_example():
    inst = quadratic_pair_instance()
    traj = evaluate_total_cost(inst, [[1.0], [2.0]])
    assert traj.per_step_hitting == pytest.approx([0.0, 0.0])
    assert traj.per_step_movement == pytest.approx([0.5, 0.5])
    assert traj.total == pytest.approx(1.0)


def test_total_cost_stationary_points():
    inst = quadratic_pair_instance()
    traj = evaluate_total_cost(inst, [[0.0], [0.0]])
    assert traj.per_step_hitting == pytest.approx([1.0, 4.0])
    assert traj.per_step_movement == pytest.approx([0.0, 0.0])
    assert traj.total == pytest.approx(5.0)


def test_zero_costs_zero_movement():
    zero = HittingCost(lambda x: np.zeros(np.asarray(x).shape[:-1]) if
                       np.asarray(x).ndim > 1 else 0.0, as_point([0.0]))
    inst = Instance(1, 3, [0.0], (zero,) * 3, movement_cost("norm_l2"))
    traj = evaluate_total_cost(inst, np.zeros((3, 1)))
    assert traj.total == 0.0


def test_shape_validation():
    inst = quadratic_pair_instance()
    with pytest.raises(ValueError):
        evaluate_total_cost(inst, [[1.0]])
    with pytest.raises(ValueError):
        evaluate_total_cost(inst, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        evaluate_total_cost(inst, [[np.nan], [0.0]])


def test_instance_validation():
    cost = HittingCost(lambda x: 0.0, as_point([0.0]))
    with pytest.raises(ValueError):
        Instance(1, 2, [0.0], (cost,), movement_cost("norm_l2"))
    with pytest.raises(ValueError):
        Instance(2, 1, [0.0, 0.0], (cost,), movement_cost("norm_l2"))


def test_point_validation():
    with pytest.raises(ValueError):
        as_point([1.0, np.inf])
    p = as_point([1.0, 2.0])
    with pytest.raises(ValueError):
        p[0] = 3.0


def test_competitive_ratio_conventions():
    assert competitive_ratio(5.0, 5.0).ratio == 1.0
    assert competitive_ratio(4.0, 2.0).ratio == 2.0
    report = competitive_ratio(1.0, 0.0)
    assert math.isinf(report.ratio) and report.degenerate
    report = competitive_ratio(0.0, 0.0)
    assert report.ratio == 1.0 and report.degenerate
    with pytest.raises(ValueError):
        competitive_ratio(-1.0, 2.0)


@given(st.floats(0, 1e6), st.floats(1e-9, 1e6))
def test_competitive_ratio_positive_denominator(alg, opt):
    report = competitive_ratio(alg, opt)
    assert report.ratio == pytest.approx(alg / opt)
    assert not report.degenerate


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_movement_identity_at_same_point(kind, rng):
    c = _movement(kind)
    for _ in range(100):
        x = rng.uniform(-5, 5, size=2)
        assert c(x, x) == 0.0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_movement_triangle_inequality_sampled(kind, rng):
    c = _movement(kind)
    for _ in range(500):
        x, y, z = rng.uniform(-5, 5, size=(3, 2))
        assert c(x, z) <= c.eta * (c(x, y) + c(y, z)) + 1e-9


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_scored_movement_equals_step_loop(kind, d, rng):
    # total-cost and window scoring price all steps in one call; the per-step
    # loop of scalar calls is the reference, to the bit
    c = _movement(kind, d)
    zero = HittingCost(lambda x: 0.0, as_point(np.zeros(d)))
    start = rng.uniform(-3, 3, size=d)
    pts = rng.uniform(-3, 3, size=(9, d)) * 10.0 ** rng.uniform(-4, 4, size=(9, d))
    inst = Instance(d, 9, start, (zero,) * 9, c)
    prev = np.vstack([start, pts[:-1]])
    loop = [c(x, y) for x, y in zip(pts, prev)]
    assert evaluate_total_cost(inst, pts).per_step_movement.tolist() == loop
    problem = build_window(inst, 0, 10)
    assert window_objective(problem, pts) == sum(loop)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_pairwise_matches_scalar(kind, rng):
    c = _movement(kind)
    new = rng.uniform(-3, 3, size=(7, 2))
    old = rng.uniform(-3, 3, size=(5, 2))
    mat = c.pairwise(new, old)
    for i in range(7):
        for j in range(5):
            assert mat[i, j] == pytest.approx(c(new[i], old[j]), abs=1e-12)


def test_rectified_linear_is_asymmetric():
    c = movement_cost("rectified_linear", beta=[2.0])
    assert c([1.0], [0.0]) == pytest.approx(2.0)
    assert c([0.0], [1.0]) == 0.0
    assert not c.symmetric


@given(st.integers(1, 6), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_recompute_reproduces_total(T, d, seed):
    rng = np.random.default_rng(seed)
    inst = make_strongly_convex(1.5, rng.uniform(-2, 2, size=(T, d)),
                                start=rng.uniform(-1, 1, size=d))
    pts = rng.uniform(-3, 3, size=(T, d))
    traj = evaluate_total_cost(inst, pts)
    again = evaluate_total_cost(inst, traj.points)
    assert again.total == pytest.approx(traj.total, rel=1e-9)
    assert np.all(traj.per_step_hitting >= 0)
    assert np.all(traj.per_step_movement >= 0)
    assert traj.total >= 0
    assert traj.total == pytest.approx(
        float(np.sum(traj.per_step_hitting + traj.per_step_movement)))


def test_padded_movement_appends_zero():
    out = padded_movement([1.0, 2.0])
    assert out.tolist() == [1.0, 2.0, 0.0]


def _family_instance(family, d, rng):
    T = int(rng.integers(1, 12))
    path = rng.uniform(0.0, 3.0, (T, d))
    x0 = rng.uniform(0.0, 1.0, d)
    if family == "polyhedral":
        return make_polyhedral(1.3, path, p=int(rng.choice([1, 2])), start=x0)
    if family == "glb":
        e0 = rng.uniform(0.5, 1.5, d)
        return make_glb(e0, rng.uniform(0.5, 2.0, d), e0 + rng.uniform(0.1, 2.0, d), path,
                        start=x0)
    if family == "ripple":
        return make_ripple(0.5, 1.0, 4.0, path, start=x0)
    return make_strongly_convex(2.0, path, start=x0)


@given(st.sampled_from(["polyhedral", "glb", "ripple", "strongly_convex"]),
       st.sampled_from([1, 2, 3, 8]), st.integers(0, 2 ** 32 - 1))
def test_one_call_scoring_equals_step_loop(family, d, seed):
    # a family's T costs share one formula, so their hitting costs are one
    # call on the stacked points; the loop of scalar calls is the reference,
    # to the bit, at magnitudes from 1e-4 to 1e4 and (glb) off the orthant
    rng = np.random.default_rng(seed)
    inst = _family_instance(family, d, rng)
    formula = inst.hitting[0].formula
    assert formula is not None and all(c.formula is formula for c in inst.hitting)
    pts = rng.uniform(-1.0, 3.0, (inst.horizon, d)) * 10.0 ** rng.uniform(-4, 4, (inst.horizon, d))
    loop = [cost(p) for cost, p in zip(inst.hitting, pts)]
    assert evaluate_total_cost(inst, pts).per_step_hitting.tolist() == loop


def test_costs_without_a_shared_formula_are_scored_per_step():
    # a cost that is not the family's (here: the first one replaced by a
    # formula-less copy) sends the instance to the per-step loop
    inst = make_strongly_convex(2.0, [[1.0], [2.0], [0.5]], start=[0.0])
    shifted = replace(inst.hitting[0], fn=lambda x: inst.hitting[0](x) + 1.0, formula=None)
    mixed = replace(inst, hitting=(shifted,) + inst.hitting[1:])
    pts = np.array([[1.0], [2.0], [0.5]])
    assert evaluate_total_cost(mixed, pts).per_step_hitting.tolist() == [1.0, 0.0, 0.0]

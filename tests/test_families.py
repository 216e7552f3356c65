import json
import math

import numpy as np
import pytest

from soco_lab import (
    estimate_condition_constants,
    instance_from_spec,
    instance_to_spec,
    make_glb,
    make_polyhedral,
    make_ripple,
    make_strongly_convex,
)
from soco_lab.adversary import RandomWalk, generate_oblivious_instance
from soco_lab.families import (
    FAMILIES,
    NO_FAMILY,
    EstimationError,
    Glb,
    Polyhedral,
    Ripple,
    StronglyConvex,
    cost_from_spec,
    cost_to_spec,
    family_of,
)
from soco_lab.model import PENALTY, HittingCost, as_point
from soco_lab.oracle import offline_optimal
from soco_lab.reductions import epigraph
from soco_lab.windows import default_grid


def test_polyhedral_values_and_constants():
    inst = make_polyhedral(2.0, [[0.0]], p=2, start=[0.0])
    assert inst.hitting[0]([1.0]) == pytest.approx(2.0)
    assert inst.hitting[0]([0.0]) == 0.0
    assert inst.lam == pytest.approx(1.0)          # alpha / 2
    assert inst.movement.eta == 1.0
    one = make_polyhedral(1.0, [[0.0]])
    assert one.lam == pytest.approx(0.5)


def test_polyhedral_rejects_bad_alpha():
    with pytest.raises(ValueError):
        make_polyhedral(0.0, [[0.0]])
    with pytest.raises(ValueError):
        make_polyhedral(-1.0, [[0.0]])


def test_strongly_convex_values_and_constants():
    inst = make_strongly_convex(2.0, [[0.0]], start=[0.0])
    assert inst.hitting[0]([1.0]) == pytest.approx(1.0)  # (m/2) * 1
    assert inst.hitting[0]([0.0]) == 0.0
    assert inst.lam == pytest.approx(1.0)
    assert inst.movement.eta == 2.0
    assert inst.hitting[0].convexifier_bound == 0.0
    with pytest.raises(ValueError):
        make_strongly_convex(0.0, [[0.0]])


def test_glb_values_and_constants():
    inst = make_glb([1.0], [2.0], [2.0 + 1e-6], [[0.0]], start=[0.0])
    assert inst.lam == pytest.approx(0.25)         # e0 / (2 beta)
    assert inst.hitting[0]([0.0]) == 0.0
    inst2 = make_glb([1.0], [2.0], [2.0], [[1.0]], start=[0.0])
    assert inst2.hitting[0]([3.0]) == pytest.approx(7.0)  # 3 + 2*|3-1|
    with pytest.raises(ValueError):
        make_glb([1.0], [2.0], [0.9], [[0.0]])     # mu <= e0
    with pytest.raises(ValueError):
        make_glb([1.0], [2.0], [2.0], [[-1.0]])    # negative minimizer


def test_glb_exceeds_linear_floor(rng):
    inst = make_glb([1.0, 0.5], [2.0, 1.0], [1.5, 0.8], rng.uniform(0, 2, (4, 2)))
    e0 = np.array([1.0, 0.5])
    for _ in range(2000):
        x = rng.uniform(0, 4, size=2)
        t = rng.integers(0, 4)
        assert inst.hitting[t](x) >= float(e0 @ x) - 1e-12


def test_glb_penalizes_outside_orthant():
    inst = make_glb([1.0], [2.0], [2.0], [[1.0]])
    assert inst.hitting[0]([-0.5]) >= 1e11


def test_ripple_reduces_to_quadratic_when_flat(rng):
    path = rng.uniform(-1, 1, (3, 2))
    rip = make_ripple(1.5, 0.0, 2.0, path)
    quad = make_strongly_convex(1.5, path)
    for _ in range(200):
        x = rng.uniform(-3, 3, size=2)
        t = rng.integers(0, 3)
        assert rip.hitting[t](x) == pytest.approx(quad.hitting[t](x), abs=1e-12)


def test_ripple_minimizer_and_convexifier():
    rip = make_ripple(1.0, 1.0, 2.0, [[0.5]])
    assert rip.hitting[0]([0.5]) == 0.0
    assert rip.hitting[0].convexifier_bound == pytest.approx(3.0)  # eps k^2 - m


def test_ripple_convexified_midpoint_inequality(rng):
    # f(x) + (alpha/2) x^2 is midpoint-convex along 1000 random 1-D segments
    rip = make_ripple(1.0, 1.0, 2.0, [[0.0]])
    f, alpha = rip.hitting[0], 3.0

    def g(x):
        return f([x]) + 0.5 * alpha * x * x

    for _ in range(1000):
        a, b = rng.uniform(-4, 4, size=2)
        assert g(0.5 * (a + b)) <= 0.5 * (g(a) + g(b)) + 1e-9


def test_ripple_rejects_bad_params():
    with pytest.raises(ValueError):
        make_ripple(-1.0, 1.0, 2.0, [[0.0]])
    with pytest.raises(ValueError):
        make_ripple(1.0, 1.0, 0.0, [[0.0]])


NON_FINITE_PARAMS = [
    (lambda x: make_polyhedral(x, [[0.0]]), "alpha"),
    (lambda x: make_strongly_convex(x, [[0.0]]), "m"),
    (lambda x: make_ripple(x, 1.0, 2.0, [[0.0]]), "m"),
    (lambda x: make_ripple(1.0, x, 2.0, [[0.0]]), "eps"),
    (lambda x: make_ripple(1.0, 1.0, x, [[0.0]]), "k"),
    (lambda x: make_glb([x], [1.0], [3.0], [[1.0]]), "e0"),
    (lambda x: make_glb([1.0], [x], [3.0], [[1.0]]), "beta"),
    (lambda x: make_glb([1.0], [1.0], [x], [[1.0]]), "mu"),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("build, name", NON_FINITE_PARAMS)
def test_constructors_reject_non_finite_params(build, name, value):
    # a NaN passes every sign check and +inf passes most; both fail here,
    # by name, before any cost is built
    with pytest.raises(ValueError, match=f"^{name} must be finite, not "):
        build(value)


FAMILY_INSTANCES = [
    lambda rng: make_polyhedral(2.0, rng.uniform(-2, 2, (5, 1)), p=2),
    lambda rng: make_polyhedral(0.7, rng.uniform(-2, 2, (5, 2)), p=1),
    lambda rng: make_strongly_convex(2.0, rng.uniform(-2, 2, (5, 2))),
    lambda rng: make_glb([1.0], [2.0], [1.5], rng.uniform(0, 2, (5, 1))),
    lambda rng: make_ripple(1.0, 1.0, 6.0, rng.uniform(-2, 2, (5, 1))),
]


@pytest.mark.parametrize("build", FAMILY_INSTANCES)
def test_family_minimizer_is_global(build, rng):
    inst = build(rng)
    lo = 0.0 if inst.family_tag == "glb" else -4.0
    pts = rng.uniform(lo, 4.0, size=(10_000, inst.dim))
    for t in (0, len(inst.hitting) - 1):
        cost = inst.hitting[t]
        assert cost(cost.minimizer) == cost.min_value
        values = cost.values(pts)
        assert np.all(values >= cost.min_value - 1e-12)
        assert np.all(values >= 0.0)


@pytest.mark.parametrize("build", FAMILY_INSTANCES)
def test_family_order_of_growth(build, rng):
    # f_t(x) >= lam * (c(x, v_t) + c(v_t, x)) on 10^4 random pairs
    inst = build(rng)
    c, lam = inst.movement, inst.lam
    lo = 0.0 if inst.family_tag == "glb" else -4.0
    pts = rng.uniform(lo, 4.0, size=(10_000, inst.dim))
    t_idx = rng.integers(0, len(inst.hitting), size=10_000)
    for x, t in zip(pts[:2000], t_idx[:2000]):
        cost = inst.hitting[t]
        v = cost.minimizer
        assert cost(x) >= lam * (c(x, v) + c(v, x)) - 1e-9


@pytest.mark.parametrize("build", FAMILY_INSTANCES)
def test_family_estimated_constants(build, rng):
    inst = build(rng)
    lam_hat, eta_hat = estimate_condition_constants(inst, 3.0, 4000, rng)
    assert lam_hat >= inst.lam - 1e-6
    assert eta_hat <= inst.movement.eta + 1e-6


def test_estimator_exact_on_tight_families(rng):
    poly = make_polyhedral(2.0, rng.uniform(-2, 2, (4, 1)))
    lam_hat, eta_hat = estimate_condition_constants(poly, 3.0, 3000, rng)
    assert lam_hat == pytest.approx(1.0, abs=1e-9)
    assert eta_hat == pytest.approx(1.0, abs=1e-9)
    quad = make_strongly_convex(2.0, rng.uniform(-2, 2, (4, 2)))
    lam_hat, eta_hat = estimate_condition_constants(quad, 3.0, 3000, rng)
    assert lam_hat == pytest.approx(1.0, abs=1e-9)
    assert eta_hat == pytest.approx(2.0, abs=1e-9)  # midpoint triples are tight


def test_estimator_l2_norm_eta(rng):
    inst = make_polyhedral(1.0, rng.uniform(-2, 2, (4, 2)), p=2)
    _, eta_hat = estimate_condition_constants(inst, 3.0, 4000, rng)
    assert eta_hat <= 1.0 + 1e-6


def test_estimator_failure_when_everything_skipped(rng):
    inst = make_strongly_convex(2.0, [[0.0]])
    with pytest.raises(EstimationError):
        estimate_condition_constants(inst, 1e-14, 50, rng)


def test_estimator_rejects_bad_args(rng):
    inst = make_strongly_convex(2.0, [[0.0]])
    with pytest.raises(ValueError):
        estimate_condition_constants(inst, 1.0, 0, rng)
    with pytest.raises(ValueError):
        estimate_condition_constants(inst, -1.0, 10, rng)


def test_instance_spec_roundtrip(rng):
    for build in FAMILY_INSTANCES:
        inst = build(rng)
        spec = instance_to_spec(inst)
        again = instance_from_spec(json.loads(json.dumps(spec)))
        assert again.lam == pytest.approx(inst.lam)
        x = rng.uniform(0, 2, size=inst.dim)
        for t in range(inst.horizon):
            assert again.hitting[t](x) == pytest.approx(inst.hitting[t](x))


def test_instance_spec_validates_shapes():
    spec = instance_to_spec(make_strongly_convex(1.0, [[0.0], [1.0]]))
    spec["hitting"]["minimizers"] = [[0.0]]
    with pytest.raises(ValueError):
        instance_from_spec(spec)


#: Parameters to check each registered family on, per dimension d; a family
#: added to FAMILIES without an entry here fails the record test by name.
RECORD_SAMPLES = {
    "polyhedral": lambda d: [Polyhedral(1.5, p) for p in (1, 2, np.inf)],
    "strongly_convex": lambda d: [StronglyConvex(2.0)],
    "glb": lambda d: [Glb((1.0,) * d, (2.0, 0.5)[:d], (1.5, 3.0)[:d])],
    "ripple": lambda d: [Ripple(1.0, 0.3, 2.0), Ripple(0.0, 0.5, 3.0)],
}


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_record_matches_what_its_instances_do(name, d):
    # each fact of the record against the behaviour it stands for, so a
    # family registered with a wrong fact fails here
    record = FAMILIES[name]
    for i, params in enumerate(RECORD_SAMPLES[name](d)):
        rng = np.random.default_rng(100 * d + i)
        inst = generate_oblivious_instance(params, RandomWalk(0.7), 6, d, rng,
                                           start=np.full(d, 0.25))
        assert type(params) is record.params and inst.family_tag == name
        assert family_of(inst) is record
        assert all(family_of(c) is record for c in inst.hitting)
        cost_params = inst.hitting[0].params
        # piecewise_linear: the default lattice is the breakpoint lattice
        points = np.vstack([inst.start, inst.minimizers()] + [np.zeros(d)] * record.orthant)
        breakpoints = [sorted(set(axis.tolist())) for axis in points.T]
        grid = default_grid(inst)
        is_breakpoint = [list(axis) for axis in grid.coords] == breakpoints
        assert is_breakpoint == record.piecewise_linear(cost_params, d)
        assert is_breakpoint or grid == default_grid(inst, 201)
        if is_breakpoint:   # exact there: no finer lattice does better
            fine = offline_optimal(inst, default_grid(inst, 41), "grid").cost
            assert offline_optimal(inst, grid, "grid").cost <= fine + 1e-9
        # orthant: the uniform lattice is cut at 0 and the paths stay in it
        lo = np.asarray(default_grid(inst, 21).lo)
        assert bool((lo >= 0).all()) == record.orthant
        paths = [generate_oblivious_instance(params, RandomWalk(0.7), 50, d,
                                             np.random.default_rng(seed)).minimizers()
                 for seed in range(10)]
        assert all((path >= 0).all() for path in paths) == record.orthant
        assert (inst.hitting[0](-0.5 * np.ones(d)) >= PENALTY) == record.orthant
        # quadratic: the auto oracle takes the closed form
        method = offline_optimal(inst, default_grid(inst, 11), "auto").method
        assert (method == "exact_quadratic") == record.quadratic
        if record.quadratic:   # the closed form is the optimum
            lattice = offline_optimal(inst, default_grid(inst, 41), "grid").cost
            assert offline_optimal(inst, method="auto").cost <= lattice + 1e-9
        # epigraph: the body is built exactly when the record says so
        try:
            epigraph(inst.hitting[0], d + 1)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == record.epigraph(cost_params)
        # the JSON of one cost rebuilds it, bit for bit
        pts = rng.uniform(0.0, 3.0, (25, d))
        for cost in inst.hitting:
            again = cost_from_spec(json.loads(json.dumps(cost_to_spec(cost))))
            assert again.family_tag == name and again.params.keys() == cost.params.keys()
            assert np.array_equal(again.minimizer, cost.minimizer)
            assert np.array_equal(again.values(pts), cost.values(pts))
            assert again(pts[0]) == cost(pts[0])


def test_a_cost_of_no_family_gets_the_blank_record():
    custom = HittingCost(lambda x: float(np.abs(x).sum()), as_point([0.0]))
    assert family_of(custom) is NO_FAMILY and NO_FAMILY.params is None
    assert not (NO_FAMILY.orthant or NO_FAMILY.quadratic
                or NO_FAMILY.piecewise_linear({}, 1) or NO_FAMILY.epigraph({}))
    with pytest.raises(ValueError, match="cannot serialize cost family 'custom'"):
        cost_to_spec(custom)
    with pytest.raises(ValueError, match="unknown family 'custom'"):
        cost_from_spec({"family": "custom", "params": {}, "minimizer": [0.0]})

"""The breakpoint lattice of the piecewise-linear families.

``default_grid`` gives ``polyhedral`` (p = 1 in any d, any p in 1-D) and
``glb`` the product of their per-axis breakpoints: the start, the
minimizers and, for ``glb``, 0.  The lattice DP on it is the exact offline
optimum, checked here against a small reference DP of this file's own, and
no competitive ratio taken against it falls below 1.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from soco_lab import (
    ExperimentConfig,
    Grid,
    default_grid,
    grid_quantizer,
    instance_to_spec,
    make_glb,
    make_polyhedral,
    offline_optimal,
    run_suite,
)


def reference_opt(x0, v, cost, move, kinks=()):
    """Exact offline optimum of a 1-D instance with convex piecewise-linear
    costs ``cost(x, t)`` and movement ``move(new, old)`` whose kinks lie in
    {x0} + v + ``kinks``: a DP over those points, in plain Python."""
    points = sorted({x0, *v, *kinks})
    value = {x: move(x, x0) + cost(x, 0) for x in points}
    for t in range(1, len(v)):
        value = {x: cost(x, t) + min(value[y] + move(x, y) for y in points)
                 for x in points}
    return min(value.values())


def polyhedral_opt(alpha, x0, v):
    return reference_opt(x0, v, lambda x, t: alpha * abs(x - v[t]),
                         lambda x, y: abs(x - y))


def glb_opt(e0, beta, mu, x0, v):
    return reference_opt(x0, v, lambda x, t: e0 * x + mu * abs(x - v[t]),
                         lambda x, y: beta * max(x - y, 0.0), kinks=(0.0,))


def close(got, ref):
    return abs(got - ref) <= 1e-12 * abs(ref)


coords = st.floats(-5.0, 5.0)
paths = st.lists(coords, min_size=1, max_size=12)


@given(st.sampled_from([1, 2, np.inf]), st.floats(0.1, 3.0), coords, paths)
def test_1d_polyhedral_oracle_is_exact(p, alpha, x0, v):
    inst = make_polyhedral(alpha, np.array(v)[:, None], p=p, start=[x0])
    assert close(offline_optimal(inst).cost, polyhedral_opt(alpha, x0, v))


@given(st.floats(0.1, 2.0), st.floats(0.1, 3.0), st.floats(0.01, 2.0),
       coords.map(abs), paths.map(lambda v: [abs(x) for x in v]))
def test_1d_glb_oracle_is_exact(e0, beta, gap, x0, v):
    inst = make_glb([e0], [beta], [e0 + gap], np.array(v)[:, None], start=[x0])
    assert close(offline_optimal(inst).cost, glb_opt(e0, beta, e0 + gap, x0, v))


@given(st.sampled_from(["polyhedral", "glb"]), st.integers(2, 4), st.integers(1, 8),
       st.integers(0, 2 ** 32 - 1))
def test_dd_oracle_is_the_sum_of_per_axis_optima(family, d, T, seed):
    rng = np.random.default_rng(seed)
    x0, path = rng.uniform(0.0, 3.0, d), rng.uniform(0.0, 3.0, (T, d))
    if family == "polyhedral":
        inst = make_polyhedral(1.3, path, p=1, start=x0)
        axes = [polyhedral_opt(1.3, x0[j], path[:, j].tolist()) for j in range(d)]
    else:
        e0, beta, mu = rng.uniform(0.5, 1.5, d), rng.uniform(0.5, 2.0, d), rng.uniform(1.6, 3.0, d)
        inst = make_glb(e0, beta, mu, path, start=x0)
        axes = [glb_opt(e0[j], beta[j], mu[j], x0[j], path[:, j].tolist()) for j in range(d)]
    assert close(offline_optimal(inst).cost, sum(axes))


#: (family, params, d) on the breakpoint lattice; ``glb`` with mu < beta, so
#: its algorithms are not all optimal
PL_INSTANCES = [
    ("polyhedral", {"alpha": 1.3, "p": 1}, 1),
    ("polyhedral", {"alpha": 1.3, "p": 2}, 1),
    ("polyhedral", {"alpha": 0.7, "p": "inf"}, 1),
    ("polyhedral", {"alpha": 1.3, "p": 1}, 3),
    ("glb", {"e0": [1.0], "beta": [2.0], "mu": [1.5]}, 1),
    ("glb", {"e0": [1.0, 0.5], "beta": [2.0, 1.0], "mu": [1.5, 2.5]}, 2),
]


def test_no_piecewise_linear_ratio_below_one():
    # every algorithm's cost is at least OPT, and the oracle is OPT
    config = ExperimentConfig.from_dict({
        "instances": [{"id": f"{family}-{i}", "generate": {
            "family": family, "params": params, "T": 24, "d": d,
            "path": {"model": "random_walk", "step": 1.0}}}
            for i, (family, params, d) in enumerate(PL_INSTANCES)],
        "algorithms": [{"name": "greedy"}, {"name": "sfhc", "w": [2, 4]},
                       {"name": "dsfhc", "w": [2, 4, 6]}, {"name": "rsfhc-a", "w": [2]},
                       {"name": "rsfhc-b", "w": [4]}, {"name": "afhc", "w": [2, 4]}],
        "seeds": [1, 2, 3],
    })
    rows, summary = run_suite(config)
    assert summary["failures"] == 0, summary["errors"]
    assert len(rows) == len(PL_INSTANCES) * 3 * 10
    assert min(r.ratio for r in rows) >= 1 - 1e-12
    # anchors are lattice points, so no snapping budget is added
    assert {r.tolerance_budget for r in rows} == {1e-8}


def test_adjacent_float_minimizers_get_no_snap_budget():
    # the upper of two adjacent-float minimizers is a lattice point too, so
    # it snaps to itself and the row's budget stays 1e-8
    a = float(np.nextafter(1.0, 2.0))
    b = float(np.nextafter(a, 2.0))
    inst = make_polyhedral(1.3, [[a], [b], [3.0]], p=1, start=[0.0])
    assert Grid.from_axes([[0.0, a, b, 3.0]]).snap_rows(np.array([[a], [b]])).tolist() == \
        [[a], [b]]
    config = ExperimentConfig.from_dict({
        "instances": [{"id": "adjacent", "instance": instance_to_spec(inst)}],
        "algorithms": [{"name": "greedy"}, {"name": "dsfhc", "w": [2]}], "seeds": [1]})
    rows, summary = run_suite(config)
    assert summary["failures"] == 0
    assert {r.tolerance_budget for r in rows} == {1e-8}


def test_default_grid_kinds():
    path = np.array([[0.5, 2.0], [1.5, 2.0], [0.5, 3.0]])
    poly = make_polyhedral(1.0, path, p=1, start=[0.0, 2.0])
    grid = default_grid(poly)
    assert grid.coords == ((0.0, 0.5, 1.5), (2.0, 3.0)) and grid.size == 6
    glb = make_glb([1.0, 1.0], [1.0, 1.0], [2.0, 2.0], path, start=[0.5, 2.0])
    assert default_grid(glb).coords == ((0.0, 0.5, 1.5), (0.0, 2.0, 3.0))
    # p = 2 in d >= 2 does not separate: the uniform joint lattice stays
    assert default_grid(make_polyhedral(1.0, path, p=2)).n == (201, 201)
    # an n asks for the uniform lattice on every family
    uniform = default_grid(poly, 11)
    assert uniform == Grid.make([-3.0, -1.0], [4.5, 6.0], 11, dim=2)
    # in 1-D every norm is |x|: any p gets the breakpoints
    assert default_grid(make_polyhedral(1.0, path[:, :1], p=np.inf)).coords == \
        ((0.0, 0.5, 1.5),)


def nearest_lower(axis, x):
    """Brute force: the nearest coordinate, the lowest one on a tie."""
    return axis[int(np.argmin(np.abs(np.asarray(axis) - x)))]


def test_coordinate_snap_is_nearest_ties_lower():
    grid = Grid.from_axes([[3.0, 0.0, 1.0, 1.0]])
    assert grid.coords == ((0.0, 1.0, 3.0),)
    cases = {0.5: 0.0, 0.4: 0.0, 0.6: 1.0, 2.0: 1.0, 2.0001: 3.0, 1.9: 1.0,
             -5e-10: 0.0, 3.0 + 5e-10: 3.0, 3.0: 3.0, 0.0: 0.0}
    got = grid.snap_rows(np.array(list(cases))[:, None])[:, 0]
    assert got.tolist() == list(cases.values())
    with pytest.raises(ValueError, match=r"point coordinate 3\.5 outside grid range \[0\.0, 3\.0\]"):
        grid.snap_rows(np.array([[1.0], [3.5]]))
    rng = np.random.default_rng(3)
    axes = [np.sort(np.r_[-2.0, 2.0, rng.uniform(-2, 2, 5)]), np.array([-2.0, 0.0, 0.25, 2.0])]
    grid = Grid.from_axes(axes)
    # exact ties on the second axis, between -2 and 0, 0 and 0.25, 0.25 and 2
    rows = np.vstack([rng.uniform(-2, 2, (200, 2)),
                      [[axes[0][3], -1.0], [axes[0][0], 0.125], [axes[0][6], 1.125]]])
    expected = [[nearest_lower(a, x) for a, x in zip(axes, row)] for row in rows]
    assert np.array_equal(grid.snap_rows(rows), np.array(expected))


def test_uniform_snap_matches_coordinate_snap():
    # one rule on every lattice: Grid.make is its linspace coordinates, so it
    # snaps exactly as from_axes on them, and exact half steps go lower
    uniform = Grid.make(-1.0, 1.0, 5)
    assert uniform == Grid.from_axes([uniform.axes()[0]])
    halves = np.array([[-0.75], [-0.25], [0.25], [0.75]])
    assert uniform.snap_rows(halves)[:, 0].tolist() == [-1.0, -0.5, 0.0, 0.5]
    uneven = Grid.make([-1.0, 0.0], [2.5, 0.7], [11, 8], dim=2)
    coordinate = Grid.from_axes(uneven.axes())
    rows = np.random.default_rng(5).uniform([-1.0, 0.0], [2.5, 0.7], (200, 2))
    assert np.array_equal(uneven.snap_rows(rows), coordinate.snap_rows(rows))


def test_spacing_is_the_largest_gap_and_quantizer_takes_any_lattice():
    grid = Grid.from_axes([[0.0, 1.0, 3.0], [2.0]])
    assert grid.spacing().tolist() == [2.0, 0.0]
    assert Grid.make(0.0, 3.0, 4).spacing().tolist() == [1.0]
    # nearest index, the lower one on a tie, the end one outside the box
    psi = grid_quantizer(grid)
    assert [psi([x, 2.5]) for x in (-1.0, 0.5, 0.6, 2.0, 2.5, 9.0)] == \
        [(0, 0), (0, 0), (1, 0), (1, 0), (2, 0), (2, 0)]


def test_coordinate_grids_hash_and_compare_by_value():
    a, b = Grid.from_axes([[0.0, 2.0], [1.0]]), Grid.from_axes([[2.0, 0.0, -0.0], [1.0]])
    assert a == b and hash(a) == hash(b) and a.axis(1) == Grid.from_axes([[1.0]])
    assert a != Grid.from_axes([[0.0, 2.5], [1.0]])
    assert a != Grid.make([0.0, 1.0], [2.0, 2.0], [2, 2], dim=2)
    assert b.points().tolist() == [[0.0, 1.0], [2.0, 1.0]]
    # a one-point axis snaps to its point
    assert a.snap_rows(np.array([[1.5, 1.0], [0.5, 1.0]])).tolist() == [[2.0, 1.0], [0.0, 1.0]]


@st.composite
def axis_coords(draw):
    """Coordinates of one axis: a few floats, each followed by up to three
    of its adjacent floats (``np.nextafter``)."""
    out = []
    for c in draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6)):
        for _ in range(draw(st.integers(1, 4))):
            out.append(c)
            c = float(np.nextafter(c, np.inf))
    return out


def assert_points_snap_to_themselves(grid):
    pts = grid.points()
    assert np.array_equal(grid.snap_rows(pts), pts)


@given(st.lists(axis_coords(), min_size=1, max_size=2))
def test_from_axes_points_snap_to_themselves(axes):
    grid = Grid.from_axes(axes)
    assert_points_snap_to_themselves(grid)
    # and the quantizer gives each point its own index
    own = np.stack(np.unravel_index(np.arange(grid.size), grid.n), axis=-1)
    assert np.array_equal(grid.index_rows(grid.points()), own)


@given(st.floats(-1e6, 1e6), st.one_of(st.integers(1, 4), st.floats(1e-6, 1e3)),
       st.integers(2, 60))
def test_make_points_snap_to_themselves(lo, width, n):
    # width: a count of adjacent floats, or a span; a range whose n evenly
    # spaced floats are not all distinct is refused
    if isinstance(width, int):
        hi = lo
        for _ in range(width):
            hi = float(np.nextafter(hi, np.inf))
    else:
        hi = lo + width
    if len(set(np.linspace(lo, hi, n).tolist())) < n:
        with pytest.raises(ValueError, match="distinct floats"):
            Grid.make(lo, hi, n)
        return
    assert_points_snap_to_themselves(Grid.make(lo, hi, n))

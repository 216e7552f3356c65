"""The anchor-constrained optimum as one joint lattice DP, for tests.

``constrained_offline`` solves the segments between anchors separately;
this solves the same program over the whole horizon at once, with every
anchor stage pinned, so the two can be checked against each other.
"""

from dataclasses import replace

import numpy as np

from soco_lab import Grid, HittingCost, Instance, build_window, evaluate_total_cost, \
    solve_grid_dp
from soco_lab.oracle import OracleResult


def _pinned(cost: HittingCost, grid: Grid) -> HittingCost:
    """``cost`` at the lattice point nearest its snapped minimizer, +inf
    at every other point.  It carries no axis costs, so a pinned window
    takes the joint DP."""
    snapped, _ = grid.snap(cost.minimizer)
    pts = grid.points()
    target = pts[int(np.argmin(((pts - snapped) ** 2).sum(axis=1)))]

    def fn(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return cost(x) if np.array_equal(x, target) else np.inf
        return np.where((x == target).all(axis=1), cost.values(x), np.inf)

    return replace(cost, fn=fn, axes=None)


def monolithic_optimum(instance: Instance, grid: Grid, anchors) -> OracleResult:
    """Minimum over the lattice with the state at each anchor t pinned to
    the snapped minimizer v_t; the trajectory carries the exact v_t there.

    ``anchors`` are timesteps; those outside 1..T are ignored, so
    ``AnchorSet.members`` passes as is.
    """
    T = instance.horizon
    steps = {int(t) for t in anchors if 1 <= int(t) <= T}
    problem = build_window(instance, 0, T + 1)
    problem = replace(problem, costs=tuple(
        _pinned(h, grid) if t in steps else h
        for t, h in enumerate(problem.costs, start=1)))
    points = solve_grid_dp(problem, grid).free_points
    for t in steps:
        points[t - 1] = instance.hitting[t - 1].minimizer
    traj = evaluate_total_cost(instance, points)
    return OracleResult(traj.total, traj, "grid_dp")

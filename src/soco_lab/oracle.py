"""Offline optima, and the anchored-segment solve.

Every optimum is a window solve from ``windows`` over the whole horizon or
over the segments between anchors.  ``offline_optimal`` is the one place
that picks how the full-horizon optimum is computed: the closed-form
tridiagonal solve for the quadratic family, the lattice DP
(``solve_grid_dp``) over the window (0, T+1) for anything else (per
coordinate where it separates, in any d).  ``constrained_offline``, the
anchor-constrained optimum, solves the segments between anchors, which
anchors decouple.  Reported costs always re-evaluate the reported
trajectory, so they are attained, not just claimed.

``anchor_segments`` is the one place anchors become windows.  The offline
runs of ``algorithms`` solve their windows in batches (``solve_segments``,
also behind ``constrained_offline``); the online learners of ``adversary``
solve one window at a time with ``solve_segment`` on the costs revealed so
far.  Both return the same decisions for a window, since a batch equals
each of its windows solved alone, bit for bit, so an online run and its
offline counterpart are the same computation.  The learners' solver has
no lattice, so they solve quadratic windows only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Instance, Trajectory, evaluate_total_cost
from .windows import (
    Grid,
    WindowProblem,
    WindowSolution,
    WindowSolver,
    build_window,
    default_grid,
    solve_grid_dp,
    solve_quadratic_chain,
    solver_for,
)

#: Methods of ``offline_optimal``: ``auto`` takes the closed form on the
#: quadratic family and the lattice DP otherwise; the others force one.
ORACLE_METHODS = ("auto", "grid", "exact_quadratic")


@dataclass(frozen=True, eq=False)
class OracleResult:
    cost: float
    trajectory: Trajectory
    method: str


def offline_optimal_quadratic(instance: Instance) -> OracleResult:
    """Closed-form optimum for the quadratic family over the full horizon."""
    if instance.family_tag != "strongly_convex" or instance.movement.kind != "sq_l2_half":
        raise ValueError("exact quadratic oracle needs the strongly_convex family")
    problem = build_window(instance, 0, instance.horizon + 1)
    sol = solve_quadratic_chain(problem)
    traj = evaluate_total_cost(instance, sol.free_points)
    return OracleResult(traj.total, traj, "exact_quadratic")


def offline_optimal_grid(instance: Instance, grid: Grid | None = None) -> OracleResult:
    """Exact minimum over the lattice: the grid DP over the whole horizon."""
    grid = grid or default_grid(instance)
    problem = build_window(instance, 0, instance.horizon + 1)
    traj = evaluate_total_cost(instance, solve_grid_dp(problem, grid).free_points)
    return OracleResult(traj.total, traj, "grid_dp")


def offline_optimal(instance: Instance, grid: Grid | None = None,
                    method: str = "auto") -> OracleResult:
    """The offline optimum by one of ``ORACLE_METHODS``; ``grid`` is the
    lattice of the DP (``default_grid`` when None).  ``exact_quadratic``
    off the quadratic family and an unknown method raise ValueError."""
    if method not in ORACLE_METHODS:
        raise ValueError(f"unknown oracle method {method!r}; expected one of {ORACLE_METHODS}")
    if method == "exact_quadratic" or (
            method == "auto" and instance.family_tag == "strongly_convex"):
        return offline_optimal_quadratic(instance)
    return offline_optimal_grid(instance, grid)


def anchor_segments(anchors, T: int) -> list[tuple[int, int]]:
    """Windows (a, b] between consecutive anchors, then (last, T+1).

    ``anchors`` is an ``AnchorSet`` or an iterable of timesteps; 0 (the
    start point) is always an anchor and negative entries are ignored.  The
    final window is added only when the last anchor is before T.  If every
    gap is at most w, the decision at any timestep t in (a, b] reads costs
    no later than min(b, T) <= a + w <= t + w - 1, so the run is realizable
    online with prediction window w.
    """
    members = getattr(anchors, "members", anchors)
    times = sorted({0} | {t for t in map(int, members) if t > 0})
    if times[-1] > T:
        raise ValueError("anchors beyond the horizon")
    segments = list(zip(times, times[1:]))
    if times[-1] < T:
        segments.append((times[-1], T + 1))
    return segments


def _decisions(problem: WindowProblem, sol: WindowSolution) -> np.ndarray:
    """The solved interior, then the right anchor when there is one."""
    if problem.right_anchor is None:
        return sol.free_points
    return np.vstack([sol.free_points, problem.right_anchor])


def solve_segment(instance: Instance, a: int, b: int,
                  solver: WindowSolver) -> tuple[str, np.ndarray]:
    """Solver tag and decisions for timesteps a+1 .. min(b, T) of the window
    (a, b]: the solved interior, then the anchor v_b when b <= T."""
    problem = build_window(instance, a, b)
    sol = solver(problem)
    return sol.solver_tag, _decisions(problem, sol)


def solve_segments(instance: Instance, anchor_sets,
                   solver: WindowSolver) -> tuple[np.ndarray, list[set[str]]]:
    """Decisions of the anchored runs on each anchor set, shape (runs, T, d),
    and each run's solver tags.  The windows of all runs are solved as one
    batch, each exactly as ``solve_segment`` solves it alone."""
    T = instance.horizon
    windows = [(r, a, b) for r, anchors in enumerate(anchor_sets)
               for a, b in anchor_segments(anchors, T)]
    problems = [build_window(instance, a, b) for _, a, b in windows]
    points = np.empty((len(anchor_sets), T, instance.dim))
    tags = [set() for _ in anchor_sets]
    for (r, a, b), problem, sol in zip(windows, problems, solver.solve_batch(problems)):
        points[r, a:min(b, T)] = _decisions(problem, sol)
        tags[r].add(sol.solver_tag)
    return points, tags


def constrained_offline(instance: Instance, anchors,
                        solver: WindowSolver | None = None) -> OracleResult:
    """Optimum of the total cost subject to x_t = v_t at every anchor t >= 1.

    The inter-anchor windows are solved independently (anchors decouple
    them), as one batch.  Anchor gaps of 1 are permitted.
    """
    solver = solver or solver_for(instance)
    points, (tags,) = solve_segments(instance, [anchors], solver)
    traj = evaluate_total_cost(instance, points[0])
    return OracleResult(traj.total, traj, tags.pop() if len(tags) == 1 else "mixed")

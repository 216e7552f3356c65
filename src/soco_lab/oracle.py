"""Offline optima, and the anchored-segment solve.

Every optimum is a window solve from ``windows`` over the whole horizon or
over the segments between anchors.  ``offline_optimal`` is the one place
that picks how the full-horizon optimum is computed: the closed-form
tridiagonal solve for the quadratic family, the lattice DP
(``solve_grid_dp``) over the window (0, T+1) for anything else (per
coordinate where it separates, in any d).  On the default lattice of the
piecewise-linear families, their breakpoints, that DP is the exact
optimum; on any other lattice it is the lattice optimum, an upper bound on
it.  Given a ``WindowSolver``, the
lattice DP runs on that solver's caches, so its cost tables and the
stages it shares with windows solved before come from the stage memo.
``constrained_offline``, the anchor-constrained optimum, solves the
segments between anchors, which anchors decouple.  Reported costs always
re-evaluate the reported trajectory, so they are attained, not just
claimed.

``anchor_segments`` is the one place anchors become windows; the decision
at an anchor, its minimizer, is written, never solved.  The offline runs of
``algorithms`` solve their windows with a free timestep in steps
(``solve_segments``, also behind ``constrained_offline``): step 0 is one
batch of every anchored window and the first window of each chained
(``afhc``) run, and step k the k-th window of each chained run, which
starts at the point the run reached.  The harness solves every run of one
(instance, seed) as one call.  The online learners of ``adversary`` solve
one window at a time, built from the costs revealed so far that it spans,
and get the same decisions, since a batch equals each of its windows
solved alone, bit for bit.  The learners' solver has no lattice, so they
solve quadratic windows only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .families import family_of
from .model import Instance, Trajectory, evaluate_total_cost
from .windows import (
    Grid,
    WindowProblem,
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
    """Closed-form optimum for a ``quadratic`` family over the full horizon."""
    if not family_of(instance).quadratic or instance.movement.kind != "sq_l2_half":
        raise ValueError("exact quadratic oracle needs the strongly_convex family")
    problem = build_window(instance, 0, instance.horizon + 1)
    sol = solve_quadratic_chain(problem)
    traj = evaluate_total_cost(instance, sol.free_points)
    return OracleResult(traj.total, traj, "exact_quadratic")


def offline_optimal_grid(instance: Instance, grid: Grid | None = None,
                         solver: WindowSolver | None = None) -> OracleResult:
    """Exact minimum over the lattice: the grid DP over the whole horizon.

    ``grid`` defaults to the solver's lattice, else ``default_grid``.  With
    a ``solver`` (on the same lattice) the DP shares its caches and stage
    memo."""
    grid = grid or (solver.grid if solver is not None else None) or default_grid(instance)
    if solver is not None and solver.grid != grid:
        raise ValueError("the solver's lattice is not the oracle's grid")
    problem = build_window(instance, 0, instance.horizon + 1)
    sol = solve_grid_dp(problem, grid, solver.cache if solver is not None else None)
    traj = evaluate_total_cost(instance, sol.free_points)
    return OracleResult(traj.total, traj, "grid_dp")


def offline_optimal(instance: Instance, grid: Grid | None = None,
                    method: str = "auto", solver: WindowSolver | None = None) -> OracleResult:
    """The offline optimum by one of ``ORACLE_METHODS``; ``grid`` is the
    lattice of the DP (``default_grid`` when None), and ``solver`` a window
    solver on it whose caches the DP shares (``offline_optimal_grid``).
    ``auto`` takes the closed form when the family record says
    ``quadratic``; ``exact_quadratic`` off it and an unknown method raise."""
    if method not in ORACLE_METHODS:
        raise ValueError(f"unknown oracle method {method!r}; expected one of {ORACLE_METHODS}")
    if method == "exact_quadratic" or (
            method == "auto" and family_of(instance).quadratic):
        return offline_optimal_quadratic(instance)
    return offline_optimal_grid(instance, grid, solver)


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


def solve_segments(instance: Instance, anchor_sets, solver: WindowSolver,
                   chained=None) -> tuple[np.ndarray, list[set[str]]]:
    """Decisions of the runs on each anchor set, shape (runs, T, d), and
    each run's solver tags (none if it solved no window).  ``chained`` flags
    the runs whose windows chain (``afhc``); the others are anchored.

    Every run starts as the minimizers, which puts each anchor in place.
    Windows with a free timestep are then solved in steps, one
    ``solve_batch`` call each.  Step 0 holds every distinct anchored window
    (a, b] with b > a + 1, each with the points it gets solved alone (a
    window that several runs share, as the phases of ``sfhc``, ``dsfhc``
    and ``rsfhc-a`` at one w, is solved once), and the first window of each
    chained run.  Step k holds the k-th window of each chained run: it
    starts at the last point of the run's previous window and has no right
    anchor.  The free points are written into their runs' rows once, after
    the last step."""
    T = instance.horizon
    runs = [anchor_segments(anchors, T) for anchors in anchor_sets]
    chained = [False] * len(runs) if chained is None else list(chained)
    anchored = list(dict.fromkeys(seg for segments, c in zip(runs, chained) if not c
                                  for seg in segments if seg[1] - seg[0] > 1))
    chains = [r for r, c in enumerate(chained) if c]
    heads = dict.fromkeys(chains, instance.start)   # the point each chained run reached
    solved, written = {}, []   # (run, first free timestep, solution)
    for k in range(max((len(runs[r]) for r in chains), default=1)):
        keys = anchored if k == 0 else []
        step = [(r, *runs[r][k]) for r in chains if k < len(runs[r])]
        problems = [build_window(instance, a, b) for a, b in keys] + [
            WindowProblem(a, b, heads[r], None, instance.hitting[a:min(b, T)], instance.movement)
            for r, a, b in step]
        sols = solver.solve_batch(problems) if problems else []
        solved.update(zip(keys, sols))
        for (r, a, _), sol in zip(step, sols[len(keys):]):
            written.append((r, a, sol))
            heads[r] = sol.free_points[-1]
    written += [(r, seg[0], solved[seg]) for r, segments in enumerate(runs) if not chained[r]
                for seg in segments if seg in solved]
    points = np.repeat(instance.minimizers()[None], len(runs), axis=0)   # anchors in place
    tags = [set() for _ in runs]
    for r, a, sol in written:
        points[r, a:a + len(sol.free_points)] = sol.free_points
        tags[r].add(sol.solver_tag)
    return points, tags


def constrained_offline(instance: Instance, anchors,
                        solver: WindowSolver | None = None) -> OracleResult:
    """Optimum of the total cost subject to x_t = v_t at every anchor t >= 1.

    The inter-anchor windows are solved independently (anchors decouple
    them), as one batch.  Anchor gaps of 1 are permitted.  The method is
    the windows' one solver tag, ``mixed`` for several, ``anchors`` for none.
    """
    solver = solver or solver_for(instance)
    points, (tags,) = solve_segments(instance, [anchors], solver)
    traj = evaluate_total_cost(instance, points[0])
    method = "mixed" if len(tags) > 1 else min(tags, default="anchors")
    return OracleResult(traj.total, traj, method)

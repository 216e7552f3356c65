"""Online algorithms: synchronized fixed-horizon control and baselines.

All variants share one mechanic: split the horizon into windows of length
at most w, pin ("anchor") the decision at each window boundary to the
revealed minimizer, and solve each window's interior exactly.  Anchors
decouple the windows, so each run is a sequence of independent small
solves, each reading only the costs inside its own prediction window.
Every algorithm is fully given by its ``Plan``: the anchor sets it solves
(drawn here, and only here), whether its windows chain, and how it
combines their runs.  Anchors become windows in ``oracle.anchor_segments``,
and each window is solved exactly as the online learners of ``adversary``
solve it with ``solve_segment``.

Since a plan is known before any window is solved, plans are solved in
batches: ``solve_plans`` solves the runs of many plans as one
``oracle.solve_segments`` call, and the harness solves every row of one
(instance, seed) that way.  The ``run_*`` functions,
``sfhc_subroutine_costs`` and ``rsfhc_a_expected_cost`` solve one plan
alone.  On a lattice, a batch runs one min-plus call per DP stage for all
its windows instead of one per window, which matters because these windows
are small (at most w stages) and a per-window call costs mostly numpy
overhead.

  greedy    w = 1: always pick the current minimizer.
  sfhc(h)   anchors at timesteps congruent to h modulo w.
  dsfhc     pointwise average of the w phase subroutines.
  rsfhc-a   one phase subroutine sampled uniformly at random.
  rsfhc-b   anchors at randomized gaps drawn from (w/2, w-1].
  afhc      unanchored fixed-horizon baseline (no synchronization): the
            phase windows of ``dsfhc``, chained, so each starts at the
            previous window's end point and has no right anchor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Instance, Trajectory, evaluate_total_cost
from .oracle import solve_segments
from .windows import WindowSolver, solver_for


@dataclass(frozen=True)
class AnchorSet:
    """Sorted anchor timesteps, either a phase grid or an explicit sequence."""

    members: tuple[int, ...]

    @classmethod
    def phase(cls, h: int, w: int, T: int) -> "AnchorSet":
        """Timesteps {k : k = h (mod w), 0 <= k <= T}."""
        if w < 1 or not 0 <= h < w:
            raise ValueError("need w >= 1 and 0 <= h < w")
        return cls(tuple(k for k in range(T + 1) if k % w == h))

    @classmethod
    def explicit(cls, times) -> "AnchorSet":
        """Explicit anchors; requires t_0 = 0 and gaps of at least 2."""
        times = tuple(int(t) for t in times)
        if not times or times[0] != 0:
            raise ValueError("explicit anchor sequence must start at 0")
        if any(b - a < 2 for a, b in zip(times, times[1:])):
            raise ValueError("explicit anchor gaps must be >= 2")
        return cls(times)


@dataclass(frozen=True, eq=False)
class Plan:
    """The anchor sets an algorithm solves, and how it combines their runs:
    ``run`` scores its one run, ``mean_points`` the pointwise mean of the
    runs (``dsfhc``, ``afhc``), ``mean_costs`` is the mean of the runs'
    costs (the subroutine mean of the bound checks).  A ``chained`` plan
    (``afhc``) starts each window of a run at the run's previous point,
    with no right anchor."""

    anchor_sets: tuple[AnchorSet, ...]
    combine: str = "run"
    chained: bool = False

    def trajectory(self, instance: Instance, points: np.ndarray) -> Trajectory:
        """The scored decisions of a ``run`` or ``mean_points`` plan, from
        its runs' decisions ``points`` (runs, T, d)."""
        if self.combine == "mean_costs":
            raise ValueError("a mean of costs has no trajectory")
        return evaluate_total_cost(instance, points[0] if self.combine == "run"
                                   else points.mean(axis=0))

    def cost(self, instance: Instance, points: np.ndarray) -> float:
        """The plan's cost from its runs' decisions ``points`` (runs, T, d)."""
        if self.combine == "mean_costs":
            return float(np.mean(run_costs(instance, points)))
        return self.trajectory(instance, points).total


def run_costs(instance: Instance, points: np.ndarray) -> list[float]:
    """Total cost of each run of ``points`` (runs, T, d)."""
    return [evaluate_total_cost(instance, run).total for run in points]


def solve_plans(instance: Instance, plans,
                solver: WindowSolver | None = None) -> list[np.ndarray]:
    """Each plan's runs, (runs, T, d), with the runs of all plans solved as
    one ``solve_segments`` call; each equals its plan solved alone, bit for
    bit."""
    anchor_sets = [anchors for plan in plans for anchors in plan.anchor_sets]
    chained = [plan.chained for plan in plans for _ in plan.anchor_sets]
    points, _ = solve_segments(instance, anchor_sets, solver or solver_for(instance), chained)
    ends = np.cumsum([0] + [len(plan.anchor_sets) for plan in plans])
    return [points[a:b] for a, b in zip(ends[:-1], ends[1:])]


def sfhc_plan(w: int, h: int, T: int) -> Plan:
    """Phase-h subroutine: anchored at every timestep congruent to h mod w."""
    return Plan((AnchorSet.phase(h, w, T),))


def dsfhc_plan(w: int, T: int) -> Plan:
    """The pointwise mean of the w phase subroutines."""
    return Plan(_phases(w, T), "mean_points")


def subroutine_mean_plan(w: int, T: int) -> Plan:
    """The mean cost of the w phase subroutines: the exact expectation of
    ``rsfhc-a`` over its phase draw."""
    return Plan(_phases(w, T), "mean_costs")


def rsfhc_a_plan(w: int, T: int, rng: np.random.Generator) -> Plan:
    """One phase subroutine, the phase drawn uniformly from {0..w-1}."""
    if w < 1:
        raise ValueError("w must be >= 1")
    return sfhc_plan(w, int(rng.integers(0, w)), T)


def rsfhc_b_plan(w: int, T: int, rng: np.random.Generator) -> Plan:
    """Anchors at randomized gaps (``gen_anchor_sequence``).  Each segment
    spans at most w - 1 timesteps, so the run is realizable online with
    prediction window w."""
    return Plan((gen_anchor_sequence(w, T, rng),))


def afhc_plan(w: int, T: int) -> Plan:
    """The pointwise mean of the w phase runs, each window chained to the
    previous one's end point."""
    return Plan(_phases(w, T), "mean_points", chained=True)


def _phases(w: int, T: int) -> tuple[AnchorSet, ...]:
    if w < 1:
        raise ValueError("w must be >= 1")
    return tuple(AnchorSet.phase(h, w, T) for h in range(w))


def _alone(instance: Instance, plan: Plan, solver: WindowSolver | None) -> np.ndarray:
    return solve_plans(instance, [plan], solver)[0]


def run_sfhc(instance: Instance, w: int, h: int,
             solver: WindowSolver | None = None) -> Trajectory:
    """Phase-h subroutine: anchored at every timestep congruent to h mod w."""
    plan = sfhc_plan(w, h, instance.horizon)
    return plan.trajectory(instance, _alone(instance, plan, solver))


def run_greedy(instance: Instance) -> Trajectory:
    """w = 1 special case: x_t = v_t at every step."""
    return evaluate_total_cost(instance, instance.minimizers())


def sfhc_subroutine_costs(instance: Instance, w: int,
                          solver: WindowSolver | None = None) -> list[float]:
    """Total costs of the w phase subroutines."""
    plan = subroutine_mean_plan(w, instance.horizon)
    return run_costs(instance, _alone(instance, plan, solver))


def run_dsfhc(instance: Instance, w: int,
              solver: WindowSolver | None = None) -> Trajectory:
    """Average the w subroutine decisions pointwise, then re-score the
    averaged sequence (averaging costs is not averaging points)."""
    plan = dsfhc_plan(w, instance.horizon)
    return plan.trajectory(instance, _alone(instance, plan, solver))


def run_rsfhc_a(instance: Instance, w: int, rng: np.random.Generator,
                solver: WindowSolver | None = None) -> Trajectory:
    """Run one subroutine with the phase sampled uniformly from {0..w-1}."""
    plan = rsfhc_a_plan(w, instance.horizon, rng)
    return plan.trajectory(instance, _alone(instance, plan, solver))


def rsfhc_a_expected_cost(instance: Instance, w: int,
                          solver: WindowSolver | None = None) -> float:
    """Exact expectation over the phase draw, by exhaustive enumeration."""
    plan = subroutine_mean_plan(w, instance.horizon)
    return plan.cost(instance, _alone(instance, plan, solver))


def gap_support(w: int) -> list[int]:
    """Integer gaps n with w/2 < n <= w - 1."""
    return [n for n in range(1, w) if 2 * n > w]


def gen_anchor_sequence(w: int, T: int, rng: np.random.Generator) -> AnchorSet:
    """Randomized anchors t_0 = 0, t_{i+1} = t_i + Y_i with Y_i uniform on
    the integers in (w/2, w-1].  Requires w >= 4 so the support is usable;
    every gap then lies in [2, w-1].  Members beyond T are dropped."""
    if w < 4:
        raise ValueError("randomized anchor schedule requires w >= 4")
    support = gap_support(w)
    times = [0]
    while times[-1] <= T:
        times.append(times[-1] + int(rng.choice(support)))
    return AnchorSet.explicit([t for t in times if t <= T])


def run_rsfhc_b(instance: Instance, w: int, rng: np.random.Generator,
                solver: WindowSolver | None = None) -> Trajectory:
    """Anchor at randomized gaps and solve the decoupled segments."""
    plan = rsfhc_b_plan(w, instance.horizon, rng)
    return plan.trajectory(instance, _alone(instance, plan, solver))


def run_afhc(instance: Instance, w: int,
             solver: WindowSolver | None = None) -> Trajectory:
    """Unanchored fixed-horizon baseline: each phase chains its windows from
    its own current point with no terminal constraint, and the committed
    point is the phase average."""
    plan = afhc_plan(w, instance.horizon)
    return plan.trajectory(instance, _alone(instance, plan, solver))

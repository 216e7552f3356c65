"""Online algorithms: synchronized fixed-horizon control and baselines.

All variants share one mechanic: split the horizon into windows of length
at most w, pin ("anchor") the decision at each window boundary to the
revealed minimizer, and solve each window's interior exactly.  Anchors
decouple the windows, so each run is a sequence of independent small
solves, each reading only the costs inside its own prediction window.
An algorithm here only draws its anchor set; every anchored run is
``oracle.constrained_offline`` on it, which turns anchors into windows with
``anchor_segments`` and solves each with ``solve_segment``, the same solve
the online learners of ``adversary`` make.

  greedy    w = 1: always pick the current minimizer.
  sfhc(h)   anchors at timesteps congruent to h modulo w.
  dsfhc     pointwise average of the w phase subroutines.
  rsfhc-a   one phase subroutine sampled uniformly at random.
  rsfhc-b   anchors at randomized gaps drawn from (w/2, w-1].
  afhc      unanchored fixed-horizon baseline (no synchronization): its
            windows come from ``anchor_segments`` too, but each starts at
            the previous window's end point and has no right anchor, so it
            keeps its own chaining loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Instance, Trajectory, evaluate_total_cost
from .oracle import anchor_segments, constrained_offline
from .windows import WindowProblem, WindowSolver, solver_for


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


def run_sfhc(instance: Instance, w: int, h: int,
             solver: WindowSolver | None = None) -> Trajectory:
    """Phase-h subroutine: anchored at every timestep congruent to h mod w."""
    anchors = AnchorSet.phase(h, w, instance.horizon)
    return constrained_offline(instance, anchors, solver).trajectory


def run_greedy(instance: Instance) -> Trajectory:
    """w = 1 special case: x_t = v_t at every step."""
    return evaluate_total_cost(instance, instance.minimizers())


def sfhc_subroutine_costs(instance: Instance, w: int,
                          solver: WindowSolver | None = None) -> list[float]:
    """Total costs of the w phase subroutines."""
    solver = solver or solver_for(instance)
    return [run_sfhc(instance, w, h, solver).total for h in range(w)]


def run_dsfhc(instance: Instance, w: int,
              solver: WindowSolver | None = None) -> Trajectory:
    """Average the w subroutine decisions pointwise, then re-score the
    averaged sequence (averaging costs is not averaging points)."""
    if w < 1:
        raise ValueError("w must be >= 1")
    solver = solver or solver_for(instance)
    if w == 1:
        return run_sfhc(instance, 1, 0, solver)
    stack = np.stack([run_sfhc(instance, w, h, solver).points for h in range(w)])
    return evaluate_total_cost(instance, stack.mean(axis=0))


def run_rsfhc_a(instance: Instance, w: int, rng: np.random.Generator,
                solver: WindowSolver | None = None) -> Trajectory:
    """Run one subroutine with the phase sampled uniformly from {0..w-1}."""
    if w < 1:
        raise ValueError("w must be >= 1")
    h = int(rng.integers(0, w))
    return run_sfhc(instance, w, h, solver)


def rsfhc_a_expected_cost(instance: Instance, w: int,
                          solver: WindowSolver | None = None) -> float:
    """Exact expectation over the phase draw, by exhaustive enumeration."""
    costs = sfhc_subroutine_costs(instance, w, solver)
    return float(np.mean(costs))


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
    """Anchor at randomized gaps and solve the decoupled segments.

    Each segment spans at most w - 1 timesteps, so the run is realizable
    online with prediction window w.
    """
    anchors = gen_anchor_sequence(w, instance.horizon, rng)
    return constrained_offline(instance, anchors, solver).trajectory


def run_afhc(instance: Instance, w: int,
             solver: WindowSolver | None = None) -> Trajectory:
    """Unanchored fixed-horizon baseline, averaged over the w phases.

    Each subroutine solves the windows of its phase anchor set from its own
    current point with no terminal constraint (so not with ``solve_segment``,
    which pins both ends); the committed point is the phase average.
    """
    if w < 1:
        raise ValueError("w must be >= 1")
    solver = solver or solver_for(instance)
    T = instance.horizon
    per_phase = []
    for h in range(w):
        points = np.empty((T, instance.dim))
        current = instance.start
        for a, b in anchor_segments(AnchorSet.phase(h, w, T), T):
            problem = WindowProblem(a, b, current, None,
                                    tuple(instance.hitting[a:min(b, T)]),
                                    instance.movement)
            points[a:min(b, T)] = solver(problem).free_points
            current = points[min(b, T) - 1]
        per_phase.append(points)
    if w == 1:
        return evaluate_total_cost(instance, per_phase[0])
    return evaluate_total_cost(instance, np.stack(per_phase).mean(axis=0))

"""Online algorithms: synchronized fixed-horizon control and baselines.

All variants share one mechanic: split the horizon into windows of length
at most w, pin ("anchor") the decision at each window boundary to the
revealed minimizer, and solve each window's interior exactly.  Anchors
decouple the windows, so each run is a sequence of independent small
solves, each reading only the costs inside its own prediction window.
An algorithm here only draws its anchor set; anchors become windows in
``oracle.anchor_segments``, and each window is solved exactly as the
online learners of ``adversary`` solve it with ``solve_segment``.

Windows are solved in batches.  One anchored run is one batch
(``constrained_offline``); the w phase subroutines of ``dsfhc`` and of the
subroutine mean are one batch together (``oracle.solve_segments``), and
``afhc`` solves the k-th window of every phase as one batch.  On a lattice,
a batch runs one min-plus call per DP stage for all its windows instead of
one per window, which matters because these windows are small (at most w
stages) and a per-window call costs mostly numpy overhead.

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
from .oracle import anchor_segments, constrained_offline, solve_segments
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


def _phase_points(instance: Instance, w: int, solver: WindowSolver | None) -> np.ndarray:
    """Decisions of the w phase subroutines, shape (w, T, d), solved as one batch."""
    T = instance.horizon
    points, _ = solve_segments(instance, [AnchorSet.phase(h, w, T) for h in range(w)],
                               solver or solver_for(instance))
    return points


def sfhc_subroutine_costs(instance: Instance, w: int,
                          solver: WindowSolver | None = None) -> list[float]:
    """Total costs of the w phase subroutines."""
    return [evaluate_total_cost(instance, points).total
            for points in _phase_points(instance, w, solver)]


def run_dsfhc(instance: Instance, w: int,
              solver: WindowSolver | None = None) -> Trajectory:
    """Average the w subroutine decisions pointwise, then re-score the
    averaged sequence (averaging costs is not averaging points)."""
    if w < 1:
        raise ValueError("w must be >= 1")
    return evaluate_total_cost(instance, _phase_points(instance, w, solver).mean(axis=0))


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
    which pins both ends); the committed point is the phase average.  The
    phase chains advance together: step k solves the k-th window of every
    phase as one batch.
    """
    if w < 1:
        raise ValueError("w must be >= 1")
    solver = solver or solver_for(instance)
    T = instance.horizon
    chains = [anchor_segments(AnchorSet.phase(h, w, T), T) for h in range(w)]
    points = np.empty((w, T, instance.dim))
    current = [instance.start] * w
    for k in range(max(map(len, chains))):
        step = [(h, *chain[k]) for h, chain in enumerate(chains) if k < len(chain)]
        problems = [WindowProblem(a, b, current[h], None,
                                  tuple(instance.hitting[a:min(b, T)]), instance.movement)
                    for h, a, b in step]
        for (h, a, b), sol in zip(step, solver.solve_batch(problems)):
            points[h, a:min(b, T)] = sol.free_points
            current[h] = points[h, min(b, T) - 1]
    return evaluate_total_cost(instance, points.mean(axis=0))

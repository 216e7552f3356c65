"""Online algorithms: synchronized fixed-horizon control and baselines.

All variants share one mechanic: split the horizon into windows of length
at most w, pin ("anchor") the decision at each window boundary to the
revealed minimizer, and solve each window's interior exactly.  Anchors
decouple the windows, so each run is a sequence of independent small
solves, each reading only the costs inside its own prediction window.
Every anchored run is ``oracle.constrained_offline`` on its anchor set,
the one routine that solves the segments and stitches them together.

  greedy    w = 1: always pick the current minimizer.
  sfhc(h)   anchors at timesteps congruent to h modulo w.
  dsfhc     pointwise average of the w phase subroutines.
  rsfhc-a   one phase subroutine sampled uniformly at random.
  rsfhc-b   anchors at randomized gaps drawn from (w/2, w-1].
  afhc      unanchored fixed-horizon baseline (no synchronization).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Instance, Trajectory, evaluate_total_cost
from .oracle import constrained_offline
from .windows import WindowProblem, WindowSolver, solver_for


@dataclass(frozen=True)
class AnchorSet:
    """Sorted anchor timesteps, either a phase grid or an explicit sequence."""

    members: tuple[int, ...]
    form: str                 # "phase" | "explicit"
    w: int | None = None
    h: int | None = None

    @classmethod
    def phase(cls, h: int, w: int, T: int) -> "AnchorSet":
        """Timesteps {k : k = h (mod w), 0 <= k <= T}."""
        if w < 1 or not 0 <= h < w:
            raise ValueError("need w >= 1 and 0 <= h < w")
        return cls(tuple(k for k in range(T + 1) if k % w == h), "phase", w, h)

    @classmethod
    def explicit(cls, times) -> "AnchorSet":
        """Explicit anchors; requires t_0 = 0 and gaps of at least 2."""
        times = tuple(int(t) for t in times)
        if not times or times[0] != 0:
            raise ValueError("explicit anchor sequence must start at 0")
        if any(b - a < 2 for a, b in zip(times, times[1:])):
            raise ValueError("explicit anchor gaps must be >= 2")
        return cls(times, "explicit")


def phase_segments(T: int, w: int, h: int) -> list[tuple[int, int]]:
    """Window boundaries (a, b) for phase h; the final b may exceed T.

    Every segment has b - a <= w, so the decision at any interior timestep
    t in (a, b] reads costs no later than a + w <= t + w - 1: the run is
    realizable online with prediction window w.
    """
    if w < 1 or not 0 <= h < w:
        raise ValueError("need w >= 1 and 0 <= h < w")
    anchors = [0] + [k for k in range(1, T + 1) if k % w == h]
    segments = list(zip(anchors, anchors[1:]))
    if anchors[-1] < T:
        segments.append((anchors[-1], anchors[-1] + w))
    return segments


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

    Each subroutine solves its length-w windows from its own current point
    with no terminal constraint; the committed point is the phase average.
    """
    if w < 1:
        raise ValueError("w must be >= 1")
    solver = solver or solver_for(instance)
    T = instance.horizon
    per_phase = []
    for h in range(w):
        points = np.empty((T, instance.dim))
        current = instance.start
        for a, b in phase_segments(T, w, h):
            cap = min(b, T)
            problem = WindowProblem(a, b, current, None,
                                    tuple(instance.hitting[a:cap]), instance.movement)
            sol = solver(problem)
            for i, t in enumerate(problem.free_times()):
                points[t - 1] = sol.free_points[i]
            if cap > a:
                current = sol.free_points[-1]
        per_phase.append(points)
    if w == 1:
        return evaluate_total_cost(instance, per_phase[0])
    return evaluate_total_cost(instance, np.stack(per_phase).mean(axis=0))

"""Instance generators, the commit-reveal game protocol, and renewal checks.

The semi-adaptive game interleaves three moves per round: the adversary
designs the cost at the far edge of the learner's prediction window and
commits its own point for that timestep, the learner decides its current
point, and a quantized observation of that decision is disclosed back to
the adversary.  The adversary can therefore adapt future costs to the
learner's past, but never to decisions it has not yet seen.

The learners play a plan of ``algorithms`` (``sfhc_plan``, at w = 1 for
greedy, ``rsfhc_b_plan`` or ``dsfhc_plan``), drawn at reset.  When a
window's first timestep arrives, each run's window is built from the
revealed costs it spans and its anchors alone, as ``build_window`` builds it,
and solved, or written if it is an anchor alone, so a game is linear in T.
The learner plays its run, or the pointwise mean of its runs: against an
oblivious adversary an online run equals the offline run of
``algorithms``.  Their window solver has no lattice, so a shell
whose windows are not quadratic raises ``UnsupportedProblemError``.

Also here: oblivious instance generators, a phase-tracking "spike" stress
policy, Monte Carlo estimates of randomized-anchor hit probabilities, and
the stake-ahead investment games that isolate the renewal argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .families import FAMILIES, FamilyParams, cost_to_spec, make_strongly_convex
from .model import HittingCost, Instance, MovementCost, Point, as_point, evaluate_total_cost
from .windows import Grid, WindowProblem, WindowSolver
from .oracle import anchor_segments
from .algorithms import Plan, dsfhc_plan, gap_support, rsfhc_b_plan, sfhc_plan


class ProtocolError(RuntimeError):
    """The adversary emitted a cost outside the declared family bounds."""


class EstimationFailed(RuntimeError):
    """No Monte Carlo sample satisfied the requested condition."""


# ---------------------------------------------------------------------------
# Oblivious instance generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RandomWalk:
    step: float = 0.5


@dataclass(frozen=True)
class Spikes:
    amplitude: float = 1.0
    period: int = 5


@dataclass(frozen=True)
class Constant:
    pass


PathModel = RandomWalk | Spikes | Constant


def minimizer_path(path_model: PathModel, T: int, d: int,
                   rng: np.random.Generator, base=None,
                   nonnegative: bool = False, grid: Grid | None = None) -> np.ndarray:
    """Draw a length-T minimizer path; optionally snapped to a lattice."""
    if base is None:
        base = rng.uniform(0.5, 1.5, size=d) if nonnegative else rng.uniform(-1.0, 1.0, size=d)
    base = np.asarray(base, dtype=float)
    if isinstance(path_model, Constant):
        path = np.tile(base, (T, 1))
    elif isinstance(path_model, RandomWalk):
        steps = path_model.step * rng.standard_normal((T, d))
        path = base + np.cumsum(steps, axis=0)
    elif isinstance(path_model, Spikes):
        path = np.tile(base, (T, 1))
        for t in range(T):
            if (t + 1) % path_model.period == 0:
                path[t] = base + path_model.amplitude
    else:
        raise ValueError(f"unknown path model {path_model!r}")
    if nonnegative:
        path = np.abs(path)
    if grid is not None:
        path = grid.snap_rows(path)
    return path


def generate_oblivious_instance(family: FamilyParams, path_model: PathModel,
                                T: int, d: int, rng: np.random.Generator,
                                start=None) -> Instance:
    """Fixed cost sequence drawn up front: the oblivious adversary."""
    record = next((r for r in FAMILIES.values() if type(family) is r.params), None)
    if record is None:
        raise ValueError(f"unknown family params {family!r}")
    path = minimizer_path(path_model, T, d, rng, nonnegative=record.orthant)
    return record.make(path=path, start=start, **vars(family))


# ---------------------------------------------------------------------------
# Online learners (incremental versions of the offline runners)
# ---------------------------------------------------------------------------

@dataclass
class GameShell:
    """Public instance data: everything but the hitting costs themselves."""

    dim: int
    horizon: int
    start: Point
    movement: MovementCost
    lam: float
    family_tag: str = "strongly_convex"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.start = as_point(self.start, self.dim)


class _PlannedLearner:
    """Plays the run of its plan, or the pointwise mean of its runs, solving
    each run's window when the window's first timestep arrives."""

    def reset(self, shell: GameShell, w: int, rng: np.random.Generator | None = None):
        T = shell.horizon
        self.shell = shell
        self._plan = self.plan(w, T, rng)
        self._runs = np.zeros((len(self._plan.anchor_sets), T, shell.dim))
        self._solver = WindowSolver()
        self._windows: dict[int, list] = {}
        for r, anchors in enumerate(self._plan.anchor_sets):
            for a, b in anchor_segments(anchors, T):
                self._windows.setdefault(a + 1, []).append((r, a, b))

    def plan(self, w: int, T: int, rng) -> Plan:  # pragma: no cover - abstract
        raise NotImplementedError

    def decide(self, t: int, costs: Sequence[HittingCost]) -> np.ndarray:
        shell, T = self.shell, self.shell.horizon
        for r, a, b in self._windows.get(t, ()):
            # the window ``build_window`` makes of the revealed costs, from
            # costs a+1 .. min(b, T) and its anchors alone
            right = costs[b - 1].minimizer if b <= T else None
            if right is not None:
                self._runs[r, b - 1] = right
            if b == a + 1:   # no free timestep: the anchor alone
                continue
            left = shell.start if a == 0 else costs[a - 1].minimizer
            window = WindowProblem(a, b, left, right, tuple(costs[a:min(b, T)]), shell.movement)
            free = self._solver(window).free_points
            self._runs[r, a:a + len(free)] = free
        if self._plan.combine == "run":
            return self._runs[0, t - 1]
        # the offline run's reduction over the same (runs, T, d) shape: a
        # mean over one timestep's column alone may sum in another order
        return self._runs.mean(axis=0)[t - 1]


class GreedyLearner(_PlannedLearner):
    """Plays each revealed minimizer: ``sfhc`` at w = 1, whatever the w."""

    def plan(self, w, T, rng):
        return sfhc_plan(1, 0, T)


class SfhcLearner(_PlannedLearner):
    def __init__(self, h: int):
        self.h = h

    def plan(self, w, T, rng):
        return sfhc_plan(w, self.h, T)


class RsfhcBLearner(_PlannedLearner):
    """Randomized anchors drawn once at reset from the (w/2, w-1] gap law."""

    def plan(self, w, T, rng):
        return rsfhc_b_plan(w, T, rng)


class DsfhcLearner(_PlannedLearner):
    """Averages the w phase subroutines pointwise."""

    def plan(self, w, T, rng):
        return dsfhc_plan(w, T)


# ---------------------------------------------------------------------------
# The semi-adaptive protocol
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GameTranscript:
    """Interleaved reveal/commit/decide record of one game."""

    revealed_costs: tuple[HittingCost, ...]
    reveal_clock: tuple[int, ...]
    adversary_commits: np.ndarray    # (T, d)
    commit_clock: tuple[int, ...]
    learner_points: np.ndarray       # (T, d)
    decide_clock: tuple[int, ...]
    revealed_info: tuple
    learner_cost: float
    adversary_cost: float
    instance: Instance               # realized cost sequence, for post-hoc oracles


def transcript_to_spec(transcript: GameTranscript) -> dict:
    """Serialize a transcript for replay; costs must be analytic-family."""
    return {
        "revealed_costs": [cost_to_spec(cost) for cost in transcript.revealed_costs],
        "reveal_clock": list(transcript.reveal_clock),
        "adversary_commits": transcript.adversary_commits.tolist(),
        "commit_clock": list(transcript.commit_clock),
        "learner_points": transcript.learner_points.tolist(),
        "decide_clock": list(transcript.decide_clock),
        "revealed_info": [list(z) if isinstance(z, tuple) else z
                          for z in transcript.revealed_info],
        "learner_cost": transcript.learner_cost,
        "adversary_cost": transcript.adversary_cost,
    }


def grid_quantizer(grid: Grid) -> Callable:
    """Default disclosure map: the lattice index vector of the decision,
    nearest per axis by ``Grid.index_rows`` (``snap_rows``' rule); a finite
    decision outside the box takes the end index, a non-finite one raises."""

    def psi(x) -> tuple[int, ...]:
        return tuple(grid.index_rows(np.asarray(x, dtype=float)[None, :])[0].tolist())

    return psi


def _check_family_bounds(cost: HittingCost, shell: GameShell,
                         rng: np.random.Generator):
    """Sampled order-of-growth check against the declared lam."""
    v = cost.minimizer
    c = shell.movement
    for off in rng.uniform(-2.0, 2.0, size=(6, shell.dim)):
        x = v + off
        lhs = cost(x)
        rhs = shell.lam * (c(x, v) + c(v, x))
        if lhs + 1e-9 < rhs:
            raise ProtocolError(
                f"adversary cost violates the declared growth constant "
                f"lam={shell.lam} at offset {off}")


def play_semi_adaptive(learner, adversary, shell: GameShell, w: int,
                       psi: Callable, rng: np.random.Generator) -> GameTranscript:
    """Run the two-phase commit-reveal game and score both sides.

    Round 0 seeds the first w - 1 costs and commitments; each later round
    tau reveals and commits timestep tau + w - 1, then the learner decides
    x_tau, and psi(x_tau) is disclosed to the adversary.
    """
    if w < 1:
        raise ValueError("w must be >= 1")
    T = shell.horizon
    seeds = rng.integers(0, 2 ** 63 - 1, size=3)
    adv_rng = np.random.default_rng(int(seeds[0]))
    learner_rng = np.random.default_rng(int(seeds[1]))
    check_rng = np.random.default_rng(int(seeds[2]))

    adversary.reset(shell, w, adv_rng, psi)
    learner.reset(shell, w, learner_rng)

    clock = 0
    costs: list[HittingCost] = []
    commits: list[np.ndarray] = []
    reveal_clock: list[int] = []
    commit_clock: list[int] = []
    decide_clock: list[int] = []
    infos: list = []

    opening = adversary.open() if w > 1 else []
    if len(opening) != w - 1:
        raise ProtocolError(f"opening must cover timesteps 1..{w - 1}")
    for cost, _ in opening:
        _check_family_bounds(cost, shell, check_rng)
        costs.append(cost)
        reveal_clock.append(clock)
        clock += 1
    for _, commit in opening:
        commits.append(np.asarray(commit, dtype=float))
        commit_clock.append(clock)
        clock += 1

    points = np.empty((T, shell.dim))
    for tau in range(1, T + 1):
        t_new = tau + w - 1
        if t_new <= T:
            cost, commit = adversary.step(tau)
            _check_family_bounds(cost, shell, check_rng)
            costs.append(cost)
            reveal_clock.append(clock)
            clock += 1
            commits.append(np.asarray(commit, dtype=float))
            commit_clock.append(clock)
            clock += 1
        points[tau - 1] = learner.decide(tau, costs[:min(t_new, T)])
        decide_clock.append(clock)
        clock += 1
        z = psi(points[tau - 1])
        infos.append(z)
        adversary.observe(tau, z)
        clock += 1

    instance = Instance(shell.dim, T, shell.start, tuple(costs), shell.movement,
                        lam=shell.lam, family_tag=shell.family_tag)
    learner_traj = evaluate_total_cost(instance, points)
    adversary_traj = evaluate_total_cost(instance, np.stack(commits))
    return GameTranscript(tuple(costs), tuple(reveal_clock), np.stack(commits),
                          tuple(commit_clock), learner_traj.points,
                          tuple(decide_clock), tuple(infos),
                          learner_traj.total, adversary_traj.total, instance)


class ObliviousAdversary:
    """Plays a fixed instance regardless of anything the learner reveals."""

    def __init__(self, instance: Instance, commits=None):
        self.instance = instance
        self._commits = instance.minimizers() if commits is None else np.asarray(commits, float)

    def reset(self, shell, w, rng, psi):
        self.w = w

    def open(self):
        return [(self.instance.hitting[t], self._commits[t]) for t in range(self.w - 1)]

    def step(self, tau):
        t = tau + self.w - 1
        return self.instance.hitting[t - 1], self._commits[t - 1]

    def observe(self, tau, z):
        pass


class SpikeAdversary:
    """Tracks the learner's anchor phase and inflates predicted anchors.

    Keeps a slow base path; every designed cost is a quadratic centered at
    the base plus an alternating displacement whose amplitude is multiplied
    by the inflation factor at timesteps the phase posterior marks as
    anchors.  Its own commits take the one-step optimum
    (m v_t + x_{t-1}) / (m + 1), so it absorbs its spikes cheaply while an
    anchored learner must chase them exactly.  Inflation 1 reduces to an
    oblivious spike generator.
    """

    BASE_STEP, AMPLITUDE = 0.1, 1.0   # the base path's walk step, the spike size

    def __init__(self, quantization_bins: int, inflation: float):
        if inflation < 1:
            raise ValueError("inflation factor must be >= 1")
        self.bins = quantization_bins
        self.inflation = inflation

    def reset(self, shell: GameShell, w, rng, psi=None):
        self.shell, self.w, self.rng = shell, w, rng
        if psi is None:
            span = 4.0 * max(self.AMPLITUDE, 1.0) * max(self.inflation, 1.0)
            grid = Grid.make(-span, span, self.bins, dim=shell.dim)
            psi = grid_quantizer(grid)
        self.psi = psi
        self.m = float(shell.params.get("m", 2.0))
        self.base = np.asarray(shell.start, dtype=float).copy()
        self.counts = np.zeros(w, dtype=int)
        self.minimizers: dict[int, np.ndarray] = {}
        self.predicted: list[int] = []
        self._last_commit = np.asarray(shell.start, dtype=float).copy()

    def _design(self, t: int):
        self.base = self.base + self.BASE_STEP * self.rng.standard_normal(self.shell.dim)
        scale = 1.0
        if self.counts.max() >= 2 and t % self.w == int(np.argmax(self.counts)):
            scale = self.inflation
            self.predicted.append(t)
        # alternate the displacement sign so interior (non-anchored) decisions
        # smooth between minimizers and stay distinguishable from them
        v = self.base.copy()
        v[0] += self.AMPLITUDE * scale * (1.0 if t % 2 == 0 else -1.0)
        self.minimizers[t] = v
        m = self.m
        commit = (m * v + self._last_commit) / (m + 1.0)
        self._last_commit = commit
        return make_strongly_convex(m, v[None, :]).hitting[0], commit

    def open(self):
        return [self._design(t) for t in range(1, self.w)]

    def step(self, tau):
        return self._design(tau + self.w - 1)

    def observe(self, tau, z):
        if tau in self.minimizers and z == self.psi(self.minimizers[tau]):
            self.counts[tau % self.w] += 1


def spike_adversary(quantization_bins: int, inflation: float) -> SpikeAdversary:
    """Phase-tracking stress policy for the commit-reveal game."""
    return SpikeAdversary(quantization_bins, inflation)


# ---------------------------------------------------------------------------
# Renewal probability and investment games
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbabilityEstimate:
    p: float
    stderr: float
    n_effective: int


def sample_anchor_hits(w: int, tau: int, n_samples: int,
                       rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Anchor times matrix (n, K) from the randomized gap law, plus hit flags."""
    support = np.array(gap_support(w))
    K = tau // int(support.min()) + 2
    gaps = rng.choice(support, size=(n_samples, K))
    times = np.concatenate([np.zeros((n_samples, 1), dtype=int),
                            np.cumsum(gaps, axis=1)], axis=1)
    hits = (times == tau).any(axis=1)
    return times, hits


def estimate_anchor_probability(w: int, tau: int, history_condition=None,
                                n_samples: int = 10 ** 5,
                                rng: np.random.Generator | None = None,
                                ) -> ProbabilityEstimate:
    """Monte Carlo P(tau is an anchor | condition on anchors <= tau - w + 1).

    The condition sees exactly the anchors an adversary could have learned
    before the cost at tau is designed.
    """
    if w < 4:
        raise ValueError("randomized anchor schedule requires w >= 4")
    if tau < 1 or n_samples < 10 ** 3:
        raise ValueError("need tau >= 1 and n_samples >= 1e3")
    rng = rng or np.random.default_rng()
    times, hits = sample_anchor_hits(w, tau, n_samples, rng)
    if history_condition is None:
        mask = np.ones(n_samples, dtype=bool)
    else:
        cutoff = tau - w + 1
        mask = np.fromiter(
            (bool(history_condition(tuple(row[(row <= cutoff)]))) for row in times),
            dtype=bool, count=n_samples)
    n_eff = int(mask.sum())
    if n_eff == 0:
        raise EstimationFailed("condition never satisfied in the sample")
    p = float(hits[mask].mean())
    stderr = float(np.sqrt(max(p * (1 - p), 1.0 / n_eff) / n_eff))
    return ProbabilityEstimate(p, stderr, n_eff)


@dataclass(frozen=True)
class AnchorSchedule:
    """Reward times drawn from the randomized anchor gap law; stakes are
    committed with a lag of W rounds."""
    w: int


@dataclass(frozen=True)
class BernoulliSchedule:
    """Independent reward coin each round; stakes committed one round ahead."""
    p: float


@dataclass(frozen=True)
class InvestmentResult:
    rewards: np.ndarray
    invests: np.ndarray

    @property
    def mean_reward(self) -> float:
        return float(self.rewards.mean())

    @property
    def mean_invest(self) -> float:
        return float(self.invests.mean())


def constant_investor(stake: float = 1.0):
    def invest(t, revealed):
        return np.full(revealed.shape[0], float(stake))
    return invest


def doubling_gambler():
    """Double the stake each round until the first revealed win, then stop."""
    def invest(t, revealed):
        live = ~revealed.any(axis=1)
        return np.where(live, float(2.0 ** (t - 1)), 0.0)
    return invest


def simulate_investment_game(schedule, investor, W: int, T: int,
                             eta_reward: float, n_samples: int,
                             rng: np.random.Generator) -> InvestmentResult:
    """Stake-ahead game: reward eta * stake_t whenever round t pays out.

    Causality is structural: the investor callback only ever receives the
    outcomes already revealed at commitment time (lag W for the anchor
    schedule, lag 1 for the coin).
    """
    if isinstance(schedule, AnchorSchedule):
        if W < 4:
            raise ValueError("anchor schedule requires W >= 4")
        times, _ = sample_anchor_hits(schedule.w, T, n_samples, rng)
        hits = np.zeros((n_samples, T + 1), dtype=bool)
        valid = times <= T
        rows = np.repeat(np.arange(n_samples), valid.sum(axis=1))
        hits[rows, times[valid]] = True
        hits[:, 0] = False
        lag = W
    elif isinstance(schedule, BernoulliSchedule):
        hits = np.zeros((n_samples, T + 1), dtype=bool)
        hits[:, 1:] = rng.random((n_samples, T)) < schedule.p
        lag = 1
    else:
        raise ValueError(f"unknown schedule {schedule!r}")

    rewards = np.zeros(n_samples)
    invests = np.zeros(n_samples)
    for t in range(1, T + 1):
        revealed = hits[:, 1:max(t - lag, 0) + 1]
        stakes = np.asarray(investor(t, revealed), dtype=float)
        if stakes.shape != (n_samples,):
            stakes = np.broadcast_to(stakes, (n_samples,)).astype(float)
        if np.any(stakes < 0):
            raise ValueError("stakes must be nonnegative")
        invests += stakes
        rewards += eta_reward * stakes * hits[:, t]
    return InvestmentResult(rewards, invests)

import json

import numpy as np
import pytest

from soco_lab import (
    AnchorSchedule,
    BernoulliSchedule,
    Constant,
    GameShell,
    Grid,
    GreedyLearner,
    ObliviousAdversary,
    Polyhedral,
    RandomWalk,
    RsfhcBLearner,
    SfhcLearner,
    StronglyConvex,
    constant_investor,
    doubling_gambler,
    estimate_anchor_probability,
    gap_support,
    generate_oblivious_instance,
    grid_quantizer,
    instance_to_spec,
    movement_cost,
    offline_optimal_quadratic,
    play_semi_adaptive,
    run_dsfhc,
    run_greedy,
    run_rsfhc_b,
    run_sfhc,
    simulate_investment_game,
    spike_adversary,
)
from soco_lab.adversary import (
    DsfhcLearner,
    EstimationFailed,
    ProtocolError,
    sample_anchor_hits,
)
from soco_lab.model import HittingCost, Instance, as_point
from soco_lab.windows import UnsupportedProblemError, WindowSolver


def shell(T=30, m=2.0):
    return GameShell(1, T, np.zeros(1), movement_cost("sq_l2_half"),
                     lam=m / 2.0, family_tag="strongly_convex", params={"m": m})


PSI = grid_quantizer(Grid.make(-12.0, 12.0, 241, dim=1))


def exact_hit_probability(w: int, tau: int) -> float:
    """Independent renewal oracle: chance the random gap walk lands on tau."""
    support = gap_support(w)
    u = np.zeros(tau + 1)
    u[0] = 1.0
    for n in range(1, tau + 1):
        u[n] = sum(u[n - g] for g in support if n >= g) / len(support)
    return float(u[tau])


def test_constant_path_greedy_cost_is_first_jump(rng):
    inst = generate_oblivious_instance(StronglyConvex(2.0), Constant(), 6, 1, rng)
    v = inst.hitting[0].minimizer
    traj = run_greedy(inst)
    assert traj.total == pytest.approx(inst.movement(v, inst.start))
    assert np.all(traj.per_step_movement[1:] == 0.0)


def test_zero_step_walk_is_constant(rng):
    a = generate_oblivious_instance(StronglyConvex(1.0), RandomWalk(0.0), 5, 1,
                                    np.random.default_rng(5))
    b = generate_oblivious_instance(StronglyConvex(1.0), Constant(), 5, 1,
                                    np.random.default_rng(5))
    assert np.allclose(a.minimizers(), b.minimizers())


def test_generator_is_seed_deterministic():
    a = generate_oblivious_instance(StronglyConvex(2.0), RandomWalk(0.5), 8, 1,
                                    np.random.default_rng(9))
    b = generate_oblivious_instance(StronglyConvex(2.0), RandomWalk(0.5), 8, 1,
                                    np.random.default_rng(9))
    assert json.dumps(instance_to_spec(a)) == json.dumps(instance_to_spec(b))


def test_oblivious_game_equals_fixed_instance_run():
    sh = shell(T=20)
    inst = generate_oblivious_instance(StronglyConvex(2.0), RandomWalk(0.4), 20, 1,
                                       np.random.default_rng(3))
    adversary = ObliviousAdversary(inst)
    transcript = play_semi_adaptive(SfhcLearner(1), adversary, sh, 3, PSI,
                                    np.random.default_rng(0))
    offline = run_sfhc(inst, 3, 1)
    assert transcript.learner_cost == pytest.approx(offline.total, rel=1e-12)
    assert np.allclose(transcript.learner_points, offline.points)


@pytest.mark.parametrize("w", [4, 6, 9])
@pytest.mark.parametrize("name", ["greedy", "dsfhc", "rsfhc-b"])
def test_online_learner_equals_offline_run(name, w):
    # against a fixed cost sequence the online learner makes the offline
    # run's decisions; rsfhc-b draws its anchors from the learner seed that
    # play_semi_adaptive derives from the game rng.  At w = 9 numpy sums a
    # lone (w, 1) column pairwise, in another order than the offline mean.
    # Greedy plays sfhc at w = 1 whatever the game's w
    sh = shell(T=23)
    for seed in range(3):
        inst = generate_oblivious_instance(StronglyConvex(2.0), RandomWalk(0.5), 23, 1,
                                           np.random.default_rng(100 + seed))
        if name == "greedy":
            learner, offline = GreedyLearner(), run_greedy(inst)
        elif name == "dsfhc":
            learner, offline = DsfhcLearner(), run_dsfhc(inst, w)
        else:
            seeds = np.random.default_rng(seed).integers(0, 2 ** 63 - 1, size=3)
            learner = RsfhcBLearner()
            offline = run_rsfhc_b(inst, w, np.random.default_rng(int(seeds[1])))
        transcript = play_semi_adaptive(learner, ObliviousAdversary(inst), sh, w, PSI,
                                        np.random.default_rng(seed))
        assert np.array_equal(transcript.learner_points, offline.points)
        assert transcript.learner_cost == offline.total


@pytest.mark.parametrize("family", ["strongly_convex", "polyhedral"])
def test_greedy_game_solves_no_window(monkeypatch, family):
    # every greedy timestep is an anchor, the revealed minimizer: the game
    # solves no window and builds no revealed instance per step (only the
    # realized one at its end), so it runs on a shell no learner's solver
    # could solve, and greedy has no decision path of its own
    params = {"m": 2.0} if family == "strongly_convex" else {"alpha": 1.0, "p": 1}
    family_params = StronglyConvex(2.0) if family == "strongly_convex" else Polyhedral(1.0, p=1)
    inst = generate_oblivious_instance(family_params, RandomWalk(0.4), 20, 1,
                                       np.random.default_rng(3))
    sh = GameShell(1, 20, np.zeros(1), inst.movement, lam=inst.lam,
                   family_tag=family, params=params)

    def solve_batch(self, problems):
        raise AssertionError(f"solved {len(problems)} windows")

    built = []
    monkeypatch.setattr(WindowSolver, "solve_batch", solve_batch)
    monkeypatch.setattr("soco_lab.adversary.Instance",
                        lambda *args, **kw: built.append(args) or Instance(*args, **kw))
    transcript = play_semi_adaptive(GreedyLearner(), ObliviousAdversary(inst), sh, 3, PSI,
                                    np.random.default_rng(0))
    assert len(built) == 1
    assert np.array_equal(transcript.learner_points, run_greedy(inst).points)
    assert [k for k in vars(GreedyLearner) if not k.startswith("__")] == ["plan"]


def test_planned_learner_rejects_lattice_family_game():
    # a learner's window solver has no lattice, and none is made up per
    # window, so a lattice-family game fails loudly
    inst = generate_oblivious_instance(Polyhedral(1.0, p=1), RandomWalk(0.4), 20, 1,
                                       np.random.default_rng(3))
    sh = GameShell(1, 20, np.zeros(1), inst.movement, lam=inst.lam,
                   family_tag="polyhedral", params={"alpha": 1.0, "p": 1})
    with pytest.raises(UnsupportedProblemError, match="a polyhedral window needs a lattice"):
        play_semi_adaptive(SfhcLearner(1), ObliviousAdversary(inst), sh, 3, PSI,
                           np.random.default_rng(0))


def test_constant_disclosure_makes_equal_seed_runs_coincide():
    sh = shell(T=15)
    psi = lambda x: 0  # noqa: E731 - reveals nothing
    runs = []
    for _ in range(2):
        transcript = play_semi_adaptive(RsfhcBLearner(),
                                        spike_adversary(41, 2.0), sh, 5, psi,
                                        np.random.default_rng(7))
        runs.append(transcript)
    assert np.array_equal(runs[0].learner_points, runs[1].learner_points)
    assert np.array_equal(runs[0].adversary_commits, runs[1].adversary_commits)


def test_transcript_causality_clocks():
    sh = shell(T=18)
    w = 4
    transcript = play_semi_adaptive(RsfhcBLearner(), spike_adversary(41, 2.0),
                                    sh, w, PSI, np.random.default_rng(2))
    T = sh.horizon
    assert len(transcript.revealed_costs) == T
    assert transcript.adversary_commits.shape == (T, 1)
    for tau in range(1, T + 1):
        t_new = tau + w - 1
        if t_new <= T:
            # the commit for tau + w - 1 happens before the decision at tau
            assert transcript.commit_clock[t_new - 1] < transcript.decide_clock[tau - 1]
        # the cost at the window edge is revealed before the decision reads it
        edge = min(t_new, T)
        assert transcript.reveal_clock[edge - 1] < transcript.decide_clock[tau - 1]
    assert transcript.revealed_info == tuple(
        PSI(p) for p in transcript.learner_points)


def test_adversary_cost_dominates_offline_opt():
    sh = shell(T=25)
    for seed in range(5):
        transcript = play_semi_adaptive(RsfhcBLearner(), spike_adversary(41, 3.0),
                                        sh, 6, PSI, np.random.default_rng(seed))
        opt = offline_optimal_quadratic(transcript.instance)
        assert transcript.adversary_cost >= opt.cost - 1e-9


def test_protocol_rejects_cost_violating_growth():
    class FlatAdversary:
        def reset(self, shell, w, rng, psi):
            self.w = w

        def open(self):
            return [self._flat() for _ in range(self.w - 1)]

        def step(self, tau):
            return self._flat()

        def observe(self, tau, z):
            pass

        @staticmethod
        def _flat():
            return HittingCost(lambda x: 0.0, as_point([0.0])), np.zeros(1)

    with pytest.raises(ProtocolError):
        play_semi_adaptive(GreedyLearner(), FlatAdversary(), shell(T=10), 3, PSI,
                           np.random.default_rng(0))


def test_spike_posterior_concentrates_on_fixed_phase():
    sh = shell(T=40)
    w, h = 5, 2
    adversary = spike_adversary(241, 2.0)
    play_semi_adaptive(SfhcLearner(h), adversary, sh, w, PSI,
                       np.random.default_rng(11))
    assert int(np.argmax(adversary.counts)) == h
    assert all(t % w == h for t in adversary.predicted)
    # concentration is quick: by 2w observations the mode is already h
    early = spike_adversary(241, 2.0)
    play_semi_adaptive(SfhcLearner(h), early, shell(T=2 * w), w, PSI,
                       np.random.default_rng(11))
    assert int(np.argmax(early.counts)) == h


def test_spike_inflation_one_is_oblivious():
    sh = shell(T=20)
    paths = []
    for learner in (GreedyLearner(), SfhcLearner(0)):
        adversary = spike_adversary(41, 1.0)
        play_semi_adaptive(learner, adversary, sh, 4, PSI,
                           np.random.default_rng(21))
        paths.append(np.array([adversary.minimizers[t] for t in range(1, 21)]))
    assert np.array_equal(paths[0], paths[1])


def test_phase_predictor_hit_rate_bounded(rng):
    # any predictor fed only anchors known w-1 steps ahead hits at most
    # 2/(w-2) of the time; run the mod-w posterior over 10^4 draws
    w, tau = 6, 41
    times, hits = sample_anchor_hits(w, tau, 10 ** 4, rng)
    cutoff = tau - w + 1
    predictions = np.empty(10 ** 4, dtype=bool)
    for i, row in enumerate(times):
        known = row[row <= cutoff]
        counts = np.bincount(known % w, minlength=w)
        predictions[i] = counts.argmax() == tau % w
    n_pred = int(predictions.sum())
    rate = float(hits[predictions].mean())
    stderr = np.sqrt(max(rate * (1 - rate), 1.0 / n_pred) / n_pred)
    assert rate <= 2 / (w - 2) + 3 * stderr


def test_anchor_probability_unconditional():
    rng = np.random.default_rng(31)
    for w, tau in [(6, 97), (8, 96), (12, 99)]:
        est = estimate_anchor_probability(w, tau, None, 10 ** 5, rng)
        assert est.p <= 2 / (w - 2) + 3 * est.stderr
        assert est.p == pytest.approx(exact_hit_probability(w, tau),
                                      abs=4 * est.stderr + 1e-6)


def test_anchor_probability_w4_degenerate():
    est = estimate_anchor_probability(4, 60, None, 10 ** 4,
                                      np.random.default_rng(0))
    assert est.p == pytest.approx(1.0)   # deterministic gap-3 schedule
    assert est.p <= 2 / (4 - 2)


def test_anchor_probability_conditioned():
    rng = np.random.default_rng(5)
    w, tau = 6, 50
    conditions = [
        lambda known: 4 in known,
        lambda known: len(known) >= 8,
        lambda known: known[-1] % 2 == 0,
    ]
    for cond in conditions:
        est = estimate_anchor_probability(w, tau, cond, 2 * 10 ** 4, rng)
        assert est.p <= 2 / (w - 2) + 3 * est.stderr


def test_anchor_probability_condition_never_holds():
    with pytest.raises(EstimationFailed):
        estimate_anchor_probability(6, 40, lambda known: False, 10 ** 3,
                                    np.random.default_rng(0))


def test_anchor_probability_rejects_bad_args():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        estimate_anchor_probability(3, 10, None, 10 ** 3, rng)
    with pytest.raises(ValueError):
        estimate_anchor_probability(6, 10, None, 10, rng)


def test_investment_constant_stake_tracks_anchor_rate(rng):
    W, T = 6, 150
    res = simulate_investment_game(AnchorSchedule(W), constant_investor(1.0),
                                   W, T, 1.0, 4000, rng)
    assert res.mean_invest == pytest.approx(T)
    margin = res.rewards - (2 / (W - 2)) * res.invests
    stderr = margin.std(ddof=1) / np.sqrt(len(margin))
    assert margin.mean() <= 3 * stderr


def test_investment_zero_stake_zero_reward(rng):
    res = simulate_investment_game(AnchorSchedule(6), constant_investor(0.0),
                                   6, 60, 1.0, 500, rng)
    assert res.mean_reward == 0.0 and res.mean_invest == 0.0


def test_doubling_gambler_expectation_bound(rng):
    for p in (0.1, 0.3):
        res = simulate_investment_game(BernoulliSchedule(p), doubling_gambler(),
                                       1, 12, 1.0, 10 ** 4, rng)
        margin = res.rewards - p * res.invests
        stderr = margin.std(ddof=1) / np.sqrt(len(margin))
        assert margin.mean() <= 3 * stderr


def test_investment_rejects_negative_stakes(rng):
    with pytest.raises(ValueError):
        simulate_investment_game(BernoulliSchedule(0.2),
                                 lambda t, revealed: np.full(revealed.shape[0], -1.0),
                                 1, 5, 1.0, 100, rng)


def test_transcript_serializes_for_replay():
    sh = shell(T=12)
    transcript = play_semi_adaptive(RsfhcBLearner(), spike_adversary(41, 2.0),
                                    sh, 4, PSI, np.random.default_rng(3))
    from soco_lab import transcript_to_spec
    spec = json.loads(json.dumps(transcript_to_spec(transcript)))
    assert len(spec["revealed_costs"]) == 12
    assert spec["learner_cost"] == pytest.approx(transcript.learner_cost)
    assert spec["revealed_costs"][0]["family"] == "strongly_convex"


def test_rsfhc_b_oblivious_mean_cost_bound():
    # fixed cost sequences, 200 anchor draws: the mean cost meets the
    # semi-adaptive factor against the exact offline optimum
    w, T, m = 6, 30, 2.0
    bound = 1 + (2 / (w - 2)) * max(2.0 / (m / 2.0), 2.0)
    inst = generate_oblivious_instance(StronglyConvex(m), RandomWalk(0.6), T, 1,
                                       np.random.default_rng(14))
    opt = offline_optimal_quadratic(inst).cost
    costs = [run_rsfhc_b(inst, w, np.random.default_rng(seed)).total
             for seed in range(200)]
    margin = np.array(costs) - bound * opt
    stderr = margin.std(ddof=1) / np.sqrt(len(margin))
    assert margin.mean() <= 3 * stderr


def test_spike_hurts_predictable_anchors_more():
    # the same stress policy extracts a worse ratio from a fixed-phase
    # learner than from randomized anchors: that gap is the point of
    # randomizing the synchronization times
    sh = shell(T=60)
    w = 6

    def mean_ratio(make_learner):
        lc, ac = [], []
        for seed in range(60):
            transcript = play_semi_adaptive(
                make_learner(), spike_adversary(241, 3.0), sh, w, PSI,
                np.random.default_rng(seed))
            lc.append(transcript.learner_cost)
            ac.append(transcript.adversary_cost)
        return float(np.mean(lc) / np.mean(ac))

    randomized = mean_ratio(RsfhcBLearner)
    fixed_phase = mean_ratio(lambda: SfhcLearner(2))
    assert fixed_phase > randomized + 0.05
    assert randomized <= 2.0  # the proven factor for w = 6


def test_semi_adaptive_bound_quadratic_stress():
    # small-sample version of the acceptance run
    sh = shell(T=40)
    w = 6
    bound = 1 + (2 / (w - 2)) * max(2.0 / 1.0, 2.0)
    learner_costs, adversary_costs = [], []
    for seed in range(60):
        transcript = play_semi_adaptive(RsfhcBLearner(), spike_adversary(241, 3.0),
                                        sh, w, PSI, np.random.default_rng(seed))
        learner_costs.append(transcript.learner_cost)
        adversary_costs.append(transcript.adversary_cost)
    margin = np.array(learner_costs) - bound * np.array(adversary_costs)
    stderr = margin.std(ddof=1) / np.sqrt(len(margin))
    assert margin.mean() <= 3 * stderr

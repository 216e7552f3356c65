"""Acceptance suite: every contract bound checked against exact or
brute-force oracles at desk scale.

Each test prints one pass line; run with ``pytest tests/test_acceptance.py
-v -s`` or directly as a script for the per-criterion report.  Grid-backed
criteria draw minimizer paths on the oracle lattice, so anchor snapping is
exact and tolerances reduce to float slack.
"""

import hashlib

import numpy as np
import pytest

from soco_lab import (
    AnchorSchedule,
    BernoulliSchedule,
    CbcInstance,
    GameShell,
    Grid,
    RsfhcBLearner,
    WindowSolver,
    constant_investor,
    doubling_gambler,
    duplicate_cbc_instance,
    embed_soco_opt_in_cbc,
    epigraph_reduce,
    estimate_anchor_probability,
    estimate_condition_constants,
    evaluate_total_cost,
    extract_unduplicated_solution,
    cbc_cost,
    cbc_interval_opt,
    cbc_opt_grid,
    grid_quantizer,
    interval,
    make_glb,
    make_polyhedral,
    make_ripple,
    make_strongly_convex,
    map_cbc_to_soco,
    movement_cost,
    offline_optimal_grid,
    offline_optimal_quadratic,
    play_semi_adaptive,
    run_cbc_greedy_projection,
    run_dsfhc,
    run_greedy,
    run_sfhc,
    rsfhc_a_expected_cost,
    sfhc_subroutine_costs,
    simulate_investment_game,
    spike_adversary,
)
from soco_lab.adversary import RandomWalk, minimizer_path
from soco_lab.algorithms import AnchorSet
from soco_lab.harness import ExperimentConfig, rows_to_csv, run_suite

from monolithic import monolithic_optimum

FLOAT_SLACK = 1e-8

GRID1 = Grid.make(-10.0, 10.0, 201, dim=1)
GRID_POS = Grid.make(0.0, 12.0, 201, dim=1)


def _report(name: str):
    print(f"[PASS] {name}")


def lattice_walk(T, seed, step=0.6, grid=GRID1, nonneg=False):
    rng = np.random.default_rng(seed)
    base = np.full(1, 1.5) if nonneg else np.zeros(1)
    path = minimizer_path(RandomWalk(step), T, 1, rng, base=base,
                          nonnegative=nonneg)
    path = np.clip(path, grid.lo[0], grid.hi[0])
    return np.stack([grid.snap(p)[0] for p in path])


def test_a01_dsfhc_quadratic_prediction_bound():
    # strongly convex m=2, d in {1, 2}, T=50, w in {2, 4, 8}, 100 seeds:
    # cost(dsfhc) / exact opt <= 1 + (1/w) max(4/m, 2) + float slack
    m, T = 2.0, 50
    worst = -np.inf
    for d in (1, 2):
        for seed in range(100):
            rng = np.random.default_rng(1000 * d + seed)
            path = np.cumsum(0.5 * rng.standard_normal((T, d)), axis=0)
            inst = make_strongly_convex(m, path, start=np.zeros(d))
            solver = WindowSolver()
            opt = offline_optimal_quadratic(inst).cost
            for w in (2, 4, 8):
                ratio = run_dsfhc(inst, w, solver).total / opt
                bound = 1 + (1 / w) * max(4 / m, 2)
                assert ratio <= bound + FLOAT_SLACK, (d, seed, w, ratio, bound)
                worst = max(worst, ratio - bound)
    _report(f"A1 dsfhc quadratic prediction bound (worst margin {worst:+.2e})")


def test_a02_dsfhc_polyhedral_prediction_bound():
    # alpha in {0.5, 1, 2}, d=1, T=50, w in {2, 4, 8}, 100 seeds:
    # ratio <= 1 + 2/(w alpha) + budget (lattice paths make the budget float slack)
    T = 50
    for alpha in (0.5, 1.0, 2.0):
        for seed in range(100):
            path = lattice_walk(T, 7000 + seed, step=0.5)
            inst = make_polyhedral(alpha, path, p=1, start=[0.0])
            solver = WindowSolver(GRID1)
            opt = offline_optimal_grid(inst, GRID1).cost
            for w in (2, 4, 8):
                cost = run_dsfhc(inst, w, solver).total
                bound = (1 + 2 / (w * alpha)) * opt
                assert cost <= bound + FLOAT_SLACK, (alpha, seed, w, cost, bound)
    _report("A2 dsfhc polyhedral prediction bound")


def _greedy_cases():
    cases = []
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        quad = make_strongly_convex(2.0, np.cumsum(
            0.6 * rng.standard_normal((30, 1)), axis=0), start=[0.0])
        cases.append((quad, offline_optimal_quadratic(quad), None))
    for seed in range(10):
        poly = make_polyhedral(1.0, lattice_walk(20, 300 + seed), p=1, start=[0.0])
        cases.append((poly, offline_optimal_grid(poly, GRID1), GRID1))
        glb = make_glb([1.0], [2.0], [1.5],
                       lattice_walk(20, 400 + seed, grid=GRID_POS, nonneg=True),
                       start=[0.0])
        cases.append((glb, offline_optimal_grid(glb, GRID_POS), GRID_POS))
        rip = make_ripple(1.0, 1.0, 6.0, lattice_walk(20, 500 + seed, step=1.0),
                          start=[0.0])
        cases.append((rip, offline_optimal_grid(rip, GRID1), GRID1))
    return cases


def test_a03_greedy_bound_all_families():
    # w=1: ratio <= max(1 + (eta + eta^2)/(2 lam), eta^2), plus the refined
    # split  greedy <= (1 + (eta^2+eta)/(2 lam)) sum H* + eta^2 sum M*
    for inst, opt, _ in _greedy_cases():
        eta, lam = inst.movement.eta, inst.lam
        greedy = run_greedy(inst)
        bound = max(1 + (eta + eta * eta) / (2 * lam), eta * eta)
        assert greedy.total <= bound * opt.cost + FLOAT_SLACK, inst.family_tag
        refined = (1 + (eta * eta + eta) / (2 * lam)) * \
            opt.trajectory.per_step_hitting.sum() + \
            eta * eta * opt.trajectory.per_step_movement.sum()
        assert greedy.total <= refined + 1e-9, inst.family_tag
    _report("A3 greedy bound + refined component split, all four families")


def test_a04_subroutine_average_bound():
    # (1/w) sum_h cost(sfhc(h)) <= (1 + (1/w) max(eta/lam, 2(eta-1))) opt,
    # convex and non-convex alike (grid oracle for the non-convex family)
    suites = []
    for seed in range(6):
        rng = np.random.default_rng(600 + seed)
        quad = make_strongly_convex(2.0, np.cumsum(
            0.6 * rng.standard_normal((24, 1)), axis=0), start=[0.0])
        suites.append((quad, offline_optimal_quadratic(quad).cost, None, (2, 4, 8)))
        poly = make_polyhedral(1.0, lattice_walk(24, 700 + seed), p=1, start=[0.0])
        suites.append((poly, offline_optimal_grid(poly, GRID1).cost, GRID1, (2, 4, 8)))
        glb = make_glb([1.0], [2.0], [1.5],
                       lattice_walk(24, 800 + seed, grid=GRID_POS, nonneg=True),
                       start=[0.0])
        suites.append((glb, offline_optimal_grid(glb, GRID_POS).cost, GRID_POS,
                       (2, 4, 8)))
        rip = make_ripple(1.0, 1.0, 6.0, lattice_walk(18, 900 + seed, step=1.0),
                          start=[0.0])
        suites.append((rip, offline_optimal_grid(rip, GRID1).cost, GRID1, (2, 3, 6)))
    for inst, opt, grid, ws in suites:
        eta, lam = inst.movement.eta, inst.lam
        solver = WindowSolver(grid)
        for w in ws:
            avg = float(np.mean(sfhc_subroutine_costs(inst, w, solver)))
            bound = (1 + (1 / w) * max(eta / lam, 2 * (eta - 1))) * opt
            assert avg <= bound + FLOAT_SLACK, (inst.family_tag, w)
    _report("A4 subroutine average bound, convex and non-convex")


def test_a05_sfhc_equals_constrained_offline():
    # 50 random instances: the phase run matches the anchor-constrained
    # optimum computed by the monolithic lattice program
    for seed in range(25):
        path = lattice_walk(12, 1100 + seed)
        inst = make_polyhedral(1.0, path, p=1, start=[0.0])
        solver = WindowSolver(GRID1)
        w = 2 + seed % 3
        h = seed % w
        traj = run_sfhc(inst, w, h, solver)
        mono = monolithic_optimum(inst, GRID1, AnchorSet.phase(h, w, 12).members)
        assert traj.total == pytest.approx(mono.cost, abs=1e-9)
    for seed in range(25):
        path = lattice_walk(12, 1200 + seed, step=0.4)
        inst = make_strongly_convex(2.0, path, start=[0.0])
        w = 2 + seed % 3
        h = seed % w
        traj = run_sfhc(inst, w, h)  # exact tridiagonal solves
        mono = monolithic_optimum(inst, GRID1, AnchorSet.phase(h, w, 12).members)
        # lattice restriction can only raise the cost, by at most the
        # curvature of the stage costs over one cell
        budget = 0.5 * (2.0 + 4.0) * 12 * (GRID1.spacing()[0] / 2) ** 2 + 1e-9
        assert mono.cost >= traj.total - 1e-9
        assert mono.cost <= traj.total + budget
    _report("A5 sfhc(h) == anchor-constrained offline optimum (50 instances)")


def _ripple_suite():
    suites = []
    for eps in (0.5, 1.0):
        for seed in range(5):
            inst = make_ripple(1.0, eps, 6.0, lattice_walk(18, 1300 + seed, step=1.0),
                               start=[0.0])
            suites.append((eps, inst))
    return suites


def test_a06_rsfhc_a_nonconvex_expectation_bound():
    # ripple m=1, eps in {0.5, 1}, k=6, T=18, w in {2, 3, 6}: the exhaustive
    # phase expectation meets the prediction bound against the grid oracle
    for eps, inst in _ripple_suite():
        solver = WindowSolver(GRID1)
        opt = offline_optimal_grid(inst, GRID1).cost
        eta, lam = 2.0, 0.5
        for w in (2, 3, 6):
            expected = rsfhc_a_expected_cost(inst, w, solver)
            bound = (1 + (1 / w) * max(eta / lam, 2 * (eta - 1))) * opt
            assert expected <= bound + FLOAT_SLACK, (eps, w)
    _report("A6 randomized-phase expectation bound on the non-convex family")


def test_a07_convexifiable_averaging_chain():
    # cost(dsfhc) <= (1/w)(1 + alpha/lam) sum_h cost(sfhc(h)), and composed:
    # cost(dsfhc) <= (1 + alpha/lam)(1 + (1/w) max(2/lam, 2)) opt
    for eps, inst in _ripple_suite():
        solver = WindowSolver(GRID1)
        opt = offline_optimal_grid(inst, GRID1).cost
        alpha = max(0.0, eps * 36.0 - 1.0)
        lam = 0.5
        for w in (2, 3, 6):
            subs = sfhc_subroutine_costs(inst, w, solver)
            dsfhc = run_dsfhc(inst, w, solver).total
            averaging = (1 / w) * (1 + alpha / lam) * sum(subs)
            assert dsfhc <= averaging + FLOAT_SLACK, (eps, w)
            composed = (1 + alpha / lam) * (1 + (1 / w) * max(2 / lam, 2)) * opt
            assert dsfhc <= composed + FLOAT_SLACK, (eps, w)
    _report("A7 convexifiable averaging bound and composed non-convex bound")


def test_a08_anchor_probability_bound():
    # Monte Carlo anchor probabilities, 1e5 samples: unconditional and five
    # history-conditioned cases stay below 2/(w-2) + 3 stderr
    rng = np.random.default_rng(2024)
    conditions = [
        None,
        lambda known: len(known) >= 2,
        lambda known: known[-1] % 3 == 0,
        lambda known: len(known) >= 2 and known[1] >= 3,
        lambda known: sum(known) % 2 == 0,
        lambda known: known[-1] >= 20,
    ]
    for w in (4, 6, 8, 12):
        tau = 45 + w
        for cond in conditions:
            est = estimate_anchor_probability(w, tau, cond, 10 ** 5, rng)
            assert est.p <= 2 / (w - 2) + 3 * est.stderr, (w, cond)
    _report("A8 randomized anchor probability bound, 24 (w, condition) cases")


def test_a09_semi_adaptive_game_bound():
    # rsfhc-b vs the spike policy, quadratic shell, w=6, T=60, 500 seeds:
    # mean learner cost <= bound * mean adversary cost + 3 stderr
    m, w, T = 2.0, 6, 60
    shell = GameShell(1, T, np.zeros(1), movement_cost("sq_l2_half"),
                      lam=m / 2.0, family_tag="strongly_convex", params={"m": m})
    psi = grid_quantizer(Grid.make(-12.0, 12.0, 241, dim=1))
    bound = 1 + (2 / (w - 2)) * max(2.0 / (m / 2.0), 2.0)
    learner, adversary_cost = [], []
    for seed in range(500):
        transcript = play_semi_adaptive(RsfhcBLearner(), spike_adversary(241, 3.0),
                                        shell, w, psi, np.random.default_rng(seed))
        learner.append(transcript.learner_cost)
        adversary_cost.append(transcript.adversary_cost)
    margin = np.array(learner) - bound * np.array(adversary_cost)
    stderr = margin.std(ddof=1) / np.sqrt(len(margin))
    assert margin.mean() <= 3 * stderr
    _report(f"A9 semi-adaptive game bound over 500 seeds "
            f"(margin {margin.mean():.3f} vs 3se {3 * stderr:.3f})")


#: sha256 of the ten 1-D chains' chase points and chasing optima, in seed
#: order: the exact 1-D wedge projection keeps these bits
A10_CHAINS_SHA256 = "43e3cfff1b8b68085e727ca0171981b198626efd13c9e574de607eb184f61ebc"


def test_a10_epigraph_reduction_composition():
    # 10 polyhedral instances (d=1, l1 movement): lifted-optimum chasing cost
    # <= 2 opt; mapped greedy-chaser cost <= 2 chase cost; composed factor
    # <= 4 * empirical chasing ratio -- all within 1e-12
    xgrid = Grid.make(-3.0, 3.0, 61, dim=1)    # spacing 0.1
    lift_grid = Grid.make([-3.0, 0.0], [3.0, 6.0], [61, 61], dim=2)
    digest = hashlib.sha256()
    for seed in range(10):
        rng = np.random.default_rng(1500 + seed)
        path = minimizer_path(RandomWalk(0.5), 5, 1, rng, base=np.zeros(1))
        path = np.stack([xgrid.snap(np.clip(p, -2.0, 2.0))[0] for p in path])
        soco = make_polyhedral(1.0, path, p=1, start=[0.0])
        opt = offline_optimal_grid(soco, xgrid)

        lifted, lifted_cost = embed_soco_opt_in_cbc(opt.trajectory.points, soco)
        assert lifted_cost <= 2 * opt.cost + 1e-12

        reduced = epigraph_reduce(soco)
        chase_points, chase_cost = run_cbc_greedy_projection(reduced)
        mapped = map_cbc_to_soco(chase_points, reduced, soco)
        mapped_cost = evaluate_total_cost(soco, mapped).total
        assert mapped_cost <= 2 * chase_cost + 1e-12

        chasing_opt = cbc_opt_grid(reduced, lift_grid).cost
        assert chasing_opt <= lifted_cost + 1e-12
        empirical_ratio = chase_cost / chasing_opt if chasing_opt > 0 else 1.0
        assert mapped_cost <= 4 * empirical_ratio * opt.cost + 1e-12
        digest.update(chase_points.tobytes())
        digest.update(np.float64(chasing_opt).tobytes())
    assert digest.hexdigest() == A10_CHAINS_SHA256

    # one d = 3 chain, whose epigraphs project by the p = 1 (Moreau) formula
    # and whose offline optimum is exact on its breakpoint lattice: the two
    # factor-2 inequalities.  The composed 4C line is left out: it needs the
    # chasing optimum in d + 1 = 4 dimensions, for which there is no oracle
    rng = np.random.default_rng(1510)
    path = minimizer_path(RandomWalk(0.5), 5, 3, rng, base=np.zeros(3))
    soco = make_polyhedral(1.0, path, p=1, start=np.zeros(3))
    opt = offline_optimal_grid(soco)
    _, lifted_cost = embed_soco_opt_in_cbc(opt.trajectory.points, soco)
    assert lifted_cost <= 2 * opt.cost + 1e-12
    reduced = epigraph_reduce(soco)
    chase_points, chase_cost = run_cbc_greedy_projection(reduced)
    mapped = map_cbc_to_soco(chase_points, reduced, soco)
    assert evaluate_total_cost(soco, mapped).total <= 2 * chase_cost + 1e-12
    _report("A10 epigraph reduction: factor-2 inequalities and composed 4C chain "
            "(d = 1), factor-2 inequalities (d = 3)")


def test_a11_duplication_preserves_optimum():
    # 10 interval instances: duplicated optimum equals the original to 1e-9
    # and the first-visit extraction never costs more than the full run
    rng = np.random.default_rng(77)
    for trial in range(10):
        bodies = []
        for _ in range(6):
            lo = float(rng.uniform(-3, 3))
            bodies.append(interval(lo, lo + float(rng.uniform(0.2, 2.0))))
        inst = CbcInstance(1, rng.uniform(-1, 1, 1), tuple(bodies),
                           movement_cost("norm_l1"))
        w = int(rng.integers(2, 6))
        dup = duplicate_cbc_instance(inst, w)
        assert cbc_interval_opt(dup) == pytest.approx(cbc_interval_opt(inst),
                                                      abs=1e-9)
        pts, dup_cost = run_cbc_greedy_projection(dup)
        ext = extract_unduplicated_solution(pts, w, 6)
        assert cbc_cost(inst, ext) <= dup_cost + 1e-12
    _report("A11 duplication preserves the chasing optimum (10 instances)")


def test_a12_investment_game_bounds():
    # stake-ahead schedule: mean reward <= (2/(W-2)) mean invest + 3 stderr;
    # doubling gambler on a p-coin: mean reward <= p mean invest + 3 stderr
    rng = np.random.default_rng(9)
    for W in (4, 6, 8):
        res = simulate_investment_game(AnchorSchedule(W), constant_investor(1.0),
                                       W, 150, 1.0, 4000, rng)
        margin = res.rewards - (2 / (W - 2)) * res.invests
        stderr = margin.std(ddof=1) / np.sqrt(len(margin))
        assert margin.mean() <= 3 * stderr, W
    for p in (0.1, 0.3):
        res = simulate_investment_game(BernoulliSchedule(p), doubling_gambler(),
                                       1, 12, 1.0, 10 ** 4, rng)
        margin = res.rewards - p * res.invests
        stderr = margin.std(ddof=1) / np.sqrt(len(margin))
        assert margin.mean() <= 3 * stderr, p
    _report("A12 investment-game bounds (anchor schedule and doubling gambler)")


def test_a13_infrastructure():
    # byte-identical rows on seed-fixed reruns; the constant estimator
    # reproduces the analytic (eta, lam) one-sidedly within 1e-6, exactly
    # for the two tight families
    config = {
        "instances": [{"id": "rerun",
                       "generate": {"family": "strongly_convex",
                                    "params": {"m": 2.0},
                                    "path": {"model": "random_walk", "step": 0.5},
                                    "T": 10, "d": 1}}],
        "algorithms": [{"name": "greedy"}, {"name": "dsfhc", "w": [2, 4]}],
        "seeds": [11, 12, 13],
        "checks": ["greedy_bound", "prediction_bound"],
    }
    first = rows_to_csv(run_suite(ExperimentConfig.from_dict(config))[0])
    second = rows_to_csv(run_suite(ExperimentConfig.from_dict(config))[0])
    assert first == second

    rng = np.random.default_rng(123)
    families = {
        "polyhedral": (make_polyhedral(2.0, rng.uniform(-2, 2, (5, 1))), True),
        "strongly_convex": (make_strongly_convex(2.0, rng.uniform(-2, 2, (5, 1))),
                            True),
        "glb": (make_glb([1.0], [2.0], [1.5], rng.uniform(0, 2, (5, 1))), False),
        "ripple": (make_ripple(1.0, 0.5, 3.0, rng.uniform(-2, 2, (5, 1))), False),
    }
    for tag, (inst, tight) in families.items():
        lam_hat, eta_hat = estimate_condition_constants(inst, 3.0, 20000, rng)
        assert abs(eta_hat - inst.movement.eta) <= 1e-6, tag
        assert lam_hat >= inst.lam - 1e-6, tag
        if tight:
            assert abs(lam_hat - inst.lam) <= 1e-6, tag
    _report("A13 infrastructure: byte-stable rows, constants reproduced")


CRITERIA = [
    test_a01_dsfhc_quadratic_prediction_bound,
    test_a02_dsfhc_polyhedral_prediction_bound,
    test_a03_greedy_bound_all_families,
    test_a04_subroutine_average_bound,
    test_a05_sfhc_equals_constrained_offline,
    test_a06_rsfhc_a_nonconvex_expectation_bound,
    test_a07_convexifiable_averaging_chain,
    test_a08_anchor_probability_bound,
    test_a09_semi_adaptive_game_bound,
    test_a10_epigraph_reduction_composition,
    test_a11_duplication_preserves_optimum,
    test_a12_investment_game_bounds,
    test_a13_infrastructure,
]


if __name__ == "__main__":
    failed = 0
    for criterion in CRITERIA:
        try:
            criterion()
        except AssertionError as exc:
            failed += 1
            print(f"[FAIL] {criterion.__name__}: {exc}")
    raise SystemExit(1 if failed else 0)

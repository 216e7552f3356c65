"""Online optimization with switching costs: algorithms, oracles, and games."""

import numpy as _np

from .model import (
    HittingCost,
    Instance,
    MovementCost,
    RatioReport,
    Trajectory,
    as_point,
    competitive_ratio,
    evaluate_total_cost,
    movement_cost,
    norm_movement,
    padded_movement,
)
from .families import (
    Glb,
    Polyhedral,
    Ripple,
    StronglyConvex,
    estimate_condition_constants,
    instance_from_spec,
    instance_to_spec,
    make_glb,
    make_polyhedral,
    make_ripple,
    make_strongly_convex,
)
from .windows import (
    Grid,
    WindowProblem,
    WindowSolution,
    WindowSolver,
    build_window,
    default_grid,
    solve_grid_dp,
    solve_grid_dp_batch,
    solve_quadratic_batch,
    solve_quadratic_chain,
    solver_for,
    window_objective,
)
from .oracle import (
    OracleResult,
    anchor_segments,
    constrained_offline,
    offline_optimal,
    offline_optimal_grid,
    offline_optimal_quadratic,
    solve_segments,
)
from .algorithms import (
    AnchorSet,
    Plan,
    gap_support,
    gen_anchor_sequence,
    rsfhc_a_expected_cost,
    run_afhc,
    run_dsfhc,
    run_greedy,
    run_rsfhc_a,
    run_rsfhc_b,
    run_sfhc,
    sfhc_subroutine_costs,
    solve_plans,
)
from .adversary import (
    AnchorSchedule,
    BernoulliSchedule,
    Constant,
    GameShell,
    GameTranscript,
    GreedyLearner,
    ObliviousAdversary,
    RandomWalk,
    RsfhcBLearner,
    SfhcLearner,
    Spikes,
    constant_investor,
    doubling_gambler,
    estimate_anchor_probability,
    generate_oblivious_instance,
    grid_quantizer,
    play_semi_adaptive,
    simulate_investment_game,
    spike_adversary,
    transcript_to_spec,
)
from .reductions import (
    CbcInstance,
    ConvexBody,
    ball,
    box,
    cbc_cost,
    cbc_from_spec,
    cbc_interval_opt,
    cbc_opt_grid,
    cbc_to_indicator_instance,
    cbc_to_spec,
    duplicate_cbc_instance,
    embed_soco_opt_in_cbc,
    epigraph,
    epigraph_reduce,
    extract_unduplicated_solution,
    halfspace,
    hyperplane,
    interval,
    map_cbc_to_soco,
    run_cbc_greedy_projection,
    zero_plane,
)
from .harness import (
    BOUNDS,
    ExperimentConfig,
    ResultRow,
    derive_seed,
    run_suite,
    rows_to_csv,
    rows_to_json,
    splitmix64,
    sweep_and_report,
)

__version__ = "0.1.0"

# glibc's malloc serves blocks of 128 KiB or more by a fresh mmap and hands
# heap memory back whenever 128 KiB is free at its top, so the lattice and
# window temporaries of every item page-fault anew: about 600 faults per
# 1-D sweep item and 120 per 2-D chasing chain.  Freeing one mmap'd block
# raises both thresholds to its size (the top one to twice it; see
# mallopt(3), M_MMAP_THRESHOLD).  Importing scipy happens to do that; this
# package does it itself.  The block is never touched, so it costs no
# memory.
_np.empty(1 << 19)  # 4 MiB

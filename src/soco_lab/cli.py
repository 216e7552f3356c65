"""Command-line harness: run | sweep | oracle | game | reduce | verify-conditions.

An input file (config or instance) that cannot be read or does not fit its
schema is reported on one line, ``soco-lab: error: <file>: <reason>``, exit
2, and so is a flag value out of its range (``soco-lab: error: <reason>``),
a NaN or infinite float flag included; exit 1 is kept for a failed bound
check or an ``INCONSISTENT`` result.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .adversary import (
    DsfhcLearner,
    GameShell,
    GreedyLearner,
    ObliviousAdversary,
    RandomWalk,
    RsfhcBLearner,
    SfhcLearner,
    generate_oblivious_instance,
    grid_quantizer,
    play_semi_adaptive,
    spike_adversary,
    transcript_to_spec,
)
from .families import StronglyConvex, estimate_condition_constants, instance_from_spec
from .harness import (
    ExperimentConfig,
    check_instance_schema,
    format_rows,
    run_suite,
    summary_text,
    write_report,
)
from .model import Instance, movement_cost
from .oracle import ORACLE_METHODS, offline_optimal
from .reductions import (
    cbc_from_spec,
    cbc_to_spec,
    duplicate_cbc_instance,
    epigraph_reduce,
)
from .windows import Grid, default_grid


class _InputError(Exception):
    """An input file that cannot be read or does not fit its schema."""


def _load(path: str, parse):
    """``parse`` of the JSON file at ``path``.  A file that cannot be read
    or parsed raises _InputError naming it, which ``main`` reports on one
    line, exit 2."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except KeyError as exc:
        raise _InputError(f"{path}: missing key {exc}") from exc
    except (OSError, TypeError, ValueError) as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _at_least(flag: str, value, least):
    """Raise _InputError unless the value of ``flag`` is at least ``least``."""
    if value < least:
        raise _InputError(f"{flag} must be at least {least}, not {value}")


def _finite_flags(args):
    """Raise _InputError for a NaN or infinite float flag: argparse's
    ``float`` reads "nan" and "inf", which no range check below rejects."""
    for dest, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise _InputError(f"--{dest.replace('_', '-')} must be finite, not {value}")


def _instance(raw) -> Instance:
    return instance_from_spec(check_instance_schema(raw))


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_rows(args) -> int:
    """``run`` writes the rows to --out or stdout, ``sweep`` writes them and
    a summary file next to them; both print the summary to stderr.  Exit 1
    iff a requested bound check failed."""
    def parse(raw) -> ExperimentConfig:
        config = ExperimentConfig.from_dict(raw)
        if getattr(args, "seed", None) is None:
            return config
        # a master seed; keep the seed count
        return ExperimentConfig.from_dict(
            dict(raw, seeds={"master": args.seed, "count": len(config.seeds)}))

    config = _load(args.config, parse)
    rows, summary = run_suite(config)
    text = summary_text(summary)   # encoded once, for the summary file and stderr
    if args.command == "sweep":
        write_report(rows, text, args.out, args.format)
    else:
        _emit(format_rows(rows, args.format), args.out)
    sys.stderr.write(text)
    return 0 if summary["all_within_bounds"] else 1


def _cmd_oracle(args) -> int:
    if args.grid_n is not None:
        _at_least("--grid-n", args.grid_n, 2)
    instance = _load(args.instance, _instance)
    if args.grid_lo is None:
        grid = default_grid(instance, args.grid_n)
    else:
        if args.grid_lo >= args.grid_hi:
            raise _InputError(f"--grid-lo must be below --grid-hi, "
                              f"not {args.grid_lo} >= {args.grid_hi}")
        try:
            grid = Grid.make(args.grid_lo, args.grid_hi, args.grid_n or 201, dim=instance.dim)
        except ValueError as exc:
            raise _InputError(f"--grid-lo, --grid-hi and --grid-n give no lattice: {exc}") from exc
        try:
            grid.snap_rows(np.vstack([instance.start, instance.minimizers()]))
        except ValueError as exc:
            raise _InputError(f"--grid-lo and --grid-hi must cover the start point "
                              f"and every minimizer: {exc}") from exc
    res = offline_optimal(instance, grid, args.method)
    payload = {"cost": res.cost, "trajectory": res.trajectory.points.tolist(),
               "method": res.method}
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


_LEARNERS = {
    "greedy": lambda args: GreedyLearner(),
    "sfhc": lambda args: SfhcLearner(args.phase),
    "dsfhc": lambda args: DsfhcLearner(),
    "rsfhc-b": lambda args: RsfhcBLearner(),
}


def _cmd_game(args) -> int:
    _at_least("--w", args.w, 1)
    if args.learner == "rsfhc-b" and args.w < 4:
        raise _InputError(f"--learner rsfhc-b needs --w of at least 4, not {args.w}")
    _at_least("--T", args.T, 1)
    if args.T < args.w - 1:
        raise _InputError(f"--T must be at least --w - 1 = {args.w - 1}, not {args.T}")
    _at_least("--seeds", args.seeds, 1)
    _at_least("--inflation", args.inflation, 1)
    if args.m <= 0:
        raise _InputError(f"--m must be positive, not {args.m}")
    if args.learner == "sfhc" and not 0 <= args.phase < args.w:
        raise _InputError(f"--phase must be in 0..{args.w - 1} for --w {args.w}, "
                          f"not {args.phase}")
    m = args.m
    shell = GameShell(1, args.T, np.zeros(1), movement_cost("sq_l2_half"),
                      lam=m / 2.0, family_tag="strongly_convex", params={"m": m})
    psi_grid = Grid.make(-12.0, 12.0, 241, dim=1)
    psi = grid_quantizer(psi_grid)
    learner_costs, adversary_costs, transcripts = [], [], []
    for i in range(args.seeds):
        rng = np.random.default_rng(args.seed + i)
        if args.adversary == "spike":
            adversary = spike_adversary(psi_grid.size, args.inflation)
        else:
            inst = generate_oblivious_instance(StronglyConvex(m), RandomWalk(0.3),
                                               args.T, 1, rng)
            adversary = ObliviousAdversary(inst)
        learner = _LEARNERS[args.learner](args)
        transcript = play_semi_adaptive(learner, adversary, shell, args.w, psi, rng)
        learner_costs.append(transcript.learner_cost)
        adversary_costs.append(transcript.adversary_cost)
        if args.transcripts:
            transcripts.append(transcript_to_spec(transcript))
    if args.transcripts:
        with open(args.transcripts, "w") as fh:
            json.dump(transcripts, fh, indent=2)
    payload = {
        "games": args.seeds, "w": args.w, "learner": args.learner,
        "adversary": args.adversary,
        "mean_learner_cost": float(np.mean(learner_costs)),
        "mean_adversary_cost": float(np.mean(adversary_costs)),
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_reduce(args) -> int:
    _at_least("--w", args.w, 1)
    if args.mode == "duplicate":
        instance = _load(args.instance, cbc_from_spec)
        reduced = duplicate_cbc_instance(instance, args.w)
    else:
        reduced = _load(args.instance, lambda raw: epigraph_reduce(_instance(raw)))
    _emit(json.dumps(cbc_to_spec(reduced), indent=2) + "\n", args.out)
    return 0


def _cmd_verify_conditions(args) -> int:
    _at_least("--samples", args.samples, 1)
    if args.radius <= 0:
        raise _InputError(f"--radius must be positive, not {args.radius}")
    instance = _load(args.instance, _instance)
    rng = np.random.default_rng(args.seed)
    lam_hat, eta_hat = estimate_condition_constants(instance, args.radius,
                                                    args.samples, rng)
    declared_lam, declared_eta = instance.lam, instance.movement.eta
    ok = (declared_lam is None or lam_hat >= declared_lam - 1e-6) \
        and eta_hat <= declared_eta + 1e-6
    print(f"lam_hat={lam_hat:.9g} (declared {declared_lam})")
    print(f"eta_hat={eta_hat:.9g} (declared {declared_eta})")
    print("consistent" if ok else "INCONSISTENT")
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing does not
    change it, and building it costs more than a parse."""
    parser = argparse.ArgumentParser(prog="soco-lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a config and emit result rows")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=_cmd_rows)

    p = sub.add_parser("sweep", help="run a config, write rows + JSON summary")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=_cmd_rows)

    p = sub.add_parser("oracle", help="offline optimum of an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--method", choices=ORACLE_METHODS, default="auto")
    p.add_argument("--grid-lo", type=float, default=None)
    p.add_argument("--grid-hi", type=float, default=None)
    p.add_argument("--grid-n", type=int, default=None,
                   help="points per axis of a uniform lattice (default: the family's "
                        "breakpoint lattice, else 201)")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("game", help="commit-reveal games, quadratic shell")
    p.add_argument("--adversary", choices=("spike", "oblivious"), default="spike")
    p.add_argument("--learner", choices=tuple(_LEARNERS), default="rsfhc-b")
    p.add_argument("--w", type=int, default=6)
    p.add_argument("--phase", type=int, default=0)
    p.add_argument("--T", type=int, default=60)
    p.add_argument("--m", type=float, default=2.0)
    p.add_argument("--seeds", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inflation", type=float, default=3.0)
    p.add_argument("--transcripts", default=None,
                   help="write per-game replay transcripts to this JSON file")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_game)

    p = sub.add_parser("reduce", help="duplicate a chasing instance or lift costs")
    p.add_argument("--mode", choices=("duplicate", "epigraph"), required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--w", type=int, default=2)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("verify-conditions", help="estimate growth/triangle constants")
    p.add_argument("--instance", required=True)
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--radius", type=float, default=3.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_verify_conditions)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "oracle" and (args.grid_lo is None) != (args.grid_hi is None):
        parser.error("--grid-lo and --grid-hi must be given together")
    try:
        _finite_flags(args)
        return args.fn(args)
    except _InputError as exc:
        sys.stderr.write(f"soco-lab: error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload sweep-1d --seed 1 --seconds 45 --trace 0

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
With ``--trace 0`` the metrics are the end-to-end ones (set-up time,
throughput, median item time, peak memory); with ``--trace 1`` they are
the per-layer self times and counts, per traced item, plus the tracing
overhead measured by alternating traced and untraced rounds.  A summary
for people goes to standard error.  An item that raises counts as failed
and makes the run incorrect.  The exit code is 0 only when no item failed
and every check passed.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One thread everywhere: BLAS/OpenMP pools and the harness row pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SOCO_LAB_THREADS", None)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
from tracer import LAYERS, Tracer  # noqa: E402

SETUP_SAMPLES = 3   # this process's set-up plus two fresh child processes
PERCENTILES = (75, 90, 95, 99, 99.9)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-1d", "chase-2d", "game-spike"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the set-up time and exit (used for "
                             "the set-up samples)")
    return parser.parse_args(argv)


def tail_percentile(times: list[float]) -> tuple[float, float, int] | None:
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(times)
    if n < 40:
        return None
    p = max(p for p in PERCENTILES if n * (100 - p) / 100 >= 10)
    cuts = statistics.quantiles(times, n=1000, method="inclusive")
    return p, cuts[int(p * 10) - 1], n


def timed_phase(workload, seconds: float, tracer):
    """Whole rounds until their summed wall time reaches ``seconds``.

    Each round's outputs are checked after the round, off the clock, and
    then dropped, so memory stays flat.  ``times`` holds the wall times of
    the items that did not fail; ``errors`` one line per failed item.  With a tracer, rounds alternate
    traced and untraced and the phase ends on an untraced round, so both
    halves hold the same number of rounds.
    """
    times, errors, problems = [], [], []
    wall = {True: 0.0, False: 0.0}
    items = {True: 0, False: 0}
    r = 0
    while True:
        traced = tracer is not None and r % 2 == 0
        inputs = workload.round_inputs()
        records = []
        if traced:
            tracer.install()
        round_start = time.perf_counter()
        for item in inputs:
            t0 = time.perf_counter()
            try:
                out = workload.run(item)
            except Exception as exc:  # counted as failed; the run goes on
                errors.append(f"{type(exc).__name__}: {exc}")
                continue
            times.append(time.perf_counter() - t0)
            records.append((item, out))
        wall[traced] += time.perf_counter() - round_start
        items[traced] += len(inputs)
        if traced:
            tracer.uninstall()
        problems += workload.check(records)
        r += 1
        if wall[True] + wall[False] >= seconds and (tracer is None or r % 2 == 0):
            break
    return times, errors, problems + workload.finish(), wall, items


def setup_probes(args) -> list[float]:
    """Set-up times of fresh processes running the same workload and seed."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def layer_metrics(tracer, n: int) -> dict:
    """Per-layer self times (ms) and counts, per traced item."""
    ms = lambda key: 1e3 * tracer.self_s.get(key, 0.0) / n  # noqa: E731
    calls = lambda key: tracer.calls.get(key, 0) / n  # noqa: E731
    count = lambda key: tracer.counts.get(key, 0) / n  # noqa: E731
    out = {f"{layer}.self_ms": (tracer.layer_self_ms(layer) / n, "ms") for layer in LAYERS}
    out.update({
        "harness.rows": (count("harness.rows"), "count"),
        "algorithms.calls": (tracer.layer_calls("algorithms") / n, "count"),
        "windows.grid_dp_stage_points": (count("windows.grid_dp_stage_points"), "count"),
        "oracle.grid_stage_points": (count("oracle.grid_stage_points"), "count"),
        "oracle.constrained_offline.calls": (calls("oracle.constrained_offline"), "count"),
        "model.hitting_values.self_ms": (ms("model.hitting_values"), "ms"),
        "model.evaluate_total_cost.self_ms": (ms("model.evaluate_total_cost"), "ms"),
        "model.evaluate_total_cost.calls": (calls("model.evaluate_total_cost"), "count"),
        "model.movement.calls": (calls("model.movement"), "count"),
        "adversary.generate.self_ms": (ms("adversary.generate_oblivious_instance")
                                       + ms("adversary.minimizer_path"), "ms"),
        "adversary.play_semi_adaptive.self_ms": (ms("adversary.play_semi_adaptive"), "ms"),
        "reductions.project.calls": (calls("reductions.project"), "count"),
    })
    for key in ("windows.solve_grid_dp", "windows.solve_quadratic_chain",
                "windows.window_objective", "oracle.offline_optimal_grid",
                "model.pairwise"):
        out[f"{key}.self_ms"] = (ms(key), "ms")
        out[f"{key}.calls"] = (calls(key), "count")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "soco_lab" / "__init__.py").is_file():
        print(f"error: no soco_lab sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workdir = HERE / ".runs" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        for item in workload.warm_up_inputs():
            workload.run(item)
        setup_s = time.perf_counter() - START
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tracer = Tracer() if args.trace else None
        phase_start = time.perf_counter()
        times, errors, problems, wall, items = timed_phase(workload, args.seconds, tracer)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        phase, elapsed = wall[True] + wall[False], time.perf_counter() - phase_start
        attempted = items[True] + items[False]
        if not times:
            print(f"{args.workload}: every item failed, first: {errors[0]}",
                  file=sys.stderr)
            return 1

        if tracer is not None:
            metrics = layer_metrics(tracer, items[True])
            traced_ips, plain_ips = items[True] / wall[True], items[False] / wall[False]
            metrics["trace.traced_items_per_s"] = (traced_ips, "1/s")
            metrics["trace.untraced_items_per_s"] = (plain_ips, "1/s")
            metrics["trace.overhead_pct"] = (100.0 * (plain_ips / traced_ips - 1.0), "%")
        else:
            setups = [setup_s] + setup_probes(args)
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "items_per_s": (len(times) / phase, "1/s"),
                "item_p50_ms": (1e3 * statistics.median(times), "ms"),
                "peak_rss_mb": (peak_mb, "MB"),
            }
            tail = tail_percentile(times)
            print(f"{args.workload}: set-up samples {[round(s, 3) for s in setups]} s",
                  file=sys.stderr)
            if tail:
                print(f"{args.workload}: p{tail[0]} {1e3 * tail[1]:.2f} ms "
                      f"over {tail[2]} items", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in (errors + problems)[:20]:
        print(f"{args.workload}: {line}", file=sys.stderr)
    print(f"{args.workload}: {attempted} items in {phase:.2f} s timed "
          f"({elapsed:.2f} s with checks), {len(errors)} failed, "
          f"{len(problems)} check problems", file=sys.stderr)
    correct = not problems and not errors
    result = {"correct": correct, "attempted": attempted, "failed": len(errors),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

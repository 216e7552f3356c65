"""Run two sets of benchmark runs on one commit and compare them.

    python3 bench/compare.py --runs 10 [--workload game-spike]

Every run uses its own seed.  For each workload and end-to-end metric the
report gives, per set, the median and the quartile spread (Q3 - Q1 over the
median, from ``statistics.quantiles(values, n=4)``), then whether the two
medians differ by more than the metric's bound in BENCHMARK.json, either
way, and whether each spread stays within the bound and below a third of
it.  It also checks that the share of failed items is the same in every
run.  Exits 0 when everything agrees.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed its checks: "
                           f"{proc.stderr.strip()[-2000:]}")
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--out", help="also write every run's result to this JSON file")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    results = {w: [[], []] for w in workloads}
    seed = args.first_seed
    for k in range(2):
        for _ in range(args.runs):
            for w in workloads:
                res = run_once(spec["command"], w, seed, spec["run_seconds"])
                results[w][k].append(dict(res, seed=seed))
                print(f"set {k + 1} {w} seed {seed}: "
                      + ", ".join(f"{m}={v['value']:.4g}" for m, v in res["metrics"].items()),
                      file=sys.stderr, flush=True)
                seed += 1
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1))

    ok = True
    print(f"{'workload':11s} {'metric':12s} {'bound':>6s} {'median1':>10s} {'spread1':>8s} "
          f"{'median2':>10s} {'spread2':>8s}  verdict")
    for w in workloads:
        shares = {r["failed"] / r["attempted"] for runs in results[w] for r in runs}
        if len(shares) > 1:
            ok = False
            print(f"{w:11s} failed share differs between runs: {sorted(shares)}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians, spreads = [], []
            for runs in results[w]:
                values = [r["metrics"][name]["value"] for r in runs]
                medians.append(statistics.median(values))
                spreads.append(spread(values) if len(values) > 1 else 0.0)
            fatal, notes = [], []
            if max(spreads) > bound:
                fatal.append("spread over bound")
            elif max(spreads) > bound / 3:
                notes.append("spread over bound/3")
            if abs(medians[1] - medians[0]) / medians[0] > bound:
                fatal.append("medians differ")
            ok &= not fatal
            print(f"{w:11s} {name:12s} {bound:6.3f} "
                  + " ".join(f"{m:10.4g} {s:8.4f}" for m, s in zip(medians, spreads))
                  + "  " + (", ".join([f.upper() for f in fatal] + notes) or "ok"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

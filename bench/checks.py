"""Output checks computed apart from the program.

Every check takes plain numbers (minimizers, points, costs as the program
reported them) and returns a list of problems; an empty list means the
output passed.  Nothing here imports ``soco_lab``: costs are re-derived
from the family formulas.  The 1-D optimum of a piecewise-linear instance
comes from a dynamic program over breakpoints, which is exact because some
optimal trajectory only visits the start point, the minimizers and the
kinks of the hitting costs; that of a quadratic instance comes from solving
its first-order conditions, a tridiagonal linear system.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

CSV_HEADER = ["instance_id", "algorithm", "w", "seed", "cost", "opt_cost", "ratio",
              "bound_value", "within_bound", "tolerance_budget"]
NUMERIC = ("cost", "opt_cost", "ratio", "bound_value", "tolerance_budget")


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# 1-D costs: hit(v, x) is f_t(x) for minimizer v; move(x, y) is c(x, y).
# Both broadcast over numpy arrays.
# ---------------------------------------------------------------------------

def polyhedral_l1(alpha: float):
    """alpha |x - v| with |x - y| movement; kinks at the minimizers."""
    return (lambda v, x: alpha * np.abs(x - v),
            lambda x, y: np.abs(x - y), ())


def glb(e0: float, beta: float, mu: float):
    """e0 x + mu |x - v| on x >= 0 with beta (x - y)^+ movement; kinks at v, 0."""
    def hit(v, x):
        return np.where(x >= 0.0, e0 * x + mu * np.abs(x - v), np.inf)
    return hit, (lambda x, y: beta * np.maximum(x - y, 0.0)), (0.0,)


def quadratic(m: float):
    """(m/2)(x - v)^2 with (1/2)(x - y)^2 movement."""
    return (lambda v, x: 0.5 * m * (x - v) ** 2,
            lambda x, y: 0.5 * (x - y) ** 2, ())


def ripple(m: float, eps: float, k: float):
    """(m/2)(x - v)^2 + eps (1 - cos k(x - v)) with (1/2)(x - y)^2 movement."""
    return (lambda v, x: 0.5 * m * (x - v) ** 2 + eps * (1.0 - np.cos(k * (x - v))),
            lambda x, y: 0.5 * (x - y) ** 2, ())


def trajectory_cost(costs, minimizers, start: float, points) -> float:
    """sum_t f_t(x_t) + c(x_t, x_{t-1}) with x_0 = start."""
    hit, move, _ = costs
    x = np.asarray(points, dtype=float)
    prev = np.concatenate([[start], x[:-1]])
    return float(np.sum(hit(np.asarray(minimizers, dtype=float), x) + move(x, prev)))


def exact_opt_1d(costs, minimizers, start: float) -> float:
    """Exact offline optimum of a 1-D piecewise-linear instance."""
    hit, move, kinks = costs
    v = np.asarray(minimizers, dtype=float)
    cand = np.unique(np.concatenate([[start], v, kinks]))
    trans = move(cand[:, None], cand[None, :])          # [new, old]
    value = hit(v[0], cand) + move(cand, start)
    for t in range(1, v.shape[0]):
        value = hit(v[t], cand) + np.min(trans + value[None, :], axis=1)
    return float(value.min())


def exact_opt_quadratic_1d(m: float, minimizers, start: float) -> float:
    """Exact offline optimum of (m/2)(x - v_t)^2 costs with (1/2)(x - y)^2 movement.

    Setting the gradient to zero gives, for every t,
    m (x_t - v_t) + (x_t - x_{t-1}) - [t < T] (x_{t+1} - x_t) = 0.
    """
    v = np.asarray(minimizers, dtype=float)
    T = v.shape[0]
    a = np.diag(np.full(T, m + 2.0)) - np.eye(T, k=1) - np.eye(T, k=-1)
    a[-1, -1] = m + 1.0
    b = m * v
    b[0] += start
    x = np.linalg.solve(a, b)
    return trajectory_cost(quadratic(m), v, start, x)


# ---------------------------------------------------------------------------
# sweep-1d
# ---------------------------------------------------------------------------

def parse_rows(text: str) -> tuple[list[dict], list[str]]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != CSV_HEADER:
        return [], [f"CSV header {header!r}"]
    return [dict(zip(CSV_HEADER, row)) for row in reader], []


def check_sweep(item: dict) -> list[str]:
    """One `soco-lab sweep` run over a single 1-D instance.

    ``item`` holds the exit code, the summary the command printed, the CSV
    text, the expected row count, the instance's minimizers and start, its
    cost functions, and ``exact_opt``: the instance's exact optimum, or None
    when the benchmark has no exact optimum for its family.  Every row's
    cost and ``opt_cost`` must be at least that optimum; a quadratic
    instance's ``opt_cost`` must equal it (``opt_is_exact``).
    """
    problems = []
    if item["exit_code"] != 0:
        problems.append(f"exit code {item['exit_code']}")
    summary = item["summary"]
    if summary.get("failures") != 0 or summary.get("rows") != item["rows"]:
        problems.append(f"summary reports {summary.get('failures')} failures "
                        f"in {summary.get('rows')} rows")
    rows, bad = parse_rows(item["csv"])
    problems += bad
    if len(rows) != item["rows"]:
        problems.append(f"{len(rows)} rows, expected {item['rows']}")
    opt = item["exact_opt"]
    for row in rows:
        label = f"{row['algorithm']}/w={row['w']}"
        values = {k: float(row[k]) for k in NUMERIC}
        if any(math.isnan(x) for x in values.values()) or row["within_bound"] != "true":
            problems.append(f"{label}: row {row}")
            continue
        if row["algorithm"] == "greedy":
            want = trajectory_cost(item["costs"], item["minimizers"], item["start"],
                                   item["minimizers"])
            if not close(values["cost"], want):
                problems.append(f"{label}: greedy cost {values['cost']} != {want}")
        if opt is not None:
            for key in ("cost", "opt_cost"):
                if values[key] < opt - 1e-9 * max(1.0, opt):
                    problems.append(f"{label}: {key} {values[key]} below exact OPT {opt}")
            if item["opt_is_exact"] and not close(values["opt_cost"], opt, rel=1e-8):
                problems.append(f"{label}: opt_cost {values['opt_cost']} != exact OPT {opt}")
    return problems


# ---------------------------------------------------------------------------
# chase-2d
# ---------------------------------------------------------------------------

def l1_path_cost(start, points) -> float:
    pts = np.vstack([np.asarray(start, dtype=float)[None, :],
                     np.asarray(points, dtype=float)])
    return float(np.abs(np.diff(pts, axis=0)).sum())


def check_chase(item: dict) -> list[str]:
    """The epigraph chain for alpha |x - v_t| hitting costs with l1 movement.

    Bodies alternate K_t = {(x, y): y >= alpha |x - v_t|} and the plane
    y = 0, starting from (x_0, 0).
    """
    problems = []
    alpha, v, x0 = item["alpha"], np.asarray(item["minimizers"], float), item["start"]
    costs = polyhedral_l1(alpha)
    opt = item["opt_cost"]
    exact = exact_opt_1d(costs, v, x0)
    if not close(opt, exact):
        problems.append(f"1-D oracle {opt} != exact OPT {exact}")
    if not close(opt, trajectory_cost(costs, v, x0, item["opt_points"])):
        problems.append("1-D oracle cost is not attained by its trajectory")

    chase = np.asarray(item["chase_points"], dtype=float)
    for t in range(v.shape[0]):
        x, y = chase[2 * t]
        if y < alpha * abs(x - v[t]) - 1e-7:
            problems.append(f"chase point {2 * t} {chase[2 * t]} outside epigraph {t + 1}")
        if abs(chase[2 * t + 1, 1]) > 1e-9:
            problems.append(f"chase point {2 * t + 1} {chase[2 * t + 1]} off the plane")
    start2 = [x0, 0.0]
    for name, pts, cost in (("chase", chase, item["chase_cost"]),
                            ("lifted", item["lifted_points"], item["lifted_cost"])):
        if not close(cost, l1_path_cost(start2, pts)):
            problems.append(f"{name} cost {cost} != recomputed {l1_path_cost(start2, pts)}")
    mapped = np.asarray(item["mapped_points"], dtype=float)
    if not np.allclose(mapped, chase[0::2, 0], rtol=0.0, atol=1e-12):
        problems.append("mapped points are not the epigraph visits")
    if not close(item["mapped_cost"], trajectory_cost(costs, v, x0, mapped)):
        problems.append("mapped cost does not match its points")

    lifted, chased, mapped_cost = item["lifted_cost"], item["chase_cost"], item["mapped_cost"]
    chasing_opt = item["chasing_opt"]
    ratio = chased / chasing_opt if chasing_opt > 0 else 1.0
    for ok, text in ((lifted <= 2 * opt + 1e-9, "lifted cost > 2 OPT"),
                     (mapped_cost <= 2 * chased + 1e-9, "mapped cost > 2 chase cost"),
                     (chasing_opt <= lifted + 1e-9, "chasing OPT > lifted cost"),
                     (mapped_cost <= 4 * ratio * opt + 1e-9, "mapped cost > 4 ratio OPT")):
        if not ok:
            problems.append(f"A10: {text}")
    return problems


# ---------------------------------------------------------------------------
# game-spike
# ---------------------------------------------------------------------------

def check_game(item: dict) -> list[str]:
    """One commit-reveal game with quadratic costs and (1/2)(x - y)^2 movement."""
    problems = []
    v = np.asarray(item["minimizers"], dtype=float)
    T, w = v.shape[0], item["w"]
    costs = quadratic(item["m"])
    for side in ("learner", "adversary"):
        want = trajectory_cost(costs, v, item["start"], item[f"{side}_points"])
        if not close(item[f"{side}_cost"], want):
            problems.append(f"{side} cost {item[f'{side}_cost']} != re-scored {want}")
    reveal = np.asarray(item["reveal_clock"])
    decide = np.asarray(item["decide_clock"])
    if len(reveal) != T or len(decide) != T or np.any(np.diff(decide) <= 0):
        problems.append("clocks do not cover the horizon in order")
    else:
        seen = np.searchsorted(np.sort(reveal), decide)
        window = np.minimum(np.arange(1, T + 1) + w - 1, T)
        late = np.nonzero(seen != window)[0]
        if late.size:
            tau = int(late[0]) + 1
            problems.append(f"decision {tau} saw {int(seen[tau - 1])} costs, "
                            f"window allows {int(window[tau - 1])}")
    replay = item.get("replay")
    if replay is not None:
        gap = float(np.max(np.abs(np.asarray(replay, float)
                                  - np.asarray(item["learner_points"], float))))
        if gap > 1e-9:
            problems.append(f"decisions differ from the offline replay by {gap}")
    return problems


def check_a09(learner_costs, adversary_costs, bound: float) -> list[str]:
    """Mean of learner - bound * adversary is at most three standard errors."""
    margin = np.asarray(learner_costs, float) - bound * np.asarray(adversary_costs, float)
    if margin.size < 2:
        return ["A09: fewer than two games"]
    stderr = float(margin.std(ddof=1) / np.sqrt(margin.size))
    if margin.mean() > 3 * stderr:
        return [f"A09: mean margin {margin.mean():.4g} > 3 stderr {3 * stderr:.4g}"]
    return []

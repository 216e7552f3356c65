"""The three benchmark workloads.

A workload turns the run seed into inputs, runs one item (the timed part),
and checks each round's outputs once the round is over (untimed);
``finish`` makes the checks that need every round.  Items come in rounds
that repeat the same mix of kinds, so every run does whole rounds of the
same operations.  Program functions are always looked up on their module at
call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

from soco_lab import adversary, algorithms, cli, families, harness, model, oracle, \
    reductions, windows

import checks


def _streams(seed: int):
    """Independent generators for warm-up and timed inputs."""
    return np.random.default_rng([seed, 0]), np.random.default_rng([seed, 1])


class Sweep1D:
    """In-process `soco-lab sweep` on one generated 1-D instance and one seed.

    A round is one config per family: scaled-abs costs with l1 movement,
    server dispatch with ramp movement, convex quadratic-plus-cosine costs,
    and quadratic costs (the kind of ``configs/quadratic_sweep.json``, whose
    rows take the exact quadratic solver and oracle, not the lattice).  Every
    config runs all six algorithms (15 rows) with the greedy, prediction and
    semi-adaptive bound checks.
    """

    name = "sweep-1d"
    T = 40
    STEP = 0.5
    FAMILIES = (
        ("polyhedral", {"alpha": 1.0, "p": 1}),
        ("glb", {"e0": [1.0], "beta": [1.0], "mu": [3.0]}),
        ("ripple", {"m": 2.0, "eps": 0.3, "k": 2.0}),
        ("strongly_convex", {"m": 2.0}),
    )
    ALGORITHMS = (
        {"name": "greedy"},
        {"name": "sfhc", "w": [2, 4, 6]},
        {"name": "dsfhc", "w": [2, 4, 6]},
        {"name": "rsfhc-a", "w": [2, 4, 6]},
        {"name": "rsfhc-b", "w": [4, 6]},
        {"name": "afhc", "w": [2, 4, 6]},
    )
    COSTS = {   # the benchmark's own formulas for each family
        "polyhedral": lambda p: checks.polyhedral_l1(p["alpha"]),
        "glb": lambda p: checks.glb(p["e0"][0], p["beta"][0], p["mu"][0]),
        "ripple": lambda p: checks.ripple(p["m"], p["eps"], p["k"]),
        "strongly_convex": lambda p: checks.quadratic(p["m"]),
    }
    ROWS = 15
    CHECKS = ("greedy_bound", "prediction_bound", "semi_adaptive_bound")
    RERUNS = 3   # the first checked items are run again and must write the same CSV

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.warm_rng, self.rng = _streams(seed)
        self.count = 0
        self.reruns = self.RERUNS

    def _inputs(self, rng) -> list[dict]:
        items = []
        for family, params in self.FAMILIES:
            index = self.count
            self.count += 1
            config = {
                "instances": [{"id": f"{family}-{index}", "generate": {
                    "family": family, "params": params, "T": self.T, "d": 1,
                    "path": {"model": "random_walk", "step": self.STEP}}}],
                "algorithms": list(self.ALGORITHMS),
                "seeds": [int(rng.integers(2 ** 31))],
                "oracle": {"method": "auto"},
                "checks": list(self.CHECKS),
            }
            path = self.workdir / f"{index}.json"
            path.write_text(json.dumps(config))
            items.append({"config": config, "path": path,
                          "out": self.workdir / f"{index}.csv"})
        return items

    def warm_up_inputs(self) -> list[dict]:
        return self._inputs(self.warm_rng)

    def round_inputs(self) -> list[dict]:
        return self._inputs(self.rng)

    def run(self, item: dict):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["sweep", "--config", str(item["path"]),
                             "--out", str(item["out"])])
        return code, err.getvalue()

    def _instance(self, config: dict):
        """The instance the config generates, by the documented row-key seeding."""
        spec = config["instances"][0]
        gen = spec["generate"]
        cls = {"polyhedral": families.Polyhedral, "glb": families.Glb,
               "ripple": families.Ripple,
               "strongly_convex": families.StronglyConvex}[gen["family"]]
        family = cls(**{k: tuple(v) if isinstance(v, list) else v
                        for k, v in gen["params"].items()})
        rng = np.random.default_rng(
            harness.derive_seed(config["seeds"][0], "instance", spec["id"]))
        return adversary.generate_oblivious_instance(
            family, adversary.RandomWalk(gen["path"]["step"]), gen["T"], 1, rng)

    def check(self, records) -> list[str]:
        problems = []
        for item, (code, err) in records:
            gen = item["config"]["instances"][0]["generate"]
            costs = self.COSTS[gen["family"]](gen["params"])
            instance = self._instance(item["config"])
            minimizers, start = instance.minimizers()[:, 0], float(instance.start[0])
            if gen["family"] == "strongly_convex":
                opt = checks.exact_opt_quadratic_1d(gen["params"]["m"], minimizers, start)
            elif gen["family"] == "ripple":
                opt = None
            else:
                opt = checks.exact_opt_1d(costs, minimizers, start)
            try:
                summary = json.loads(err)
            except ValueError:
                summary = {}
            found = checks.check_sweep({
                "exit_code": code, "summary": summary, "rows": self.ROWS,
                "csv": item["out"].read_text(), "costs": costs,
                "minimizers": minimizers, "start": start, "exact_opt": opt,
                "opt_is_exact": gen["family"] == "strongly_convex"})
            problems += [f"{item['path'].stem}: {p}" for p in found]
        for item, _ in records[:self.reruns]:
            first = item["out"].read_bytes()
            rerun = dict(item, out=item["out"].with_suffix(".rerun.csv"))
            self.run(rerun)
            if rerun["out"].read_bytes() != first:
                problems.append(f"{item['path'].stem}: rerun wrote a different CSV")
        self.reruns = 0
        return problems

    def finish(self) -> list[str]:
        return []


class Chase2D:
    """The A10 epigraph chain for one 1-D polyhedral instance.

    alpha |x - v_t| costs with l1 movement, T = 5, minimizers a random walk
    clipped to [-2, 2] and snapped to the 1-D lattice.  The chain reduces
    the instance to body chasing, chases greedily by projection, maps back,
    runs the 1-D oracle, and runs the chasing oracle on a 61 x 61 lift
    lattice (3721 points).
    """

    name = "chase-2d"
    T = 5
    ALPHA = 1.0

    def __init__(self, seed: int, workdir: Path):
        self.warm_rng, self.rng = _streams(seed)
        self.xgrid = windows.Grid.make(-3.0, 3.0, 61, dim=1)
        self.lift_grid = windows.Grid.make([-3.0, 0.0], [3.0, 6.0], [61, 61], dim=2)
        self.lattice = self.xgrid.axes()[0]

    def _inputs(self, rng) -> list[np.ndarray]:
        walk = np.cumsum(0.5 * rng.standard_normal(self.T))
        idx = np.rint((np.clip(walk, -2.0, 2.0) + 3.0) / 0.1).astype(int)
        return [self.lattice[idx]]

    def warm_up_inputs(self):
        return self._inputs(self.warm_rng)

    def round_inputs(self):
        return self._inputs(self.rng)

    def run(self, path: np.ndarray) -> dict:
        soco = families.make_polyhedral(self.ALPHA, path[:, None], p=1, start=[0.0])
        opt = oracle.offline_optimal_grid(soco, self.xgrid)
        lifted, lifted_cost = reductions.embed_soco_opt_in_cbc(opt.trajectory.points, soco)
        reduced = reductions.epigraph_reduce(soco)
        chase_points, chase_cost = reductions.run_cbc_greedy_projection(reduced)
        mapped = reductions.map_cbc_to_soco(chase_points, reduced, soco)
        return {
            "alpha": self.ALPHA, "minimizers": path, "start": 0.0,
            "opt_cost": opt.cost, "opt_points": opt.trajectory.points[:, 0],
            "lifted_points": lifted, "lifted_cost": lifted_cost,
            "chase_points": chase_points, "chase_cost": chase_cost,
            "mapped_points": mapped[:, 0],
            "mapped_cost": model.evaluate_total_cost(soco, mapped).total,
            "chasing_opt": reductions.cbc_opt_grid(reduced, self.lift_grid).cost,
        }

    def check(self, records) -> list[str]:
        return [p for _, out in records for p in checks.check_chase(out)]

    def finish(self) -> list[str]:
        return []


class GameSpike:
    """Semi-adaptive commit-reveal games against the spike adversary.

    The A09 shell: quadratic costs with m = 2, half-squared-l2 movement,
    w = 6, a 241-bin disclosure lattice and inflation 3.  A round plays
    horizons T = 40, 44, ..., 80, each once with the rsfhc-b learner and
    once with the dsfhc learner, alternating, so item times spread over one
    continuous range rather than two clusters.  Every game is re-scored and
    its clocks checked; the dsfhc games of every fourth round are replayed
    offline.
    """

    name = "game-spike"
    M, W, BINS, INFLATION = 2.0, 6, 241, 3.0
    HORIZONS = tuple(range(40, 81, 4))
    LEARNERS = ("rsfhc-b", "dsfhc")
    REPLAY_EVERY = 4   # a dsfhc replay costs as much as the game itself

    def __init__(self, seed: int, workdir: Path):
        self.warm_rng, self.rng = _streams(seed)
        movement = model.movement_cost("sq_l2_half")
        self.shells = {T: adversary.GameShell(
            1, T, np.zeros(1), movement, lam=self.M / 2.0,
            family_tag="strongly_convex", params={"m": self.M}) for T in self.HORIZONS}
        self.psi = adversary.grid_quantizer(windows.Grid.make(-12.0, 12.0, self.BINS, dim=1))
        self.checked_rounds = 0
        self.rsfhc_b_costs: list[tuple[float, float]] = []

    def _inputs(self, rng) -> list[tuple[str, int, int]]:
        return [(learner, T, int(rng.integers(2 ** 63)))
                for T in self.HORIZONS for learner in self.LEARNERS]

    def warm_up_inputs(self):
        return self._inputs(self.warm_rng)

    def round_inputs(self):
        return self._inputs(self.rng)

    def run(self, item) -> dict:
        learner_name, T, seed = item
        learner = (adversary.RsfhcBLearner() if learner_name == "rsfhc-b"
                   else adversary.DsfhcLearner())
        game = adversary.play_semi_adaptive(
            learner, adversary.spike_adversary(self.BINS, self.INFLATION),
            self.shells[T], self.W, self.psi, np.random.default_rng(seed))
        return {
            "learner": learner_name, "m": self.M, "w": self.W, "start": 0.0,
            "minimizers": np.array([c.minimizer[0] for c in game.revealed_costs]),
            "learner_points": game.learner_points[:, 0],
            "adversary_points": game.adversary_commits[:, 0],
            "learner_cost": game.learner_cost, "adversary_cost": game.adversary_cost,
            "reveal_clock": game.reveal_clock, "decide_clock": game.decide_clock,
        }

    def check(self, records) -> list[str]:
        """Checks one round of games; replays dsfhc in every fourth round."""
        problems = []
        replay = self.checked_rounds % self.REPLAY_EVERY == 0
        self.checked_rounds += 1
        for (learner, T, seed), out in records:
            if learner == "dsfhc" and replay:
                instance = families.make_strongly_convex(
                    self.M, out["minimizers"][:, None], start=[0.0])
                out = dict(out, replay=algorithms.run_dsfhc(instance, self.W).points[:, 0])
            elif learner == "rsfhc-b":
                self.rsfhc_b_costs.append((out["learner_cost"], out["adversary_cost"]))
            problems += [f"{learner} T={T} seed {seed}: {p}" for p in checks.check_game(out)]
        return problems

    def finish(self) -> list[str]:
        eta, lam = 2.0, self.M / 2.0
        bound = 1.0 + (2.0 / (self.W - 2.0)) * max(eta / lam, 2.0 * (eta - 1.0))
        learner, adv = zip(*self.rsfhc_b_costs) if self.rsfhc_b_costs else ((), ())
        return checks.check_a09(learner, adv, bound)


WORKLOADS = {cls.name: cls for cls in (Sweep1D, Chase2D, GameSpike)}

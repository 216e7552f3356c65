"""Per-layer tracing from outside the program.

Every public function of a ``soco_lab`` module, and a few public methods
named in ``METHODS``, is replaced by a wrapper in every namespace of the
package that holds it.  A wrapper counts calls and records self time: its
span's duration minus the part covered by the wrapped calls it made.
Private helpers are not wrapped, so their time lands in the public caller
of the same or another layer.  ``uninstall`` puts the originals back, so
traced and untraced rounds can alternate in one process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "soco_lab"
LAYERS = ("cli", "harness", "algorithms", "windows", "oracle", "model",
          "families", "adversary", "reductions")

#: (module, class, method, key) of public methods traced like functions.
METHODS = (
    ("model", "MovementCost", "__call__", "model.movement"),
    ("model", "MovementCost", "pairwise", "model.pairwise"),
    ("model", "HittingCost", "values", "model.hitting_values"),
    ("reductions", "ConvexBody", "project", "reductions.project"),
)


def _grid_dp_points(tracer, args, kwargs, result):
    problem = args[0]
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    return "windows.grid_dp_stage_points", problem.free_count * grid.size


def _oracle_points(tracer, args, kwargs, result):
    instance = args[0]
    grid = args[1] if len(args) > 1 else kwargs.get("grid")
    grid = grid or tracer.default_grid(instance)
    return "oracle.grid_stage_points", instance.horizon * grid.size


def _rows(tracer, args, kwargs, result):
    return "harness.rows", len(result[0])


#: Work counters derived from a call's arguments and result.
COUNTERS = {
    "windows.solve_grid_dp": _grid_dp_points,
    "oracle.offline_optimal_grid": _oracle_points,
    "harness.run_suite": _rows,
}


class Tracer:
    """Wraps the package's public boundaries; accumulates calls and self time."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[float] = []
        self._patches = self._build()

    @staticmethod
    def _modules():
        for layer in LAYERS:
            importlib.import_module(f"{PACKAGE}.{layer}")
        return {name: mod for name, mod in sys.modules.items()
                if name == PACKAGE or name.startswith(PACKAGE + ".")}

    def _wrap(self, key: str, fn):
        counter = COUNTERS.get(key)
        stack, calls, self_s, counts = self._stack, self.calls, self.self_s, self.counts
        calls.setdefault(key, 0)
        self_s.setdefault(key, 0.0)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[key] += elapsed - stack.pop()
                calls[key] += 1
                if stack:
                    stack[-1] += elapsed
            if counter is not None:
                name, amount = counter(self, args, kwargs, result)
                counts[name] = counts.get(name, 0) + amount
            return result

        return wrapper

    def _build(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every patch site."""
        modules = self._modules()
        self.default_grid = modules[f"{PACKAGE}.windows"].default_grid
        originals = {}
        for layer in LAYERS:
            mod = modules[f"{PACKAGE}.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    originals[obj] = self._wrap(f"{layer}.{name}", obj)
        patches = []
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in originals:
                    patches.append((mod, name, obj, originals[obj]))
        for layer, cls_name, method, key in METHODS:
            cls = getattr(modules[f"{PACKAGE}.{layer}"], cls_name)
            fn = cls.__dict__[method]
            patches.append((cls, method, fn, self._wrap(key, fn)))
        return patches

    def install(self):
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    def layer_self_ms(self, layer: str) -> float:
        return 1e3 * sum(v for k, v in self.self_s.items()
                         if k.split(".", 1)[0] == layer)

    def layer_calls(self, layer: str) -> int:
        return sum(v for k, v in self.calls.items() if k.split(".", 1)[0] == layer)

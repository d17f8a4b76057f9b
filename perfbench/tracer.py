"""Spans and counters around the public functions of every homaudit layer.

`Tracer.install()` replaces each public function of the layer modules with a
wrapper, everywhere that function object is bound: in its own module and in
every module that re-bound it by `from ... import`. It also wraps the two
system constructors, both `map_at` methods and `Subspace.__init__`. Nothing
under `src/` changes, and `uninstall()` puts the originals back.

Spans are kept in flat arrays (name id, start, end, parent span, operation
id) and written out once, at the end, by `save()`. Their clock is the
process CPU clock, the one the runner times operations with. `layer_metrics()` turns
them into the per-layer figures listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import sys
import weakref
from array import array
from time import process_time_ns

import numpy as np

LAYERS = ("cli", "morse", "complexes", "linalg", "persistence", "sequences")
# (module, class, method, span name)
METHODS = (("sequences", "MayerVietorisSystem", "__init__", "sequences.MayerVietorisSystem"),
           ("sequences", "PairSystem", "__init__", "sequences.PairSystem"),
           ("sequences", "MayerVietorisSystem", "map_at", "sequences.MayerVietorisSystem.map_at"),
           ("sequences", "PairSystem", "map_at", "sequences.PairSystem.map_at"),
           ("linalg", "Subspace", "__init__", "linalg.Subspace"))

# inclusive times: a span counts only when no enclosing span is in the same group
INCLUSIVE = {
    "cli.load_complex_s": ("cli.load_complex",),
    "cli.load_membership_s": ("cli.load_membership",),
    "morse.validate_s": ("morse.validate_morse", "morse.critical_cells"),
    "morse.filtration_s": ("morse.filtration_from_morse", "morse.sublevel_filtration"),
    "complexes.boundary_matrix_s": ("complexes.boundary_matrix",
                                    "complexes.relative_boundary_matrix"),
    "complexes.intersect_s": ("complexes.intersect",),
    "persistence.compute_s": ("persistence.compute_persistence",
                              "persistence.relative_persistence"),
    "persistence.barcode_s": ("persistence.barcode",),
    "sequences.map_at_s": ("sequences.MayerVietorisSystem.map_at",
                           "sequences.PairSystem.map_at"),
    "sequences.persistent_s": ("sequences.persistent_sequence",),
    "sequences.module_s": ("sequences.module_sequence",),
    "sequences.ordinary_s": ("sequences.ordinary_sequence",),
    "sequences.check_squares_s": ("sequences.check_squares",),
    "sequences.audit_s": ("sequences.audit",),
    "linalg.row_reduce_s": ("linalg.row_reduce",),
    "linalg.solve_matrix_s": ("linalg.solve_matrix",),
}
CALLS = {
    "cli.load_complex_calls": INCLUSIVE["cli.load_complex_s"],
    "cli.load_membership_calls": INCLUSIVE["cli.load_membership_s"],
    "persistence.compute_calls": INCLUSIVE["persistence.compute_s"],
    "sequences.map_at_calls": INCLUSIVE["sequences.map_at_s"],
    "linalg.row_reduce_calls": ("linalg.row_reduce",),
    "linalg.solve_matrix_calls": ("linalg.solve_matrix",),
    "linalg.mat_mul_calls": ("linalg.mat_mul",),
    "linalg.subspace_init_calls": ("linalg.Subspace",),
}
SYSTEM_INIT = ("sequences.MayerVietorisSystem", "sequences.PairSystem")


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("i")
        self.counters = {"persistence.step_cells": 0, "linalg.row_reduce_cells": 0,
                         "linalg.row_reduce_max_cells": 0}
        self.map_keys: set = set()
        self._systems = weakref.WeakKeyDictionary()
        self._n_systems = 0
        self._stack: list[int] = []
        self.current_op = -1
        self._plan = None

    # -- recording -----------------------------------------------------------

    def _wrap(self, span_name: str, fn, count=None):
        name_id = len(self.names)
        self.names.append(span_name)
        stack, name_of, start, end, parent, op = (
            self._stack, self.name_of, self.start, self.end, self.parent, self.op)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(*args, **kwargs)
            idx = len(name_of)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            end.append(0)
            stack.append(idx)
            start.append(process_time_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = process_time_ns()
                stack.pop()
        return wrapper

    def _count_row_reduce(self, a, p):
        cells = int(a.shape[0]) * int(a.shape[1])
        self.counters["linalg.row_reduce_cells"] += cells
        if cells > self.counters["linalg.row_reduce_max_cells"]:
            self.counters["linalg.row_reduce_max_cells"] = cells

    def _step_cell_counter(self, fn):
        signature = inspect.signature(fn)

        def count(*args, **kwargs):
            filtration = signature.bind(*args, **kwargs).arguments["filtration"]
            self.counters["persistence.step_cells"] += sum(len(s) for s in filtration.steps)
        return count

    def _count_map_at(self, system, *key):
        serial = self._systems.get(system)
        if serial is None:
            serial = self._systems[system] = self._n_systems
            self._n_systems += 1
        self.map_keys.add((serial,) + key)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._plan is None:
            self._plan = self._make_plan()
        for holder, attr, _, wrapper in self._plan:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original, _ in reversed(self._plan or ()):
            setattr(holder, attr, original)

    def _make_plan(self) -> list[tuple[object, str, object, object]]:
        """(holder, attribute, original, wrapper) for every binding to replace."""
        modules = {name: sys.modules[f"homaudit.{name}"] for name in LAYERS}
        counters = {"linalg.row_reduce": lambda fn: self._count_row_reduce,
                    "persistence.compute_persistence": self._step_cell_counter,
                    "persistence.relative_persistence": self._step_cell_counter}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                count = counters[name](obj) if name in counters else None
                wrapped[id(obj)] = (obj, self._wrap(name, obj, count))
        plan = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "homaudit" and not mod_name.startswith("homaudit."):
                continue
            for attr, obj in vars(mod).items():
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    plan.append((mod, attr, obj, hit[1]))
        for layer, cls_name, meth, name in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[meth]
            count = self._count_map_at if meth == "map_at" else None
            plan.append((cls, meth, original, self._wrap(name, original, count)))
        return plan

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), name=np.array(self.name_of),
                            start=np.array(self.start), end=np.array(self.end),
                            parent=np.array(self.parent), op=np.array(self.op))

    # -- analysis ------------------------------------------------------------

    def layer_metrics(self, largest_ops: list[int], largest_ops_s: float) -> dict[str, float]:
        """Per-layer figures; `largest_ops` are the operation ids of the
        workload's largest operation class and `largest_ops_s` their time."""
        name = np.frombuffer(self.name_of, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        op = np.frombuffer(self.op, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)) / 1e9
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        self_time = dur - child_time
        ids = {n: i for i, n in enumerate(self.names)}

        def member(names) -> np.ndarray:
            return np.isin(name, [ids[n] for n in names if n in ids])

        def below(mask: np.ndarray) -> np.ndarray:
            """Spans with an enclosing span in `mask` (parents precede children)."""
            safe = np.where(has_parent, parent, 0)
            covered = has_parent & mask[safe]
            while True:
                step = covered | (has_parent & covered[safe])
                if np.array_equal(step, covered):
                    return covered
                covered = step

        out: dict[str, float] = {}
        for metric, names in INCLUSIVE.items():
            mask = member(names)
            out[metric] = float(dur[mask & ~below(mask)].sum())
        for metric, names in CALLS.items():
            out[metric] = int(member(names).sum())
        out.update(self.counters)
        calls = out["sequences.map_at_calls"]
        out["sequences.map_at_unique_ratio"] = len(self.map_keys) / calls if calls else 0.0
        init = member(SYSTEM_INIT)
        outer_init = init & ~below(init)
        comp = member(INCLUSIVE["persistence.compute_s"])
        out["sequences.system_build_self_s"] = float(
            dur[outer_init].sum() - dur[comp & ~below(comp) & below(init)].sum())
        for layer in LAYERS:
            mask = np.isin(name, [i for n, i in ids.items() if n.startswith(layer + ".")])
            out[f"{layer}.self_s"] = float(self_time[mask].sum())
        row_reduce = member(("linalg.row_reduce",))
        out["linalg.row_reduce_self_s"] = float(self_time[row_reduce].sum())
        in_largest = np.isin(op, largest_ops)
        out["largest_op.row_reduce_self_share"] = (
            float(self_time[row_reduce & in_largest].sum()) / largest_ops_s
            if largest_ops_s > 0 else 0.0)
        out["trace.spans"] = len(dur)
        return out

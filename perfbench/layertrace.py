"""Per-layer tracing from outside the program.

`Tracer.install()` replaces each traced function of `ppchars` by a wrapper
in every module that binds it, so that a caller that did `from .engine
import irreducible_degrees` calls the wrapper too.  Methods are replaced
on their class.  A wrapper records a span (name, parent span, start, end)
in memory; count-only wrappers bump a counter and record nothing else.
Spans are written out when the pass ends and turned into per-layer
metrics by `layer_metrics`.  Untraced passes never import this module.
"""

from __future__ import annotations

import importlib
import pkgutil
import time
from collections import Counter

# span name -> (module, attribute); "Class.method" patches the class
SPANS = {
    "engine.closure": ("ppchars.engine", "group_from_elements"),
    "engine.classes": ("ppchars.engine", "conjugacy_classes"),
    "engine.degrees": ("ppchars.engine", "irreducible_degrees"),
    "engine.table_load": ("ppchars.engine", "group_from_table"),
    "engine.validate": ("ppchars.engine", "FiniteGroup.validate"),
    "modlinalg.charpoly": ("ppchars.modlinalg", "charpoly"),
    "modlinalg.roots": ("ppchars.modlinalg", "distinct_roots"),
    "modlinalg.nullspace": ("ppchars.modlinalg", "nullspace"),
    "modlinalg.solve_in_span": ("ppchars.modlinalg", "solve_in_span"),
    "constructions.find_prime": ("ppchars.constructions", "find_construction_prime"),
    "constructions.build": ("ppchars.constructions", "build_gamma_l"),
    "constructions.action_validate": ("ppchars.constructions",
                                      "LinearGroupAction.validate"),
    "constructions.clifford": ("ppchars.constructions", "clifford_pprime_count"),
    "constructions.inertia": ("ppchars.constructions", "_subgroup_from_indices"),
    "lie_bounds.classical": ("ppchars.lie_bounds", "classical_inequality_check"),
    "lie_bounds.table1": ("ppchars.lie_bounds", "table1_report"),
    "lie_bounds.table2": ("ppchars.lie_bounds", "verify_table2"),
    "lie_bounds.defining": ("ppchars.lie_bounds", "defining_char_check"),
    "lie_bounds.e8_d1": ("ppchars.lie_bounds", "e8_d1_check"),
    "torus_search.reconcile": ("ppchars.torus_search", "reconcile_with_theorem"),
    "symmetric.verify": ("ppchars.symmetric", "verify_symmetric_bounds"),
    "symmetric.oracle": ("ppchars.symmetric", "irr_pprime_count_sym_oracle"),
    "partitions.split_count": ("ppchars.partitions", "split_count"),
    "landau.factorize": ("ppchars.landau", "factorize"),
    "report.emit": ("ppchars.report", "Report.to_json"),
}

# called too often for a span each; only their calls are counted
COUNTS = {
    "landau.is_prime": ("ppchars.landau", "is_prime"),
    "lie_bounds.grid_points": ("ppchars.lie_bounds", "_check_point"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: Counter = Counter()
        self.notes: list[tuple] = []  # (key, value) from result hooks
        self._stack: list[int] = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()
            if hook is not None:
                self.notes.extend(hook(args, result))
            return result

        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        import ppchars

        modules = [importlib.import_module(f"ppchars.{info.name}")
                   for info in pkgutil.iter_modules(ppchars.__path__)]
        modules.append(ppchars)
        for table, make in ((SPANS, self._make_span), (COUNTS, self._count_wrapper)):
            for name, (module_name, attr) in table.items():
                owner = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    setattr(cls, method, make(name, getattr(cls, method)))
                    continue
                original = getattr(owner, attr)
                wrapper = make(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)

    def _make_span(self, name, fn):
        return self._span_wrapper(name, fn, _HOOKS.get(name))

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "notes": self.notes}


# -- result hooks: counts read off arguments and return values ------------

def _closure_hook(args, result):
    yield "elements", result.order


def _roots_hook(args, result):
    yield "nosplit", int(len(result) <= 1)


def _clifford_hook(args, result):
    action = args[0]
    yield "dual_vectors", action.ell ** action.dim
    yield "dual_orbits", len(result.orbit_rows)


def _inertia_hook(args, result):
    yield "inertia_key", hash(tuple(args[1]))


_HOOKS = {
    "engine.closure": _closure_hook,
    "modlinalg.roots": _roots_hook,
    "constructions.clifford": _clifford_hook,
    "constructions.inertia": _inertia_hook,
}


# -- metrics ---------------------------------------------------------------

def _time_and_self(spans):
    """Per name: total time of outermost spans of that name, total self
    time (span minus the children it covers), and call count."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total, self_time, calls = Counter(), Counter(), Counter()
    for idx, (name, parent, start, end) in enumerate(spans):
        calls[name] += 1
        self_time[name] += (end - start) - child_time[idx]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][1]
        if ancestor < 0:
            total[name] += end - start
    return total, self_time, calls


def layer_metrics(dump: dict) -> dict:
    """Per-layer metrics (name -> (value, unit)) from one traced pass."""
    spans, counts, notes = dump["spans"], dump["counts"], dump["notes"]
    total, self_time, calls = _time_and_self(spans)
    noted = Counter()
    inertia_keys = set()
    for key, value in notes:
        if key == "inertia_key":
            inertia_keys.add(value)
        else:
            noted[key] += value

    def seconds(*names):
        return sum(total[n] for n in names), "s"

    def count(value):
        return value, "count"

    def frac(num, den):
        return (num / den if den else 0.0), "frac"

    return {
        "engine.closure_s": seconds("engine.closure"),
        "engine.closure_calls": count(calls["engine.closure"]),
        "engine.elements": count(noted["elements"]),
        "engine.classes_s": seconds("engine.classes"),
        "engine.classes_calls": count(calls["engine.classes"]),
        "engine.degrees_s": seconds("engine.degrees"),
        "engine.degrees_self_s": (self_time["engine.degrees"], "s"),
        "engine.degrees_calls": count(calls["engine.degrees"]),
        "modlinalg.charpoly_s": seconds("modlinalg.charpoly"),
        "modlinalg.charpoly_calls": count(calls["modlinalg.charpoly"]),
        "modlinalg.roots_s": seconds("modlinalg.roots"),
        "modlinalg.nosplit_frac": frac(noted["nosplit"], calls["modlinalg.roots"]),
        "modlinalg.nullspace_s": seconds("modlinalg.nullspace"),
        "modlinalg.nullspace_calls": count(calls["modlinalg.nullspace"]),
        "modlinalg.solve_in_span_s": seconds("modlinalg.solve_in_span"),
        "engine.table_load_s": (self_time["engine.table_load"], "s"),
        "engine.validate_s": seconds("engine.validate"),
        "engine.validate_calls": count(calls["engine.validate"]),
        "constructions.find_prime_s": seconds("constructions.find_prime"),
        "constructions.build_s": seconds("constructions.build"),
        "constructions.action_validate_s": seconds("constructions.action_validate"),
        "constructions.clifford_s": seconds("constructions.clifford"),
        "constructions.clifford_self_s": (self_time["constructions.clifford"], "s"),
        "constructions.dual_vectors": count(noted["dual_vectors"]),
        "constructions.dual_orbits": count(noted["dual_orbits"]),
        "constructions.inertia_calls": count(calls["constructions.inertia"]),
        "constructions.inertia_distinct_ratio": frac(
            len(inertia_keys), calls["constructions.inertia"]),
        "lie_bounds.classical_s": seconds("lie_bounds.classical"),
        "lie_bounds.grid_points": count(counts.get("lie_bounds.grid_points", 0)),
        "lie_bounds.other_s": seconds("lie_bounds.table1", "lie_bounds.table2",
                                      "lie_bounds.defining", "lie_bounds.e8_d1"),
        "torus_search.reconcile_s": seconds("torus_search.reconcile"),
        "symmetric.verify_s": seconds("symmetric.verify"),
        "symmetric.oracle_s": seconds("symmetric.oracle"),
        "partitions.split_count_s": seconds("partitions.split_count"),
        "partitions.split_count_calls": count(calls["partitions.split_count"]),
        "landau.is_prime_calls": count(counts.get("landau.is_prime", 0)),
        "landau.factorize_s": seconds("landau.factorize"),
        "report.emit_s": seconds("report.emit"),
    }

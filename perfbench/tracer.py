"""Out-of-program span collector for the traced benchmark run.

The benchmark replaces each public function of a layer in every
``hyperbelief`` module namespace that holds it, and wraps class constructors
through ``__post_init__``; the package source is not touched.  Each wrapped
call records its duration and its self time (duration minus the time its
wrapped children cover), plus work counts read from its arguments and
result.  Non-leaf calls also keep a span (name, start, end, parent, op) in
memory; the spans are written out when the run ends.  The hot leaves
(``HOT``) would make hundreds of thousands of spans per op, so they are
summed into counters per parent name instead.
"""

from __future__ import annotations

import importlib
import json
import sys
from math import prod
from time import perf_counter_ns


def _tuples(args, kwargs, result):
    return {"tuples": prod(len(b.masses) for b in args[0])}


def _hybrid(args, kwargs, result):
    return {**_tuples(args, kwargs, result), "focals_out": len(result.result.masses)}


def _terms_in(args, kwargs):
    return {"terms_in": len(args[0].terms)}


def _checks(args, kwargs):
    return {"term_constraint_checks": len(args[0].terms) * len(args[1].empty_intersections)}


# layer.name -> (module, attribute, counts before the call, counts after it);
# every layer also reports calls and self_ms
LAYERS = {
    "cli.main": ("cli", "main", None, None),
    "cli.parse_scenario": ("cli", "parse_scenario", None, None),
    "cli.emit_report": ("cli", "emit_report", None, lambda a, k, r: {"bytes_out": len(r.encode("utf-8"))}),
    "rulebase.run_scenario": ("rulebase", "run_scenario", None, None),
    "rulebase.rule_to_conditional_bba": ("rulebase", "rule_to_conditional_bba", None, None),
    "rulebase.observation_to_bba": ("rulebase", "observation_to_bba", None, None),
    "analysis.indifference_estimates": ("analysis", "indifference_estimates", None, None),
    "belief.BBA": ("belief", "BBA.__post_init__", None, None),
    "belief.conjunctive_combine": ("belief", "conjunctive_combine", None, _tuples),
    "belief.dempster_combine": ("belief", "dempster_combine", None, None),
    "belief.dsm_hybrid_combine": ("belief", "dsm_hybrid_combine", None, _hybrid),
    "belief.belief": ("belief", "belief", None, None),
    "belief.plausibility": ("belief", "plausibility", None, None),
    "lattice.Proposition": ("lattice", "Proposition.__post_init__", _terms_in, None),
    "lattice.Model": ("lattice", "Model.__post_init__", None, lambda a, k, r: {"constraints": len(a[0].empty_intersections)}),
    "lattice.conjoin": ("lattice", "conjoin", None, None),
    "lattice.disjoin": ("lattice", "disjoin", None, None),
    "lattice.leq": ("lattice", "leq", None, None),
    "lattice.reduce_under_model": ("lattice", "reduce_under_model", _checks, None),
    "lattice.refine_to_atoms": ("lattice", "refine_to_atoms", None, lambda a, k, r: {"atoms_out": len(r)}),
    "lattice.enumerate_hyper_power_set": ("lattice", "enumerate_hyper_power_set", None, lambda a, k, r: {"count": len(r)}),
}
COUNTS = {
    "cli.emit_report": ("bytes_out",),
    "belief.conjunctive_combine": ("tuples",),
    "belief.dsm_hybrid_combine": ("tuples", "focals_out"),
    "lattice.Proposition": ("terms_in",),
    "lattice.Model": ("constraints",),
    "lattice.reduce_under_model": ("term_constraint_checks",),
    "lattice.refine_to_atoms": ("atoms_out",),
    "lattice.enumerate_hyper_power_set": ("count",),
}
HOT = frozenset(
    {"lattice.Proposition", "lattice.reduce_under_model", "lattice.conjoin", "lattice.disjoin", "lattice.leq"}
)


class Tracer:
    def __init__(self):
        self.stats: dict[str, dict[str, int]] = {}
        self.spans: list = []
        self.rollup: dict[tuple[str, str], list[int]] = {}
        self.op: int | None = None
        # open calls: [name, span index or None, ns covered by children]
        self._open: list[list] = [["op", None, 0]]
        self._undo: list = []

    def _wrap(self, name: str, fn, before, after):
        stats = self.stats[name] = dict.fromkeys(("calls", "self_ns", *COUNTS.get(name, ())), 0)
        hot = name in HOT
        spans, rollup, open_calls = self.spans, self.rollup, self._open

        def wrapper(*args, **kwargs):
            counts = before(args, kwargs) if before else None
            parent = open_calls[-1]
            if hot:
                frame = [name, None, 0]
            else:
                frame = [name, len(spans), 0]
                spans.append(None)
            open_calls.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                open_calls.pop()
                duration = end - start
                parent[2] += duration
                stats["calls"] += 1
                stats["self_ns"] += duration - frame[2]
                if hot:
                    cell = rollup.setdefault((parent[0], name), [0, 0])
                    cell[0] += 1
                    cell[1] += duration
                else:
                    spans[frame[1]] = (name, start, end, parent[1], self.op)
            if after:
                counts = after(args, kwargs, result)
            if counts:
                for key, value in counts.items():
                    stats[key] += value
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "hyperbelief" or n.startswith("hyperbelief.")]
        for name, (module_name, attribute, before, after) in LAYERS.items():
            module = importlib.import_module(f"hyperbelief.{module_name}")
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self._wrap(name, original, before, after))
                self._undo.append((cls, method, original))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(name, original, before, after)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._undo.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"hot_leaves_summed_per_parent": sorted(HOT)}) + "\n")
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps([name, start, end, parent, op]) + "\n")
            for (parent, name), (calls, ns) in sorted(self.rollup.items()):
                handle.write(json.dumps({"parent": parent, "leaf": name, "calls": calls, "ns": ns}) + "\n")

    def metrics(self) -> dict[str, float]:
        out = {}
        for name, stats in self.stats.items():
            for key, value in stats.items():
                if key == "self_ns":
                    out[f"{name}.self_ms"] = value / 1e6
                else:
                    out[f"{name}.{key}"] = value
        return out

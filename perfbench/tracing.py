"""Per-layer spans taken from outside the program.

The tracer wraps public propcalc functions, classes and methods; it changes no
file under src/.  A free function is replaced at every binding site, found by
scanning each loaded propcalc module dict for identity with the original
function object.  A constructor or method is replaced on the class itself.

Spans are kept in memory as [name, start, end, parent, op, tracer_s, counters]
and written out as JSON lines at the end of a run.  `tracer_s` is the time the
tracer spent computing size counters inside the span (its own and its
descendants'); layer times subtract it.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time

# (span name, module, attribute path); a dotted path names a class or a method.
SPANS = (
    ("cli.run", "cli", "run"),
    ("formats.Workspace.resolve", "formats", "Workspace.resolve"),
    ("formats.dumps", "formats", "dumps"),
    ("linalg.row_echelon", "linalg", "row_echelon"),
    ("linalg.mat_mul", "linalg", "mat_mul"),
    ("chains.ChainComplex", "chains", "ChainComplex"),
    ("chains.ChainMap", "chains", "ChainMap"),
    ("chains.TensorSpace", "chains", "TensorSpace"),
    ("chains.assemble_tensor_map", "chains", "assemble_tensor_map"),
    ("chains.factor_permutation_map", "chains", "factor_permutation_map"),
    ("chains.LiftProblem.solve", "chains", "LiftProblem.solve"),
    ("exprs.parse", "exprs", "parse"),
    ("exprs.validate_presentation", "exprs", "validate_presentation"),
    ("graphs.PropGraph", "graphs", "PropGraph"),
    ("graphs.PropGraph.canonical", "graphs", "PropGraph.canonical"),
    ("graphs.enumerate_graphs", "graphs", "enumerate_graphs"),
    ("profiles.canonicalize_profile", "profiles", "canonicalize_profile"),
    ("profiles.stabilizer_elements", "profiles", "stabilizer_elements"),
    ("bimodules.coinvariant_quotient", "bimodules", "coinvariant_quotient"),
    ("bimodules.placements", "bimodules", "placements"),
    ("bimodules.box_dot_many", "bimodules", "box_dot_many"),
    ("endo.endo_component", "endo", "endo_component"),
    ("endo.endo_vertical", "endo", "endo_vertical"),
    ("endo.endo_horizontal", "endo", "endo_horizontal"),
    ("endo.endo_permute", "endo", "endo_permute"),
    ("algebras.check_algebra", "algebras", "check_algebra"),
    ("algebras.check_morphism", "algebras", "check_morphism"),
    ("operads.compose_elements", "operads", "compose_elements"),
    ("operads.EndoPropData.component", "operads", "EndoPropData.component"),
    ("operads.EndoPropData.rho", "operads", "EndoPropData.rho"),
    ("operads.OPropData", "operads", "OPropData"),
    ("operads.ColoredOperad.validate", "operads", "ColoredOperad.validate"),
)


# Which end-to-end metrics each layer's spans should move, on which workloads,
# and the workloads where those metrics should stay unchanged.  A span entry
# ending in "." is a prefix.  The self-test requires every span of a row to be
# called on each workload of its "move on" column.
LAYER_MAP = (
    (("linalg.row_echelon", "chains.LiftProblem.solve"),
     ("latency_p90_ms", "ops_per_s"), ("transfer",), ("words",)),
    (("linalg.row_echelon", "bimodules.coinvariant_quotient"),
     ("ops_per_s",), ("products",), ("words",)),
    (("chains.ChainComplex", "chains.ChainMap", "chains.TensorSpace", "linalg.mat_mul"),
     ("ops_per_s", "latency_p50_ms", "peak_rss_mb"), ("transfer", "operads"), ("words",)),
    (("graphs.", "exprs.parse"),
     ("latency_p50_ms", "latency_p90_ms"), ("words",), ("products", "operads")),
    (("profiles.", "bimodules.placements", "bimodules.box_dot_many"),
     ("ops_per_s", "peak_rss_mb"), ("products",), ("transfer", "words")),
    (("formats.dumps",),
     ("latency_p90_ms", "peak_rss_mb"), ("products",), ("words",)),
    (("formats.Workspace.resolve",),
     ("latency_p50_ms",), ("operads",), ("words",)),
    (("operads.", "endo.endo_component"),
     ("ops_per_s", "latency_p90_ms"), ("operads",), ("words", "products")),
    (("endo.endo_vertical", "endo.endo_horizontal", "algebras.check_algebra", "algebras.check_morphism"),
     ("latency_p50_ms",), ("transfer",), ("products",)),
)


def spans_of(entries):
    """The span names a LAYER_MAP row names."""
    return [
        span for span, _, _ in SPANS
        if any(span == e or e.endswith(".") and span.startswith(e) for e in entries)
    ]


# -- size counters, read from arguments and results at the span boundary --------


def _nnz(m):
    return sum(1 for row in m for x in row if x != 0)


def _cells(m):
    return len(m) * (len(m[0]) if m else 0)


def _complex_key(x):
    return (
        tuple(sorted(x.dims.items())),
        tuple((n, tuple(map(tuple, m))) for n, m in sorted(x.boundary.items())),
    )


def _family_key(family):
    return tuple((c, _complex_key(x)) for c, x in sorted(family.complexes.items()))


def _row_echelon(args, kwargs, result, distinct):
    return {"pivots": len(result[0])}


def _row_echelon_before(args, kwargs):
    # row_echelon works in place, so its input is measured before the call
    m = args[0]
    return {"cells": _cells(m), "nnz": _nnz(m)}


def _mat_mul(args, kwargs, result, distinct):
    a, b = args[0], args[1]
    row_nnz = [sum(1 for x in row if x != 0) for row in b]
    return {"mults": sum(row_nnz[k] for row in a for k, x in enumerate(row) if x != 0)}


def _chain_complex(args, kwargs, result, distinct):
    boundary = args[2] if len(args) > 2 else kwargs.get("boundary")
    return {"entries": sum(_cells(m) for m in dict(boundary or {}).values())}


def _chain_map(args, kwargs, result, distinct):
    mats = args[3] if len(args) > 3 else kwargs.get("mats", {})
    return {"entries": sum(_cells(m) for m in dict(mats).values())}


def _tensor_space(args, kwargs, result, distinct):
    factors = args[1] if len(args) > 1 else kwargs["factors"]
    distinct.add(tuple(_complex_key(f) for f in factors))
    return {}


def _lift_solve(args, kwargs, result, distinct):
    prob = args[0]
    unknowns = sum(r * c for _, r, c in prob.var_blocks())
    rows = sum(er * ec for _, _, er, ec in prob.equations)
    return {"unknowns": unknowns, "rows": rows}


def _enumerate_graphs(args, kwargs, result, distinct):
    return {"results": len(result)}


def _canonical(args, kwargs, result, distinct):
    return {"vertices": len(args[0].vertices)}


def _stabilizer_elements(args, kwargs, result, distinct):
    return {"count": len(result)}


def _coinvariant_quotient(args, kwargs, result, distinct):
    space, relation_maps = args[0], args[1]
    return {"relations": len(relation_maps) * space.total_dim(), "quotient_dim": result[0].total_dim()}


def _placements(args, kwargs, result, distinct):
    return {"count": len(result)}


def _endo_component(args, kwargs, result, distinct):
    family, out_p, in_p = args[0], args[1], args[2]
    distinct.add((_family_key(family), out_p.entries, in_p.entries))
    return {}


def _compose_elements(args, kwargs, result, distinct):
    p, q_els = args[0], args[1]
    size = len(p.coords)
    for q in q_els:
        size *= len(q.coords)
    return {"tensor_dim": size}


def _endo_prop_component(args, kwargs, result, distinct):
    data, d, in_key = args[0], args[1], args[2]
    distinct.add((_family_key(data.family), d, in_key.rep.entries))
    return {}


def _resolve(args, kwargs, result, distinct):
    ws, name = args[0], args[1]
    path = name if os.path.exists(name) else os.path.join(ws.directory or "", name)
    if not os.path.exists(path):
        path += ".json"
    return {"bytes": os.path.getsize(path)}


def _dumps(args, kwargs, result, distinct):
    return {"bytes": len(result)}


COUNTERS = {
    "linalg.row_echelon": (("cells", "nnz", "pivots"), _row_echelon),
    "linalg.mat_mul": (("mults",), _mat_mul),
    "chains.ChainComplex": (("entries",), _chain_complex),
    "chains.ChainMap": (("entries",), _chain_map),
    "chains.TensorSpace": (("distinct",), _tensor_space),
    "chains.LiftProblem.solve": (("unknowns", "rows"), _lift_solve),
    "graphs.enumerate_graphs": (("results",), _enumerate_graphs),
    "graphs.PropGraph.canonical": (("vertices",), _canonical),
    "profiles.stabilizer_elements": (("count",), _stabilizer_elements),
    "bimodules.coinvariant_quotient": (("relations", "quotient_dim"), _coinvariant_quotient),
    "bimodules.placements": (("count",), _placements),
    "endo.endo_component": (("distinct",), _endo_component),
    "operads.compose_elements": (("tensor_dim",), _compose_elements),
    "operads.EndoPropData.component": (("distinct",), _endo_prop_component),
    "formats.Workspace.resolve": (("bytes",), _resolve),
    "formats.dumps": (("bytes",), _dumps),
}

# counters that are measured on the arguments before the call
BEFORE = {"linalg.row_echelon": _row_echelon_before}


def metric_names():
    """Every per-layer metric name the tracer reports, in a fixed order."""
    names = []
    for span, _, _ in SPANS:
        names += [span + ".calls", span + ".s", span + ".self_s"]
        for counter in COUNTERS.get(span, ((), None))[0]:
            names.append(span + "." + counter)
    return names


class Tracer:
    """Installs span wrappers, keeps spans in memory, aggregates them per layer."""

    def __init__(self):
        self.modules = {}
        self.sites = {}  # span name -> list of (owner, attribute, original)
        self.spans = []
        self.stack = []
        self.active = False
        self.op = None
        self.distinct = {}

    # -- installation ----------------------------------------------------------

    def install(self):
        self.modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "propcalc" or name.startswith("propcalc."))
        }
        for span, mod_name, path in SPANS:
            owner = self.modules["propcalc." + mod_name]
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
            sites = []
            if isinstance(original, type):
                # a class: wrap its constructor on the class itself
                init = original.__init__
                original.__init__ = self._wrap(span, init)
                sites.append((original, "__init__", init))
            elif len(parts) > 1:
                # a method: wrap it on the class itself
                setattr(owner, parts[-1], self._wrap(span, original))
                sites.append((owner, parts[-1], original))
            else:
                wrapper = self._wrap(span, original)
                for mod in self.modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            sites.append((mod, attr, original))
            self.sites[span] = sites

    def uninstall(self):
        for sites in self.sites.values():
            for owner, attr, original in sites:
                setattr(owner, attr, original)
        self.sites = {}

    def _wrap(self, name, fn):
        tracer = self
        counter = COUNTERS.get(name, (None, None))[1]
        before = BEFORE.get(name)
        distinct = self.distinct.setdefault(name, set())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, 0.0, None]
            index = len(tracer.spans)
            tracer.spans.append(record)
            stack.append(index)
            pre = None
            if before is not None:
                c0 = time.perf_counter()
                pre = before(args, kwargs)
                record[5] += time.perf_counter() - c0
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                c0 = time.perf_counter()
                counts = counter(args, kwargs, result, distinct)
                if pre is not None:
                    counts.update(pre)
                record[6] = counts
                record[5] += time.perf_counter() - c0
            return result

        return wrapper

    # -- aggregation -----------------------------------------------------------

    def layer_metrics(self):
        """calls, inclusive seconds, self seconds and counters per span name.

        A span's duration excludes counter time inside it; inclusive time
        counts only spans without an ancestor of the same name.
        """
        spans = self.spans
        hidden = [r[5] for r in spans]
        # children come after their parents, so one reverse pass propagates
        for i in range(len(spans) - 1, -1, -1):
            parent = spans[i][3]
            if parent >= 0:
                hidden[parent] += hidden[i]
        duration = [r[2] - r[1] - (hidden[i] - r[5]) for i, r in enumerate(spans)]
        child_time = [0.0] * len(spans)
        for i, r in enumerate(spans):
            if r[3] >= 0:
                child_time[r[3]] += duration[i]
        totals = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name, _, _ in SPANS}
        for name, (counters, _) in COUNTERS.items():
            for c in counters:
                totals[name][c] = 0
        for i, r in enumerate(spans):
            t = totals[r[0]]
            t["calls"] += 1
            t["self_s"] += duration[i] - child_time[i]
            if not self._nested_in_same(i):
                t["s"] += duration[i]
            if r[6]:
                for k, v in r[6].items():
                    t[k] += v
        for name, keys in self.distinct.items():
            if "distinct" in totals[name]:
                totals[name]["distinct"] = len(keys)
        return totals

    def _nested_in_same(self, i):
        name = self.spans[i][0]
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def reset(self):
        self.spans = []
        self.stack = []
        for keys in self.distinct.values():
            keys.clear()

    def write(self, path):
        """All spans as gzipped JSON lines: name, start, end, parent, op, tracer_s, counters."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as handle:
            for i, (name, start, end, parent, op, tracer_s, counters) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": round(start - t0, 9),
                            "end": round(end - t0, 9),
                            "parent": parent,
                            "op": op,
                            "tracer_s": round(tracer_s, 9),
                            "counters": counters or {},
                        }
                    )
                    + "\n"
                )

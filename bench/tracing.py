"""Span tracing of the cthh layers, installed from outside the package.

Each public function a layer exports is replaced, at every name under which
the cthh modules can reach it, by a wrapper that records a span: name, layer,
parent span, start, end, and counts read from its arguments and result.  The
hottest leaves of the linear-algebra layer (`rref_frac`, `rref_mod`,
`Echelon.add`, `det_int`) run thousands of times per quiver, so they record no
span of their own; their calls, time and cells are added to the enclosing span
instead.  Spans stay in memory and are written as JSONL when the run ends.
"""

from __future__ import annotations

import json
import sys
import time

# (module, function) pairs traced as spans.  The layer is the module name.
FUNCTIONS = [
    ("cthh.quiver", "enumerate_class"),
    ("cthh.quiver", "detect_dynkin"),
    ("cthh.relations", "generate_relations"),
    ("cthh.algebra", "build_algebra"),
    ("cthh.algebra", "cartan"),
    ("cthh.linalg", "pencil_det"),
    ("cthh.oracle", "hh_dims"),
    ("cthh.oracle", "hh1_dim"),
    ("cthh.oracle", "center_dim"),
    ("cthh.classify", "hh_closed_form"),
    ("cthh.classify", "classify_D"),
    ("cthh.classify", "lookup_E"),
    ("cthh.series", "hh_dim"),
    ("cthh.verify", "verify_suite"),
    ("cthh.verify", "check_quiver"),
    ("cthh.cli", "main"),
]
METHODS = [
    ("cthh.oracle", "BimoduleResolution", "extend_once"),
    ("cthh.oracle", "BimoduleResolution", "hom_differential_rank"),
]
# Leaves aggregated into the enclosing span: (module, owner or None, name).
LEAVES = [
    ("cthh.linalg", None, "rref_frac"),
    ("cthh.linalg", None, "rref_mod"),
    ("cthh.linalg", None, "det_int"),
    ("cthh.linalg", "Echelon", "add"),
]
LAYERS = ("quiver", "relations", "algebra", "linalg", "oracle", "classify",
          "series", "verify", "cli")


def _build_char(args, kwargs):
    fieldspec = args[2] if len(args) > 2 else kwargs.get("fieldspec")
    return fieldspec.characteristic if fieldspec is not None else 0


def _attrs(name, args, kwargs, result):
    """Counts read from a call's arguments and returned object."""
    if name == "build_algebra":
        return {"char": result.field.characteristic, "dim": result.dimension}
    if name == "generate_relations":
        return {"relations": len(result)}
    if name == "check_quiver":
        return {"passed": result.passed}
    if name == "main":
        return {"rc": result}
    if name == "extend_once":
        res = args[0]
        out = {"levels": 1, "gens": len(res.levels[-1].gens), "dim": res.levels[-1].dim}
        if len(res.levels) == 2:  # first step: also count level 0
            out["levels"] += 1
            out["gens"] += len(res.levels[0].gens)
            out["dim"] += res.levels[0].dim
        return out
    return None


class Tracer:
    """In-memory span recorder; `install` patches cthh, `uninstall` restores it."""

    def __init__(self):
        self.spans = []       # [name, layer, parent, start, end, attrs, leaf aggregates]
        self.stack = [-1]
        self.leaf_totals = {}  # name -> [calls, seconds, cells]
        self._patches = []

    # -- recording -----------------------------------------------------
    def open(self, name, layer):
        idx = len(self.spans)
        self.spans.append([name, layer, self.stack[-1], time.perf_counter(), None, None, None])
        self.stack.append(idx)
        return idx

    def close(self, idx, attrs=None):
        span = self.spans[idx]
        span[4] = time.perf_counter()
        span[5] = attrs
        self.stack.pop()

    def _leaf(self, name, seconds, cells):
        parent = self.stack[-1]
        tot = self.leaf_totals.setdefault(name, [0, 0.0, 0])
        tot[0] += 1
        tot[1] += seconds
        tot[2] += cells
        if parent >= 0:
            agg = self.spans[parent][6]
            if agg is None:
                agg = self.spans[parent][6] = {}
            a = agg.setdefault(name, [0, 0.0])
            a[0] += 1
            a[1] += seconds

    # -- patching ------------------------------------------------------
    def _span_wrapper(self, orig, name, layer):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name, layer)
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                attrs = {"error": type(exc).__name__}
                if name == "build_algebra":
                    attrs["char"] = _build_char(args, kwargs)
                tracer.close(idx, attrs)
                raise
            tracer.close(idx, _attrs(name, args, kwargs, result))
            return result

        traced.__wrapped__ = orig
        return traced

    def _leaf_wrapper(self, orig, name):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                cells = 0
                if name.startswith("rref"):
                    rows, ncols = args[0], args[1]
                    cells = len(rows) * ncols
                tracer._leaf(name, clock() - t0, cells)

        traced.__wrapped__ = orig
        return traced

    def _replace_everywhere(self, orig, wrapper):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "cthh" or modname.startswith("cthh.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, orig))

    def install(self):
        for modname, fname in FUNCTIONS:
            orig = getattr(sys.modules[modname], fname)
            layer = modname.split(".")[1]
            self._replace_everywhere(orig, self._span_wrapper(orig, fname, layer))
        for modname, cls, meth in METHODS:
            owner = getattr(sys.modules[modname], cls)
            orig = vars(owner)[meth]
            setattr(owner, meth, self._span_wrapper(orig, meth, modname.split(".")[1]))
            self._patches.append((owner, meth, orig))
        for modname, cls, name in LEAVES:
            mod = sys.modules[modname]
            if cls is None:
                orig = getattr(mod, name)
                self._replace_everywhere(orig, self._leaf_wrapper(orig, name))
            else:
                owner = getattr(mod, cls)
                orig = vars(owner)[name]
                setattr(owner, name, self._leaf_wrapper(orig, f"{cls}.{name}"))
                self._patches.append((owner, name, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- output --------------------------------------------------------
    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, layer, parent, start, end, attrs, agg) in enumerate(self.spans):
                doc = {"id": i, "parent": parent, "name": name, "layer": layer,
                       "start": start, "end": end}
                if attrs:
                    doc["attrs"] = attrs
                if agg:
                    doc["leaves"] = agg
                fh.write(json.dumps(doc) + "\n")


def self_times(tracer):
    """Per-span self time: duration minus child spans and aggregated leaves."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, layer, parent, start, end, attrs, agg in spans:
        if parent >= 0:
            child[parent] += end - start
    out = []
    for i, (name, layer, parent, start, end, attrs, agg) in enumerate(spans):
        leaf = sum(a[1] for a in agg.values()) if agg else 0.0
        out.append(end - start - child[i] - leaf)
    return out


def layer_metrics(tracer, quivers):
    """The per-layer metrics of one traced pass over `quivers` quivers."""
    spans = tracer.spans
    selfs = self_times(tracer)
    by = {}
    for i, (name, layer, parent, start, end, attrs, agg) in enumerate(spans):
        e = by.setdefault(name, {"calls": 0, "s": 0.0, "self": 0.0, "spans": []})
        e["calls"] += 1
        e["s"] += end - start
        e["self"] += selfs[i]
        e["spans"].append(attrs or {})

    def calls(n):
        return by.get(n, {}).get("calls", 0)

    def secs(n):
        return by.get(n, {}).get("s", 0.0)

    def attr_sum(n, key):
        return sum(a.get(key, 0) for a in by.get(n, {}).get("spans", ()))

    leaf = tracer.leaf_totals

    def leaf_get(n, k):
        return leaf.get(n, [0, 0.0, 0])[k]

    qq_s = sum(end - start for name, _, _, start, end, attrs, _ in spans
               if name == "build_algebra" and attrs and attrs.get("char") == 0)
    gfp_s = sum(end - start for name, _, _, start, end, attrs, _ in spans
                if name == "build_algebra" and attrs and attrs.get("char", 0) != 0)
    d_fallbacks = sum(1 for a in by.get("classify_D", {}).get("spans", ())
                      if a.get("error") == "UnclassifiedDError")
    d_hits = sum(1 for a in by.get("classify_D", {}).get("spans", ()) if "error" not in a)
    per_q = max(quivers, 1)

    total_wall = sum(end - start for _, _, parent, start, end, _, _ in spans if parent < 0)
    layer_self = {name: 0.0 for name in LAYERS}
    for i, span in enumerate(spans):
        if span[1] in layer_self:
            layer_self[span[1]] += selfs[i]
    for name, (_, seconds, _) in leaf.items():
        layer_self["linalg"] += seconds

    m = {
        "quiver.enumerate_class_s": secs("enumerate_class"),
        "quiver.detect_dynkin_s": secs("detect_dynkin"),
        "quiver.detect_dynkin_calls": calls("detect_dynkin"),
        "relations.generate_relations_s": secs("generate_relations"),
        "relations.relations": attr_sum("generate_relations", "relations"),
        "algebra.build_algebra_qq_s": qq_s,
        "algebra.build_algebra_gfp_s": gfp_s,
        "algebra.build_algebra_calls": calls("build_algebra"),
        "algebra.builds_per_quiver": calls("build_algebra") / per_q,
        "algebra.dimension_sum": attr_sum("build_algebra", "dim"),
        "algebra.cartan_s": secs("cartan"),
        "algebra.cartan_calls_per_quiver": calls("cartan") / per_q,
        "linalg.rref_frac_s": leaf_get("rref_frac", 1),
        "linalg.rref_frac_calls": leaf_get("rref_frac", 0),
        "linalg.rref_frac_cells": leaf_get("rref_frac", 2),
        "linalg.rref_mod_s": leaf_get("rref_mod", 1),
        "linalg.rref_mod_calls": leaf_get("rref_mod", 0),
        "linalg.rref_mod_cells": leaf_get("rref_mod", 2),
        "linalg.echelon_add_calls": leaf_get("Echelon.add", 0),
        "linalg.echelon_s": leaf_get("Echelon.add", 1),
        "linalg.det_s": leaf_get("det_int", 1) + by.get("pencil_det", {}).get("self", 0.0),
        "oracle.hh_dims_s": secs("hh_dims"),
        "oracle.extend_once_s": secs("extend_once"),
        "oracle.resolution_levels": attr_sum("extend_once", "levels"),
        "oracle.resolution_generators": attr_sum("extend_once", "gens"),
        "oracle.resolution_total_dim": attr_sum("extend_once", "dim"),
        "oracle.hom_differential_rank_s": secs("hom_differential_rank"),
        "oracle.hh1_dim_s": secs("hh1_dim"),
        "oracle.hh1_calls_per_quiver": calls("hh1_dim") / per_q,
        "oracle.center_dim_s": secs("center_dim"),
        "classify.hh_closed_form_self_s": by.get("hh_closed_form", {}).get("self", 0.0),
        "classify.classify_D_s": secs("classify_D"),
        "classify.d_pattern_hits": d_hits,
        "classify.d_pattern_fallbacks": d_fallbacks,
        "classify.d_pattern_hit_ratio": d_hits / (d_hits + d_fallbacks) if d_hits + d_fallbacks else 0.0,
        "classify.lookup_E_calls": calls("lookup_E"),
        "series.hh_dim_s": secs("hh_dim"),
        "series.hh_dim_calls": calls("hh_dim"),
        "verify.check_quiver_s": secs("check_quiver"),
        "verify.records_failed": sum(1 for a in by.get("check_quiver", {}).get("spans", ())
                                     if a.get("passed") is False),
        "cli.self_s": by.get("main", {}).get("self", 0.0),
    }
    for name in LAYERS:
        m[f"{name}.self_share"] = layer_self[name] / total_wall if total_wall else 0.0
    return m

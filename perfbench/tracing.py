"""Span tracing of nervekit's public entry points, from outside the package.

``instrument(tracer)`` swaps each traced function or method for a wrapper
that records a span (id, name, start, end, parent) and a few counts, under
every nervekit module name it is reachable through, so that calls nervekit
makes internally (``nerve_of -> intersections``, ``goodness_report ->
vr_complex -> SimplicialComplex``) nest as child spans.  Leaving the context
restores the originals.  Nothing under ``src/`` is edited.

``layer_metrics`` turns the spans and counts of the traced passes into the
per-layer metrics: self times (span minus the part its children cover),
call counts, work counts, gauges and ratios.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
import tracemalloc

import numpy as np


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or -1)
        self.counts = {}
        self.gauges = {}
        self._stack = []
        self._largest_validation = 0

    def count(self, name: str, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    def gauge_max(self, name: str, value):
        self.gauges[name] = max(self.gauges.get(name, value), value)

    def call(self, name, fn, args, kwargs, on_result):
        parent = self._stack[-1] if self._stack else -1
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the id; filled in when the span ends
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, name, start, end, parent)
        if on_result is not None:
            on_result(self, args, result)
        return result

    def validate(self, fn, args, kwargs):
        """Metric validation, with the tracemalloc peak of the largest matrix
        seen so far; smaller validations run untracked."""
        n = len(args[0].dist)
        if n <= self._largest_validation or tracemalloc.is_tracing():
            return fn(*args, **kwargs)
        self._largest_validation = n
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.gauge_max("metric.validate_peak_mb", peak / 2**20)

    def write(self, path: str):
        """One JSON object per span, in the order the spans began."""
        with open(path, "w") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def self_times(spans) -> dict:
    """Total self time per span name: each span's duration minus the union
    of its children's intervals clipped to it."""
    children = {}
    for _id, _name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals = {}
    for span_id, name, start, end, _parent in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(span_id, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals


def span_counts(spans) -> dict:
    out = {}
    for _id, name, *_rest in spans:
        out[name] = out.get(name, 0) + 1
    return out


# -- what gets traced --------------------------------------------------------

def _on_intersections(tr, args, result):
    cover = args[0]
    tr.count("cover.intersection_records", len(result))
    tr.gauge_max("cover.sets", cover.n_sets)
    tr.gauge_max("cover.max_multiplicity", int(cover.multiplicities().max()))


def _on_goodness(tr, args, result):
    tr.count("cover.goodness_entries", len(result.entries))
    tr.count("cover.goodness_ok", sum(1 for e in result.entries if e.ok))


def _on_trace(tr, args, result):
    tr.count("retraction.stages", len(result.stages))
    tr.count("retraction.trace_ok", int(result.membership_ok and result.ends_in_base))


def _count_len(counter, of=lambda r: r):
    return lambda tr, args, result: tr.count(counter, len(of(result)))


# (span name, module, attribute, class or None, result hook)
TRACED = (
    ("metric.validate", "metric", "__post_init__", "FiniteMetricSpace", None),
    ("metric.gh_bound", "metric", "gh_distance_bound", None, None),
    ("cover.build", "cover", "build_ball_cover", None, None),
    ("cover.intersections", "cover", "intersections", None, _on_intersections),
    ("cover.goodness", "cover", "goodness_report", None, _on_goodness),
    ("nerve.nerve_of", "nerve", "nerve_of", None,
     _count_len("nerve.simplices", lambda r: r.simplices)),
    ("complex.build", "complex", "__post_init__", "SimplicialComplex",
     lambda tr, args, _r: tr.count("complex.simplices_checked", len(args[0].simplices))),
    ("complex.maximal", "complex", "maximal_simplices", "SimplicialComplex",
     _count_len("complex.maximal_simplices")),
    ("homology.betti", "homology", "betti", None, None),
    ("homology.rank", "homology", "gf2_rank", None,
     lambda tr, args, _r: tr.count("homology.rank_columns", np.shape(args[0])[1])),
    ("homology.vr", "homology", "vr_complex", None,
     _count_len("homology.vr_simplices", lambda r: r.simplices)),
    ("homology.verify", "homology", "nerve_matches_space", None, None),
    ("partition.pou", "partition", "__init__", "PartitionOfUnity", None),
    ("cone.cylinder", "cone", "__init__", "CylinderSpace", None),
    ("cone.membership", "cone", "check_membership", "CylinderSpace", None),
    ("retraction.contractions", "retraction", "build_contractions", None,
     _count_len("retraction.contractions")),
    ("retraction.trace", "retraction", "full_cylinder_retraction", None, _on_trace),
    ("stability.lift", "stability", "lift_cover", None, None),
    ("stability.equivalence", "stability", "homotopy_equivalence_via_nerves", None, None),
    ("stability.atlas", "stability", "build_gluing_atlas", None,
     _count_len("stability.charts", lambda r: r.charts)),
    ("stability.glue_maps", "stability", "glue_maps", None,
     lambda tr, args, r: tr.count("stability.collar_points", r[1]["collar_size"])),
    ("stability.glue_homotopies", "stability", "glue_homotopies", None, None),
    ("cli", "cli", "main", None, None),
)


def _wrap(tracer, name, fn, hook):
    if name == "metric.validate":
        def inner(*args, **kwargs):
            return tracer.validate(fn, args, kwargs)
    else:
        inner = fn

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, inner, args, kwargs, hook)
    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the TRACED entry points through ``tracer`` while active."""
    homes = {mod: importlib.import_module("nervekit." + mod) for _n, mod, *_r in TRACED}
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "nervekit" or key.startswith("nervekit."))]
    undo = []
    try:
        for name, mod_name, attr, cls_name, hook in TRACED:
            home = homes[mod_name]
            if cls_name is not None:
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                undo.append((cls, attr, original))
                setattr(cls, attr, _wrap(tracer, name, original, hook))
                continue
            original = getattr(home, attr)
            wrapped = _wrap(tracer, name, original, hook)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    undo.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# -- per-layer metrics -------------------------------------------------------

def _self(span):
    return ("self", span)


def _calls(span):
    return ("calls", span)


def _per_pass(counter):
    return ("per_pass", counter)


def _gauge(name):
    return ("gauge", name)


def _ratio(num, den):
    return ("ratio", num, den)


# metric name -> (unit, how to compute it)
LAYER_METRICS = {
    "metric.validate_s": ("s", _self("metric.validate")),
    "metric.validate_calls": ("count", _calls("metric.validate")),
    "metric.validate_peak_mb": ("MB", _gauge("metric.validate_peak_mb")),
    "metric.gh_bound_s": ("s", _self("metric.gh_bound")),
    "cover.build_s": ("s", _self("cover.build")),
    "cover.sets": ("count", _gauge("cover.sets")),
    "cover.max_multiplicity": ("count", _gauge("cover.max_multiplicity")),
    "cover.intersections_s": ("s", _self("cover.intersections")),
    "cover.intersection_records": ("count", _per_pass("cover.intersection_records")),
    "cover.goodness_s": ("s", _self("cover.goodness")),
    "cover.goodness_entries": ("count", _per_pass("cover.goodness_entries")),
    "cover.goodness_ok_ratio": ("ratio", _ratio("cover.goodness_ok", "cover.goodness_entries")),
    "nerve.nerve_of_s": ("s", _self("nerve.nerve_of")),
    "nerve.calls": ("count", _calls("nerve.nerve_of")),
    "nerve.simplices": ("count", _per_pass("nerve.simplices")),
    "complex.build_s": ("s", _self("complex.build")),
    "complex.build_calls": ("count", _calls("complex.build")),
    "complex.simplices_checked": ("count", _per_pass("complex.simplices_checked")),
    "complex.maximal_s": ("s", _self("complex.maximal")),
    "complex.maximal_simplices": ("count", _per_pass("complex.maximal_simplices")),
    "homology.betti_s": ("s", _self("homology.betti")),
    "homology.betti_calls": ("count", _calls("homology.betti")),
    "homology.rank_s": ("s", _self("homology.rank")),
    "homology.rank_columns": ("count", _per_pass("homology.rank_columns")),
    "homology.vr_s": ("s", _self("homology.vr")),
    "homology.vr_simplices": ("count", _per_pass("homology.vr_simplices")),
    "homology.verify_s": ("s", _self("homology.verify")),
    "partition.pou_s": ("s", _self("partition.pou")),
    "partition.pou_calls": ("count", _calls("partition.pou")),
    "cone.cylinder_s": ("s", _self("cone.cylinder")),
    "cone.membership_s": ("s", _self("cone.membership")),
    "cone.membership_checks": ("count", _calls("cone.membership")),
    "retraction.contractions_s": ("s", _self("retraction.contractions")),
    "retraction.contractions": ("count", _per_pass("retraction.contractions")),
    "retraction.trace_s": ("s", _self("retraction.trace")),
    "retraction.traces": ("count", _calls("retraction.trace")),
    "retraction.stages_per_trace": ("count", _ratio("retraction.stages", "retraction.trace")),
    "retraction.trace_ok_ratio": ("ratio", _ratio("retraction.trace_ok", "retraction.trace")),
    "stability.lift_s": ("s", _self("stability.lift")),
    "stability.equivalence_s": ("s", _self("stability.equivalence")),
    "stability.atlas_s": ("s", _self("stability.atlas")),
    "stability.charts": ("count", _per_pass("stability.charts")),
    "stability.collar_points": ("count", _per_pass("stability.collar_points")),
    "stability.glue_maps_s": ("s", _self("stability.glue_maps")),
    "stability.glue_homotopies_s": ("s", _self("stability.glue_homotopies")),
    "cli.self_s": ("s", _self("cli")),
    "cli.report_bytes": ("bytes", _per_pass("cli.report_bytes")),
}


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer metrics of ``passes`` traced passes.

    Times, calls and work counts are per pass; gauges are maxima over the
    run; ratios divide two totals.  A layer the workload never calls reads 0.
    """
    selfs = self_times(tracer.spans)
    calls = span_counts(tracer.spans)
    totals = dict(tracer.counts)
    totals.update(calls)
    out = {}
    for metric, (unit, how) in LAYER_METRICS.items():
        kind = how[0]
        if kind == "self":
            value = selfs.get(how[1], 0.0) / passes
        elif kind == "calls":
            value = calls.get(how[1], 0) / passes
        elif kind == "per_pass":
            value = tracer.counts.get(how[1], 0) / passes
        elif kind == "gauge":
            value = tracer.gauges.get(how[1], 0)
        else:
            den = totals.get(how[2], 0)
            value = totals.get(how[1], 0) / den if den else 0.0
        out[metric] = {"value": value, "unit": unit}
    return out

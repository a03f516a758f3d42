"""Spans and counts for the traced run.

`install` wraps the public functions of each mwlab module in every mwlab
namespace that binds them, so calls made inside the library (for example
`branch_points` from `graph_separation`) are recorded too. Each call becomes
a span (name, start, end, parent) kept in memory; a layer's self time is its
span durations minus the time its child spans cover. Count hooks run after
the span has closed, and their time is excluded from the parent's self time.
Nothing is wrapped unless `install` is called, so the untraced run executes
the library unchanged.
"""

import json
import os
import sys
import time
from collections import defaultdict

from oracles import mat_pow

SPAN_RECORD_CAP = 100_000


class Tracer:
    def __init__(self, cap=SPAN_RECORD_CAP):
        self.cap = cap
        self.phase = "setup"
        self.spans = []
        self.dropped = 0
        self.self_time = defaultdict(float)   # (phase, name) -> seconds
        self.calls = defaultdict(int)         # (phase, name) -> calls
        self.counts = defaultdict(int)        # (phase, name) -> sum
        self.maxima = defaultdict(int)        # (phase, name) -> max
        self._stack = []
        self._next_id = 0

    def add(self, name, value):
        self.counts[(self.phase, name)] += value

    def maximum(self, name, value):
        key = (self.phase, name)
        self.maxima[key] = max(self.maxima[key], value)

    def wrap(self, name, fn, hook=None):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            self._next_id += 1
            span_id = self._next_id
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                key = (self.phase, name)
                self.self_time[key] += duration - frame[1]
                self.calls[key] += 1
                if len(self.spans) < self.cap:
                    self.spans.append((span_id, parent, name, self.phase,
                                       start, end))
                else:
                    self.dropped += 1
            if hook is not None:
                hook_start = clock()
                hook(self, args, result)
                if stack:
                    stack[-1][1] += clock() - hook_start
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path, header):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "spans_recorded": len(self.spans),
                                 "spans_dropped": self.dropped}) + "\n")
            for span_id, parent, name, phase, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "phase": phase,
                                     "start": start, "end": end}) + "\n")
            for table, kind in ((self.self_time, "self_s"),
                                (self.calls, "calls"),
                                (self.counts, "count"),
                                (self.maxima, "max")):
                for (phase, name), value in sorted(table.items()):
                    fh.write(json.dumps({kind: name, "phase": phase,
                                         "value": value}) + "\n")


# --- count hooks ---------------------------------------------------------------


def _spec_matrix(spec):
    index = {v: i for i, v in enumerate(spec.graph.vertices)}
    a = [[0] * len(index) for _ in index]
    for e in spec.graph.edges:
        a[index[e.source]][index[e.range]] += 1
    return a


def _after_invariant_list(tracer, args, approx):
    spec, depth = args[0], args[1]
    tracer.add("attractor.paths",
               sum(sum(r) for r in mat_pow(_spec_matrix(spec), depth)))
    tracer.add("attractor.points_kept", approx.total_points())


def _after_write_csv(tracer, args, result):
    tracer.add("attractor.csv_bytes", os.path.getsize(args[2]))


def _after_render(tracer, args, result):
    tracer.add("render.png_bytes", os.path.getsize(args[2]))


def _after_branch_points(tracer, args, report):
    edges = args[0].graph.edges
    tracer.add("conditions.parallel_pairs", sum(
        1 for i in range(len(edges)) for j in range(i + 1, len(edges))
        if edges[i].source == edges[j].source
        and edges[i].range == edges[j].range))
    tracer.add("conditions.branch_witnesses", report.count)


def _after_sample_points(tracer, args, points):
    tracer.add("correspondence.sample_points", len(points))


def _after_snf(tracer, args, snf):
    m = args[0]
    tracer.add("ktheory.matrix_cells", m.rows * m.cols)
    bits = 0
    for mat in (snf.U, snf.D, snf.V):
        for row in mat.to_lists():
            for x in row:
                bits = max(bits, abs(x).bit_length())
    tracer.maximum("ktheory.max_coeff_bits", bits)


def _after_render_json(tracer, args, text):
    tracer.add("reports.json_bytes", len(text.encode("utf-8")))


# (layer, module, functions, hooks by function)
TARGETS = (
    ("specio", "mwlab.specio", ("parse_spec", "parse_spec_document"), {}),
    ("specio", "mwlab.datasets", ("load_bundled",), {}),
    ("attractor", "mwlab.attractor",
     ("invariant_list", "invariance_residual", "write_point_cloud_csv",
      "total_paths", "coding_map_prefix", "cylinder_set"),
     {"invariant_list": _after_invariant_list,
      "write_point_cloud_csv": _after_write_csv}),
    ("geometry", "mwlab.geometry", ("hausdorff_distance",), {}),
    ("conditions", "mwlab.conditions",
     ("branch_points", "graph_separation", "open_set_condition",
      "simplicity_report", "branch_index"),
     {"branch_points": _after_branch_points}),
    ("correspondence", "mwlab.correspondence",
     ("inner_product", "expectation", "norm_two", "norm_inf", "tensor_eval",
      "is_invariant", "sample_points", "xi_zero"),
     {"sample_points": _after_sample_points}),
    ("ktheory", "mwlab.ktheory",
     ("smith_normal_form", "hermite_normal_form", "kernel", "cokernel",
      "graph_algebra_ktheory", "check_exact"),
     {"smith_normal_form": _after_snf}),
    ("reports", "mwlab.reports",
     ("build_analysis_report", "ktheory_summary", "render_json",
      "render_text"),
     {"render_json": _after_render_json}),
    ("render", "mwlab.render", ("render_attractor",),
     {"render_attractor": _after_render}),
    ("cli", "mwlab.cli", ("main",), {}),
)

# modules that construct KD-trees under the name cKDTree
KDTREE_MODULES = ("mwlab.geometry", "mwlab.attractor")


def _rebind(original, replacement):
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "mwlab" or name.startswith("mwlab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer):
    """Wrap every target function in every mwlab namespace that binds it."""
    for layer, module_name, functions, hooks in TARGETS:
        module = sys.modules[module_name]
        for fname in functions:
            original = getattr(module, fname)
            wrapped = tracer.wrap(f"{layer}.{fname}", original, hooks.get(fname))
            _rebind(original, wrapped)
    for module_name in KDTREE_MODULES:
        module = sys.modules[module_name]
        build = module.cKDTree

        def counted(*args, _build=build, **kwargs):
            tracer.add("geometry.kdtree_builds", 1)
            return _build(*args, **kwargs)

        # a count, not a span: build time stays in the caller's self time
        module.cKDTree = counted


# --- per-layer metrics -----------------------------------------------------------


def _self(tracer, phase, *names):
    return sum(tracer.self_time.get((phase, n), 0.0) for n in names)


def layer_metrics(tracer, passes, per_layer_spec):
    """Per-pass values of every per-layer metric named in BENCHMARK.json.

    Times are self times. specio.load_s is the loading in the set-up of the
    traced run (once per run); every other value is per timed pass.
    """
    p = "pass"

    def per_pass(value):
        return value / passes

    def count(name):
        return tracer.counts.get((p, name), 0)

    def calls(name):
        return tracer.calls.get((p, name), 0)

    paths = count("attractor.paths")
    values = {
        "specio.load_s": _self(tracer, "setup", "specio.parse_spec",
                               "specio.parse_spec_document",
                               "specio.load_bundled"),
        "attractor.invariant_list_s": per_pass(_self(tracer, p, "attractor.invariant_list")),
        "attractor.paths": per_pass(paths),
        "attractor.points_kept": per_pass(count("attractor.points_kept")),
        "attractor.dedup_ratio": (count("attractor.points_kept") / paths
                                  if paths else 0.0),
        "attractor.write_csv_s": per_pass(_self(tracer, p, "attractor.write_point_cloud_csv")),
        "attractor.csv_bytes": per_pass(count("attractor.csv_bytes")),
        "render.render_attractor_s": per_pass(_self(tracer, p, "render.render_attractor")),
        "render.png_bytes": per_pass(count("render.png_bytes")),
        "attractor.invariance_residual_s": per_pass(_self(tracer, p, "attractor.invariance_residual")),
        "geometry.hausdorff_distance_s": per_pass(_self(tracer, p, "geometry.hausdorff_distance")),
        "geometry.hausdorff_calls": per_pass(calls("geometry.hausdorff_distance")),
        "geometry.kdtree_builds": per_pass(count("geometry.kdtree_builds")),
        "conditions.branch_points_s": per_pass(_self(tracer, p, "conditions.branch_points")),
        "conditions.branch_points_calls": per_pass(calls("conditions.branch_points")),
        "conditions.open_set_condition_s": per_pass(_self(tracer, p, "conditions.open_set_condition")),
        "conditions.open_set_condition_calls": per_pass(calls("conditions.open_set_condition")),
        "conditions.simplicity_report_s": per_pass(_self(tracer, p, "conditions.simplicity_report")),
        "conditions.parallel_pairs": per_pass(count("conditions.parallel_pairs")),
        "conditions.branch_witnesses": per_pass(count("conditions.branch_witnesses")),
        "correspondence.inner_product_s": per_pass(_self(tracer, p, "correspondence.inner_product")),
        "correspondence.inner_product_calls": per_pass(calls("correspondence.inner_product")),
        "correspondence.expectation_s": per_pass(_self(tracer, p, "correspondence.expectation")),
        "correspondence.norm_two_s": per_pass(_self(tracer, p, "correspondence.norm_two")),
        "correspondence.norm_inf_s": per_pass(_self(tracer, p, "correspondence.norm_inf")),
        "correspondence.tensor_eval_s": per_pass(_self(tracer, p, "correspondence.tensor_eval")),
        "correspondence.is_invariant_s": per_pass(_self(tracer, p, "correspondence.is_invariant")),
        "correspondence.sample_points": per_pass(count("correspondence.sample_points")),
        "ktheory.smith_normal_form_s": per_pass(_self(tracer, p, "ktheory.smith_normal_form")),
        "ktheory.smith_normal_form_calls": per_pass(calls("ktheory.smith_normal_form")),
        "ktheory.hermite_normal_form_s": per_pass(_self(tracer, p, "ktheory.hermite_normal_form")),
        "ktheory.check_exact_s": per_pass(_self(tracer, p, "ktheory.check_exact")),
        "ktheory.max_coeff_bits": tracer.maxima.get((p, "ktheory.max_coeff_bits"), 0),
        "ktheory.matrix_cells": per_pass(count("ktheory.matrix_cells")),
        "reports.build_analysis_report_s": per_pass(_self(tracer, p, "reports.build_analysis_report")),
        "reports.build_analysis_report_calls": per_pass(calls("reports.build_analysis_report")),
        "reports.ktheory_summary_s": per_pass(_self(tracer, p, "reports.ktheory_summary")),
        "reports.ktheory_summary_calls": per_pass(calls("reports.ktheory_summary")),
        "reports.render_json_s": per_pass(_self(tracer, p, "reports.render_json")),
        "reports.json_bytes": per_pass(count("reports.json_bytes")),
        "cli.main_s": per_pass(_self(tracer, p, "cli.main")),
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in per_layer_spec}

"""Assembly of analysis reports and their text / JSON renderings.

JSON output is deterministic: identical inputs give byte-identical documents.
Wall-clock timings are therefore shown in the text rendering only.
"""

import json
import math
import time
from dataclasses import dataclass, field

from .attractor import invariance_residual, invariant_list, total_paths
from .conditions import branch_points, graph_separation, open_set_condition, \
    simplicity_report
from .graph import vertex_matrix
from .ktheory import IntMatrix, graph_algebra_ktheory

__all__ = [
    "AnalysisReport",
    "ktheory_summary",
    "build_analysis_report",
    "render_text",
    "render_json",
]


def _json_safe(value):
    if isinstance(value, float):
        if math.isinf(value):
            return None
        return value
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _group_dict(group):
    return {"text": str(group), "free_rank": group.free_rank,
            "torsion": list(group.torsion)}


def _labeled_point_dict(point):
    return {"vertex": point.vertex, "coords": list(point.coords)}


def ktheory_summary(matrix, reference=None):
    """K-groups of the graph algebra plus the intermediate exact data."""
    delta = IntMatrix.identity(matrix.rows) - matrix.transpose()
    kt = graph_algebra_ktheory(matrix)
    out = {
        "vertex_matrix": matrix.to_lists(),
        "one_minus_transpose": delta.to_lists(),
        "invariant_factors": list(kt.invariant_factors),
        "K0": _group_dict(kt.K0),
        "K1": _group_dict(kt.K1),
    }
    if reference:
        out["reference"] = reference
    return out


@dataclass
class AnalysisReport:
    spec_name: str
    depth: int
    tol: float
    error_bound: float
    points_per_vertex: dict
    paths_total: int
    hypothesis: object
    branch: object
    separation: object
    osc: object
    ktheory: dict
    residuals: dict | None = None
    reference: dict | None = None
    notes: str = ""
    timings: dict = field(default_factory=dict)


def build_analysis_report(spec, depth, tol, approx=None, with_residuals=False):
    """Run the full condition battery on a system at one depth/tolerance."""
    timings = {}
    start = time.perf_counter()
    if approx is None:
        approx = invariant_list(spec, depth)
    timings["attractor_s"] = time.perf_counter() - start

    start = time.perf_counter()
    branch = branch_points(spec, approx, tol)
    osc = open_set_condition(spec, tol=max(tol, 1e-12))
    separation = graph_separation(branch)
    hypothesis = simplicity_report(spec, branch, osc)
    timings["conditions_s"] = time.perf_counter() - start

    start = time.perf_counter()
    kt = ktheory_summary(vertex_matrix(spec.graph),
                         reference=(spec.reference or {}).get("graph_algebra"))
    timings["ktheory_s"] = time.perf_counter() - start

    residuals = None
    if with_residuals:
        start = time.perf_counter()
        residuals = invariance_residual(spec, approx)
        timings["residuals_s"] = time.perf_counter() - start

    return AnalysisReport(
        spec_name=spec.name or "unnamed",
        depth=approx.depth,
        tol=tol,
        error_bound=approx.error_bound,
        points_per_vertex={v: len(approx.cloud(v)) for v in spec.graph.vertices},
        paths_total=total_paths(spec, approx.depth),
        hypothesis=hypothesis,
        branch=branch,
        separation=separation,
        osc=osc,
        ktheory=kt,
        residuals=residuals,
        reference=spec.reference,
        notes=spec.notes,
        timings=timings)


def report_to_dict(report):
    branch = report.branch
    hyp = report.hypothesis
    sep = report.separation
    doc = {
        "spec_name": report.spec_name,
        "depth": report.depth,
        "tol": report.tol,
        "error_bound": report.error_bound,
        "paths_total": report.paths_total,
        "points_per_vertex": dict(report.points_per_vertex),
        "hypothesis": {
            "no_sinks_sources": hyp.no_sinks_sources,
            "irreducible": hyp.irreducible,
            "not_cyclic_permutation": hyp.not_cyclic_permutation,
            "open_set_condition": hyp.open_set_condition,
            "verdict": hyp.verdict.value,
            "quotient_dimension": hyp.details["quotient_dimension"],
            "left_action_by_compacts": hyp.details["left_action_by_compacts"],
        },
        "branch": {
            "tol": branch.tol,
            "sample_depth": branch.sample_depth,
            "count": branch.count,
            "has_parallel_pairs": branch.has_parallel_pairs,
            "min_cograph_gap": branch.min_cograph_gap,
            "sampled_min_gap": branch.sampled_min_gap,
            "scan_resolution_sufficient": branch.scan_resolution_sufficient,
            "suggested_depth": branch.suggested_depth,
            "branch_points": [
                {"x": _labeled_point_dict(bp.x), "y": _labeled_point_dict(bp.y),
                 "edges": list(bp.edges), "index": bp.index,
                 "certified": bp.certified}
                for bp in branch.branch_points
            ],
        },
        "separation": {
            "holds": sep.holds,
            "min_gap": sep.min_gap,
            "witness": (None if sep.witness is None else
                        {"edges": [sep.witness[0], sep.witness[1]],
                         "y": _labeled_point_dict(sep.witness[2])}),
            "note": sep.note,
        },
        "open_set_condition": {
            "holds": report.osc.holds,
            "failures": list(report.osc.failures),
        },
        "graph_ktheory": report.ktheory,
    }
    if report.residuals is not None:
        doc["invariance_residuals"] = dict(report.residuals)
    if report.reference is not None:
        doc["reference"] = report.reference
    return _json_safe(doc)


def render_json(report):
    return json.dumps(report_to_dict(report), indent=2) + "\n"


def _fmt_gap(value):
    return "none (no parallel edge pair)" if math.isinf(value) else repr(value)


def _matrix_lines(rows):
    return ["  " + str(row) for row in rows]


def render_text(report):
    hyp = report.hypothesis
    branch = report.branch
    lines = [
        f"system: {report.spec_name}",
        f"depth: {report.depth}   tolerance: {report.tol!r}   "
        f"certified error bound: {report.error_bound!r}",
        f"paths: {report.paths_total}   points: "
        + ", ".join(f"{v}={n}" for v, n in report.points_per_vertex.items()),
        "",
        "hypothesis checks:",
        f"  no sinks or sources: {hyp.no_sinks_sources}",
        f"  irreducible: {hyp.irreducible}",
        f"  not a cyclic permutation: {hyp.not_cyclic_permutation}",
        f"  open set condition: "
        + ("unknown (no candidate supplied)" if hyp.open_set_condition is None
           else str(hyp.open_set_condition)),
        f"  verdict: {hyp.verdict.value}",
        "",
        "branch analysis:",
        f"  branch points: {branch.count}",
        f"  min cograph gap: {_fmt_gap(branch.min_cograph_gap)}",
        f"  dim of the quotient by the compact-action ideal: "
        f"{hyp.details['quotient_dimension']}",
        f"  left action lands in compacts: "
        f"{hyp.details['left_action_by_compacts']}",
    ]
    for bp in branch.branch_points:
        lines.append(
            f"    at x={list(bp.x.coords)} ({bp.x.vertex}) from "
            f"y={list(bp.y.coords)} via {', '.join(bp.edges)} "
            f"index={bp.index} certified={bp.certified}")
    if (branch.has_parallel_pairs and not branch.scan_resolution_sufficient
            and branch.suggested_depth):
        lines.append(
            f"  note: sampled scan out-resolves tol only from depth "
            f"{branch.suggested_depth}; reported witnesses are exact")
    lines += [
        "",
        f"graph separation: {'holds' if report.separation.holds else 'fails'}"
        f" (min gap {_fmt_gap(report.separation.min_gap)})",
        f"  {report.separation.note}",
    ]
    if report.separation.witness is not None:
        e, f, y = report.separation.witness
        lines.append(f"  witness: edges {e}, {f} at y={list(y.coords)}")
    if report.osc.failures:
        lines.append("open set condition failures:")
        lines += [f"  {item}" for item in report.osc.failures]
    kt = report.ktheory
    lines += [
        "",
        "graph-algebra K-theory (computed):",
        "  vertex matrix:",
        *_matrix_lines(kt["vertex_matrix"]),
        "  1 - transpose:",
        *_matrix_lines(kt["one_minus_transpose"]),
        f"  invariant factors: {kt['invariant_factors']}",
        f"  K0 = {kt['K0']['text']}",
        f"  K1 = {kt['K1']['text']}",
    ]
    if report.residuals is not None:
        lines += ["", "invariance residuals (certified bound "
                  f"{2 * report.error_bound!r}):"]
        lines += [f"  {v}: {val!r}" for v, val in report.residuals.items()]
    if report.reference:
        lines += ["", "reference metadata (stated, not computed):"]
        lines += [f"  {k}: {v}" for k, v in report.reference.items()]
    if report.timings:
        lines += ["", "timings: " + "  ".join(
            f"{k}={v:.3f}" for k, v in report.timings.items())]
    return "\n".join(lines) + "\n"

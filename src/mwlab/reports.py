"""Analysis reports: one deterministic document, rendered as JSON or as text.

`build_analysis_report` runs the condition battery and the K-theory once and
assembles their results into a JSON-ready dict. That document is the report:
identical inputs give byte-identical documents, `render_json` dumps it, and
`render_text` is one more rendering of the same dict. Wall-clock timings are
not part of the document; they travel beside it and show in the text only.
"""

import json
import math
import time
from dataclasses import dataclass

from .attractor import invariance_residual, invariant_list, total_paths
from .conditions import branch_points, graph_separation, open_set_condition, \
    simplicity_report
from .graph import vertex_matrix
from .ktheory import IntMatrix, graph_algebra_ktheory

__all__ = [
    "AnalysisReport",
    "ktheory_summary",
    "ktheory_lines",
    "reference_lines",
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


def ktheory_lines(summary):
    """The K-theory block of a `ktheory_summary`, one line per item."""
    return ["vertex matrix:", *(f"  {row}" for row in summary["vertex_matrix"]),
            "1 - transpose:",
            *(f"  {row}" for row in summary["one_minus_transpose"]),
            f"invariant factors: {summary['invariant_factors']}",
            f"K0 = {summary['K0']['text']}",
            f"K1 = {summary['K1']['text']}"]


def reference_lines(reference):
    """The stated reference metadata of a system, one line per key."""
    return ["reference metadata (stated, not computed):",
            *(f"  {key}: {value}" for key, value in reference.items())]


@dataclass
class AnalysisReport:
    """The deterministic report document and the wall-clock timings beside it."""

    document: dict
    timings: dict


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
    sep = graph_separation(branch)
    hyp = simplicity_report(spec, branch, osc)
    timings["conditions_s"] = time.perf_counter() - start

    start = time.perf_counter()
    kt = ktheory_summary(vertex_matrix(spec.graph),
                         reference=(spec.reference or {}).get("graph_algebra"))
    timings["ktheory_s"] = time.perf_counter() - start

    doc = {
        "spec_name": spec.name or "unnamed",
        "depth": approx.depth,
        "tol": tol,
        "error_bound": approx.error_bound,
        "paths_total": total_paths(spec, approx.depth),
        "points_per_vertex": {v: len(approx.cloud(v))
                              for v in spec.graph.vertices},
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
        "open_set_condition": {"holds": osc.holds,
                               "failures": list(osc.failures)},
        "graph_ktheory": kt,
    }
    if with_residuals:
        start = time.perf_counter()
        doc["invariance_residuals"] = invariance_residual(spec, approx)
        timings["residuals_s"] = time.perf_counter() - start
    if spec.reference is not None:
        doc["reference"] = spec.reference
    return AnalysisReport(_json_safe(doc), timings)


def render_json(report):
    return json.dumps(report.document, indent=2) + "\n"


def _fmt_gap(value):
    # the document holds None where the gap was inf
    return "none (no parallel edge pair)" if value is None else repr(value)


def render_text(report):
    doc = report.document
    hyp, branch, sep = doc["hypothesis"], doc["branch"], doc["separation"]
    osc = hyp["open_set_condition"]
    lines = [
        f"system: {doc['spec_name']}",
        f"depth: {doc['depth']}   tolerance: {doc['tol']!r}   "
        f"certified error bound: {doc['error_bound']!r}",
        f"paths: {doc['paths_total']}   points: "
        + ", ".join(f"{v}={n}" for v, n in doc["points_per_vertex"].items()),
        "",
        "hypothesis checks:",
        f"  no sinks or sources: {hyp['no_sinks_sources']}",
        f"  irreducible: {hyp['irreducible']}",
        f"  not a cyclic permutation: {hyp['not_cyclic_permutation']}",
        "  open set condition: "
        + ("unknown (no candidate supplied)" if osc is None else str(osc)),
        f"  verdict: {hyp['verdict']}",
        "",
        "branch analysis:",
        f"  branch points: {branch['count']}",
        f"  min cograph gap: {_fmt_gap(branch['min_cograph_gap'])}",
        f"  dim of the quotient by the compact-action ideal: "
        f"{hyp['quotient_dimension']}",
        f"  left action lands in compacts: {hyp['left_action_by_compacts']}",
    ]
    for bp in branch["branch_points"]:
        lines.append(
            f"    at x={bp['x']['coords']} ({bp['x']['vertex']}) from "
            f"y={bp['y']['coords']} via {', '.join(bp['edges'])} "
            f"index={bp['index']} certified={bp['certified']}")
    if (branch["has_parallel_pairs"] and not branch["scan_resolution_sufficient"]
            and branch["suggested_depth"]):
        lines.append(
            f"  note: sampled scan out-resolves tol only from depth "
            f"{branch['suggested_depth']}; reported witnesses are exact")
    lines += [
        "",
        f"graph separation: {'holds' if sep['holds'] else 'fails'}"
        f" (min gap {_fmt_gap(sep['min_gap'])})",
        f"  {sep['note']}",
    ]
    if sep["witness"] is not None:
        (e, f), y = sep["witness"]["edges"], sep["witness"]["y"]
        lines.append(f"  witness: edges {e}, {f} at y={y['coords']}")
    failures = doc["open_set_condition"]["failures"]
    if failures:
        lines.append("open set condition failures:")
        lines += [f"  {item}" for item in failures]
    lines += ["", "graph-algebra K-theory (computed):"]
    lines += [f"  {line}" for line in ktheory_lines(doc["graph_ktheory"])]
    if "invariance_residuals" in doc:
        lines += ["", "invariance residuals (certified bound "
                  f"{2 * doc['error_bound']!r}):"]
        lines += [f"  {v}: {val!r}"
                  for v, val in doc["invariance_residuals"].items()]
    if doc.get("reference"):
        lines += ["", *reference_lines(doc["reference"])]
    if report.timings:
        lines += ["", "timings: " + "  ".join(
            f"{k}={v:.3f}" for k, v in report.timings.items())]
    return "\n".join(lines) + "\n"

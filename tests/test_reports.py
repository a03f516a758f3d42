"""Report assembly computes each intermediate result once, and its one
document renders as the report did when each renderer read the result
objects itself."""

import io
import json
import math
from dataclasses import dataclass, field

import pytest

import mwlab.conditions
import mwlab.ktheory
import mwlab.reports
from conftest import approx_for, bundled
from mwlab.attractor import invariance_residual, total_paths
from mwlab.cli import main
from mwlab.conditions import branch_points, graph_separation, \
    open_set_condition, simplicity_report
from mwlab.datasets import list_bundled
from mwlab.graph import vertex_matrix
from mwlab.reports import build_analysis_report, ktheory_lines, \
    ktheory_summary, reference_lines, render_json, render_text
from specs_inline import doubled_gasket

COUNTED = (
    (mwlab.reports, "branch_points"),
    (mwlab.reports, "open_set_condition"),
    # the lattice routine behind the K-groups; Smith runs only on the
    # non-unit pivot rows it leaves, and on penrose there are none
    (mwlab.ktheory, "_lattice_rows"),
)


@pytest.fixture
def call_counts(monkeypatch):
    """Count calls of each function in every module that binds it."""
    counts = {}
    for module, name in COUNTED:
        original = getattr(module, name)
        counts[name] = 0

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for namespace in (mwlab.reports, mwlab.conditions, mwlab.ktheory):
            if getattr(namespace, name, None) is original:
                monkeypatch.setattr(namespace, name, counted)
    return counts


@pytest.mark.parametrize("name", ["squares_z2", "penrose"])
def test_one_branch_scan_osc_check_and_smith_form(call_counts, name):
    spec = bundled(name)
    report = build_analysis_report(spec, 7, 1e-6, approx=approx_for(name, 7))
    assert call_counts == {"branch_points": 1, "open_set_condition": 1,
                           "_lattice_rows": 1}
    doc = report.document
    assert doc["hypothesis"]["open_set_condition"] == \
        doc["open_set_condition"]["holds"]


# --- reference: the report before it became one document ---------------------
# AnalysisReport, report_to_dict and render_text as they were when each
# renderer read the result objects itself, kept verbatim with their helpers.


def ref_json_safe(value):
    if isinstance(value, float):
        if math.isinf(value):
            return None
        return value
    if isinstance(value, dict):
        return {k: ref_json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [ref_json_safe(v) for v in value]
    return value


def ref_labeled_point_dict(point):
    return {"vertex": point.vertex, "coords": list(point.coords)}


@dataclass
class RefAnalysisReport:
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


def ref_report_to_dict(report):
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
                {"x": ref_labeled_point_dict(bp.x),
                 "y": ref_labeled_point_dict(bp.y),
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
                         "y": ref_labeled_point_dict(sep.witness[2])}),
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
    return ref_json_safe(doc)


def ref_fmt_gap(value):
    return "none (no parallel edge pair)" if math.isinf(value) else repr(value)


def ref_matrix_lines(rows):
    return ["  " + str(row) for row in rows]


def ref_render_text(report):
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
        f"  min cograph gap: {ref_fmt_gap(branch.min_cograph_gap)}",
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
            f"{branch.suggested_depth}; each witness lies on the float "
            f"coincidence set within error_bound + tol of a cloud point, "
            f"which does not prove it lies in K")
    lines += [
        "",
        f"graph separation: {'holds' if report.separation.holds else 'fails'}"
        f" (min gap {ref_fmt_gap(report.separation.min_gap)})",
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
        *ref_matrix_lines(kt["vertex_matrix"]),
        "  1 - transpose:",
        *ref_matrix_lines(kt["one_minus_transpose"]),
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


def ref_report(spec, approx, tol, with_residuals, timings):
    """The reference report from the same library results the report uses."""
    branch = branch_points(spec, approx, tol)
    osc = open_set_condition(spec)
    return RefAnalysisReport(
        spec_name=spec.name or "unnamed",
        depth=approx.depth,
        tol=tol,
        error_bound=approx.error_bound,
        points_per_vertex={v: len(approx.cloud(v)) for v in spec.graph.vertices},
        paths_total=total_paths(spec, approx.depth),
        hypothesis=simplicity_report(spec, branch, osc),
        branch=branch,
        separation=graph_separation(branch),
        osc=osc,
        ktheory=ktheory_summary(
            vertex_matrix(spec.graph),
            reference=(spec.reference or {}).get("graph_algebra")),
        residuals=invariance_residual(spec, approx) if with_residuals else None,
        reference=spec.reference,
        notes=spec.notes,
        timings=timings)


@pytest.mark.parametrize("with_residuals", [False, True],
                         ids=["plain", "residuals"])
@pytest.mark.parametrize("tol", [1e-6, 1e-3])
@pytest.mark.parametrize("name", list_bundled())
def test_matches_reference_report(name, tol, with_residuals):
    spec, approx = bundled(name), approx_for(name, 6)
    report = build_analysis_report(spec, 6, tol, approx=approx,
                                   with_residuals=with_residuals)
    ref = ref_report(spec, approx, tol, with_residuals, report.timings)
    assert render_json(report) == \
        json.dumps(ref_report_to_dict(ref), indent=2) + "\n"
    # only the indent of the K-theory matrix rows changed
    assert [line.strip() for line in render_text(report).splitlines()] == \
        [line.strip() for line in ref_render_text(ref).splitlines()]


def ref_ktheory_text(summary, reference):
    """What `mwlab ktheory` wrote line by line before it shared the block."""
    out = io.StringIO()
    out.write("vertex matrix:\n")
    for row in summary["vertex_matrix"]:
        out.write(f"  {row}\n")
    out.write("1 - transpose:\n")
    for row in summary["one_minus_transpose"]:
        out.write(f"  {row}\n")
    out.write(f"invariant factors: {summary['invariant_factors']}\n")
    out.write(f"K0 = {summary['K0']['text']}\n")
    out.write(f"K1 = {summary['K1']['text']}\n")
    if reference:
        out.write("reference metadata (stated, not computed):\n")
        for key, value in reference.items():
            out.write(f"  {key}: {value}\n")
    return out.getvalue()


@pytest.mark.parametrize("name", list_bundled())
def test_ktheory_command_prints_the_shared_blocks(name):
    spec = bundled(name)
    summary = ktheory_summary(vertex_matrix(spec.graph))
    lines = ktheory_lines(summary)
    if spec.reference:
        lines += reference_lines(spec.reference)
    out = io.StringIO()
    assert main(["ktheory", name], out=out) == 0
    assert out.getvalue() == "\n".join(lines) + "\n"
    assert out.getvalue() == ref_ktheory_text(summary, spec.reference)


def test_text_lists_twenty_branch_points_and_json_all():
    # every cloud point of the doubled gasket is a branch point
    report = build_analysis_report(doubled_gasket(), 6, 1e-6)
    branch = json.loads(render_json(report))["branch"]
    assert branch["count"] == len(branch["branch_points"]) == 729
    text = render_text(report).splitlines()
    listed = [line for line in text if line.startswith("    at x=")]
    assert [line.split(" (")[0] for line in listed] == \
        [f"    at x={bp['x']['coords']}" for bp in branch["branch_points"][:20]]
    assert text[text.index(listed[-1]) + 1] == \
        "    ... and 709 more (all of them in --format json)"

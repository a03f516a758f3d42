"""Structural condition checks: branch points, cograph separation, the open
set condition, and the hypothesis bundle for simplicity and pure infiniteness
of the associated algebra.

Branch detection runs two complementary checks per parallel edge pair. The
sampled check scans the computed cloud for near-coincidences at the requested
tolerance. Because every edge map is affine, the coincidence set
{y : phi_e(y) = phi_f(y)} is also solved once as a linear system: it is empty
or y0 + ker(M_e - M_f), for every rank of M_e - M_f. Each cloud point within
the certified error bound plus tol of that set yields its projection onto it
(y0 itself when the kernel is {0}) as a witness whose coordinates do not
depend on the sampling depth; no KD-tree is built. Reported branch points
prefer these witnesses.

Only pairs sharing both source and range are compared: components at distinct
vertices are disjoint by the labeling convention, so no coincidence can occur
across them.
"""

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .attractor import _certificate
from .errors import SpecValidationError
from .geometry import (
    ConvexPolygon,
    Interval,
    LabeledPoint,
    interval_in_union,
    intervals_disjoint,
    polygon_in_union,
    polygons_disjoint,
)
from .graph import has_sinks_or_sources, is_irreducible

__all__ = [
    "BranchPoint",
    "BranchReport",
    "SeparationResult",
    "OscResult",
    "Verdict",
    "HypothesisReport",
    "branch_points",
    "branch_index",
    "graph_separation",
    "open_set_condition",
    "simplicity_report",
]

_RANK_CUTOFF = 1e-10


@dataclass(frozen=True)
class BranchPoint:
    """A coincidence x = phi_e(y) = phi_f(y) for at least two distinct edges."""

    x: LabeledPoint
    y: LabeledPoint
    edges: tuple
    index: int
    certified: bool


@dataclass
class BranchReport:
    branch_points: list
    min_cograph_gap: float
    tol: float
    sample_depth: int
    has_parallel_pairs: bool
    sampled_min_gap: float
    scan_resolution_sufficient: bool
    suggested_depth: int | None = None

    @property
    def count(self):
        return len(self.branch_points)


def _check_tol(tol, exact_ok=False):
    """Refuse a tol that is not finite, or whose quarter is not positive: the
    branch scan resolves tol/4. Where exact_ok, tol = 0 (an exact test) and
    any finite tol >= 0 is accepted."""
    if exact_ok:
        if not (math.isfinite(tol) and tol >= 0):
            raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    elif not (math.isfinite(tol) and tol / 4.0 > 0):
        raise ValueError(
            f"tol must be finite and positive, with tol/4 > 0, got {tol!r}")


def _suggest_depth(spec, tol):
    """Smallest depth whose certificate out-resolves tol/4."""
    target = tol / 4.0
    # start one below the logarithmic estimate, which rounding can overshoot;
    # a difference of logarithms, since target / bound can underflow to 0.0
    depth = max(1, math.ceil((math.log(target)
                              - math.log(_certificate(spec, 0)[2]))
                             / math.log(spec.contraction_upper)) - 1)
    while _certificate(spec, depth)[2] >= target:
        depth += 1
    return depth


def _scan_pair(spec, approx, e, f, tol):
    """(sampled minimum gap, [(x, y, certified)], certified zero) for one
    parallel pair; certified detections lie on the coincidence set."""
    me, mf = spec.edge_maps[e.id], spec.edge_maps[f.id]
    pts = approx.cloud(e.range).points
    diff_matrix = me.matrix - mf.matrix
    diff_shift = mf.translation - me.translation
    gaps = np.linalg.norm(pts @ diff_matrix.T - diff_shift, axis=1)
    sampled_min = float(gaps.min())
    detections = [(me.apply(pts[i]), pts[i], False)
                  for i in np.nonzero(gaps <= tol)[0]]

    # the coincidence set is y0 + ker(diff_matrix), or empty
    _, sigma, vt = np.linalg.svd(diff_matrix)
    scale = max(1.0, float(sigma.max(initial=0.0)))
    rank = int(np.sum(sigma > _RANK_CUTOFF * scale))
    if rank == spec.dimension:
        y0 = np.linalg.solve(diff_matrix, diff_shift)
        # the set is {y0}; adding a zero projection would turn -0.0 into 0.0
        projected = np.broadcast_to(y0, pts.shape)
    else:
        y0 = np.linalg.lstsq(diff_matrix, diff_shift, rcond=None)[0]
        if np.linalg.norm(diff_matrix @ y0 - diff_shift) > \
                1e-9 * max(1.0, np.linalg.norm(diff_shift)):
            return sampled_min, detections, False
        null_basis = vt[rank:].T  # orthonormal columns spanning the kernel
        projected = y0 + ((pts - y0) @ null_basis) @ null_basis.T
    dist = np.linalg.norm(pts - projected, axis=1)
    close = np.nonzero(dist <= approx.error_bound + tol)[0]
    detections += [(me.apply(projected[i]), projected[i], True) for i in close]
    return sampled_min, detections, close.size > 0


def _cluster(detections, tol, source_vertex, range_vertex):
    """Greedy clustering of detections within tol; edge sets merge."""
    clusters = []  # [x, y, set(edges), certified]
    for x, y, certified, pair_edges in detections:
        placed = False
        for entry in clusters:
            if (np.linalg.norm(entry[0] - x) <= tol
                    and np.linalg.norm(entry[1] - y) <= tol):
                entry[2].update(pair_edges)
                if certified and not entry[3]:
                    entry[0], entry[1], entry[3] = x, y, True
                placed = True
                break
        if not placed:
            clusters.append([x.copy(), y.copy(), set(pair_edges), certified])
    out = []
    for x, y, edges, certified in clusters:
        ordered = tuple(sorted(edges))
        out.append(BranchPoint(
            x=LabeledPoint(vertex=source_vertex, coords=x),
            y=LabeledPoint(vertex=range_vertex, coords=y),
            edges=ordered,
            index=len(ordered),
            certified=certified))
    return out


def branch_points(spec, approx, tol):
    """Detect branch points over the sampled clouds, with exact affine witnesses.

    The reported minimum cograph gap is exact zero whenever some pair has a
    certified coincidence inside the invariant set; otherwise it is the
    sampled minimum (a resolution-limited estimate).
    """
    _check_tol(tol)
    sufficient = approx.error_bound < tol / 4.0
    parallel = {}
    for e in spec.graph.edges:
        parallel.setdefault((e.source, e.range), []).append(e)

    sampled_min = math.inf
    true_min = math.inf
    points = []
    for (source, rng), edges in sorted(parallel.items()):
        detections = []
        for e, f in itertools.combinations(edges, 2):
            pair_min, found, certified_zero = _scan_pair(spec, approx, e, f, tol)
            sampled_min = min(sampled_min, pair_min)
            true_min = min(true_min, 0.0 if certified_zero else pair_min)
            detections += [(x, y, certified, (e.id, f.id))
                           for x, y, certified in found]
        detections.sort(key=lambda item: (not item[2],
                                          tuple(item[0]), tuple(item[1])))
        points.extend(_cluster(detections, tol, source, rng))

    points.sort(key=lambda bp: (bp.edges, bp.x.coords))
    return BranchReport(
        branch_points=points, min_cograph_gap=true_min, tol=tol,
        sample_depth=approx.depth,
        has_parallel_pairs=any(len(edges) > 1 for edges in parallel.values()),
        sampled_min_gap=sampled_min, scan_resolution_sufficient=sufficient,
        suggested_depth=None if sufficient else _suggest_depth(spec, tol))


def branch_index(spec, x, y, tol):
    """#{edges e : source(e) = vertex(x), range(e) = vertex(y), phi_e(y) = x}
    with the coincidence tested at tolerance tol."""
    ya = y.array()
    xa = x.array()
    count = 0
    for e in spec.graph.edges:
        if e.source != x.vertex or e.range != y.vertex:
            continue
        if np.linalg.norm(spec.edge_maps[e.id].apply(ya) - xa) <= tol:
            count += 1
    return count


@dataclass
class SeparationResult:
    holds: bool
    min_gap: float
    witness: tuple | None
    note: str


def graph_separation(report):
    """Pairwise disjointness of all cographs, decided from a branch report.

    When it holds, the correspondence algebra is isomorphic to the graph
    algebra of the underlying graph.
    """
    holds = not report.branch_points and report.min_cograph_gap > report.tol
    witness = None
    if report.branch_points:
        bp = report.branch_points[0]
        witness = (bp.edges[0], bp.edges[1], bp.y)
    note = ("separation holds: the associated algebra is isomorphic to the "
            "C*-algebra of the underlying graph"
            if holds else
            "separation fails: distinct cographs intersect")
    return SeparationResult(holds=holds, min_gap=report.min_cograph_gap,
                            witness=witness, note=note)


@dataclass
class OscResult:
    holds: bool | None
    failures: tuple


def _candidate_pieces(spec, vertex):
    pieces = spec.open_sets.get(vertex)
    if not pieces:
        raise SpecValidationError(f"missing open-set candidate at {vertex!r}")
    box = spec.seed_boxes[vertex]
    tol = 1e-9 * max(1.0, box.diameter)
    for piece in pieces:
        if spec.dimension == 1:
            if not isinstance(piece, Interval):
                raise SpecValidationError(
                    f"open-set piece at {vertex!r} must be an interval")
            inside = box.lo[0] - tol <= piece.lo and piece.hi <= box.hi[0] + tol
        else:
            if not isinstance(piece, ConvexPolygon):
                raise SpecValidationError(
                    f"open-set piece at {vertex!r} must be a convex polygon")
            inside = box.contains(piece.vertices, tol=tol)
        if not inside:
            raise SpecValidationError(
                f"open-set piece at {vertex!r} leaves the seed box")
    return pieces


def open_set_condition(spec, tol=1e-9):
    """Verify a user-supplied open-set candidate family.

    Returns holds=None when the system carries no candidate. Otherwise checks
    that every edge image of the candidate at range(e) nests into the
    candidate at source(e), and that images of distinct edges with a common
    source have disjoint interiors.
    """
    _check_tol(tol, exact_ok=True)
    if spec.open_sets is None:
        return OscResult(holds=None, failures=())
    candidates = {v: _candidate_pieces(spec, v) for v in spec.graph.vertices}
    failures = []
    one_d = spec.dimension == 1
    images = {e.id: [p.transform(spec.edge_maps[e.id])
                     for p in candidates[e.range]]
              for e in spec.graph.edges}
    for v in spec.graph.vertices:
        target = candidates[v]
        out = spec.graph.out_edges(v)
        for e in out:
            for k, piece in enumerate(images[e.id]):
                ok = (interval_in_union(piece, target, tol) if one_d
                      else polygon_in_union(piece, target, tol))
                if not ok:
                    failures.append(
                        f"containment: image of edge {e.id} (piece {k}) is not "
                        f"inside the candidate at {v}")
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                for a, pa in enumerate(images[out[i].id]):
                    for b, pb in enumerate(images[out[j].id]):
                        ok = (intervals_disjoint(pa, pb, tol) if one_d
                              else polygons_disjoint(pa, pb, tol))
                        if not ok:
                            failures.append(
                                f"overlap: images of edges {out[i].id} and "
                                f"{out[j].id} intersect at {v}")
    return OscResult(holds=not failures, failures=tuple(failures))


class Verdict(str, Enum):
    SIMPLE_PURELY_INFINITE = "SimplePurelyInfinite"
    HYPOTHESES_NOT_MET = "HypothesesNotMet"
    UNKNOWN = "Unknown"


@dataclass
class HypothesisReport:
    no_sinks_sources: bool
    irreducible: bool
    not_cyclic_permutation: bool
    open_set_condition: bool | None
    verdict: Verdict
    details: dict


def simplicity_report(spec, branch_report, osc):
    """Bundle the hypotheses under which the associated algebra is simple and
    purely infinite, given the system's branch report and open-set result."""
    sinks = has_sinks_or_sources(spec.graph)
    irreducible = is_irreducible(spec.graph)
    # definitional form of "not a cyclic permutation": some out-degree >= 2
    not_cyclic = any(len(spec.graph.out_edges(v)) >= 2
                     for v in spec.graph.vertices)

    checks = [sinks.clean, irreducible, not_cyclic]
    if all(checks) and osc.holds is True:
        verdict = Verdict.SIMPLE_PURELY_INFINITE
    elif all(checks) and osc.holds is None:
        verdict = Verdict.UNKNOWN
    else:
        verdict = Verdict.HYPOTHESES_NOT_MET

    details = {
        "quotient_dimension": branch_report.count,
        "left_action_by_compacts": branch_report.count == 0,
    }
    return HypothesisReport(
        no_sinks_sources=sinks.clean,
        irreducible=irreducible,
        not_cyclic_permutation=not_cyclic,
        open_set_condition=osc.holds,
        verdict=verdict,
        details=details)

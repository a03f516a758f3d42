"""The branch scan against the one it replaced.

`ref_branch_points` is the earlier `branch_points`, kept verbatim together
with its `_parallel_pairs`, `_PairScan`, `_scan_pair` and `_cluster`. It ran
two routes per parallel pair: `np.linalg.solve` plus a KD-tree distance when
M_e - M_f has full rank, `lstsq` plus a projection otherwise. The new scan
projects onto the coincidence set the same way for every rank, and must give
the same `BranchReport`, compared through `repr` so that -0.0 and 0.0 differ.
`_suggest_depth` is the current one in both, since its formula was mended
(see test_conditions.py for its own oracle).
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import mwlab.attractor
import mwlab.geometry
from conftest import approx_for, bundled
from mwlab.attractor import MWGraphSpec, SeedBox, invariant_list
from mwlab.conditions import BranchPoint, BranchReport, _suggest_depth, \
    branch_points
from mwlab.datasets import list_bundled
from mwlab.geometry import AffineContraction, LabeledPoint
from mwlab.graph import Graph
from specs_inline import doubled_gasket

_RANK_CUTOFF = 1e-10


def _parallel_pairs(graph):
    out = []
    edges = graph.edges
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            if (edges[i].source == edges[j].source
                    and edges[i].range == edges[j].range):
                out.append((edges[i], edges[j]))
    return out



@dataclass
class _PairScan:
    edge_e: str
    edge_f: str
    sampled_min: float
    detections: list      # (x_coords, y_coords, certified)
    certified_zero: bool


def _scan_pair(spec, approx, e, f, tol):
    me, mf = spec.edge_maps[e.id], spec.edge_maps[f.id]
    cloud = approx.cloud(e.range)
    pts = cloud.points
    diff_matrix = me.matrix - mf.matrix
    diff_shift = mf.translation - me.translation
    gaps = np.linalg.norm(pts @ diff_matrix.T - diff_shift, axis=1)
    sampled_min = float(gaps.min())

    detections = []
    for idx in np.nonzero(gaps <= tol)[0]:
        y = pts[idx]
        detections.append((me.apply(y), y, False))

    certified_zero = False
    u, sigma, vt = np.linalg.svd(diff_matrix)
    scale = max(1.0, float(sigma.max(initial=0.0)))
    rank = int(np.sum(sigma > _RANK_CUTOFF * scale))
    d = spec.dimension
    membership_slack = approx.error_bound + tol
    if rank == d:
        y_star = np.linalg.solve(diff_matrix, diff_shift)
        if cKDTree(cloud.points).query(y_star)[0] <= membership_slack:
            detections.insert(0, (me.apply(y_star), y_star, True))
            certified_zero = True
    else:
        # rank-deficient: either no solution at all, or an affine subspace
        y0, residual, *_ = np.linalg.lstsq(diff_matrix, diff_shift, rcond=None)
        consistent = np.linalg.norm(diff_matrix @ y0 - diff_shift) <= \
            1e-9 * max(1.0, np.linalg.norm(diff_shift))
        if consistent:
            null_basis = vt[rank:].T  # orthonormal columns spanning the kernel
            rel = pts - y0
            projected = y0 + (rel @ null_basis) @ null_basis.T
            dist = np.linalg.norm(pts - projected, axis=1)
            close = np.nonzero(dist <= membership_slack)[0]
            if close.size:
                certified_zero = True
            for idx in close:
                q = projected[idx]
                detections.append((me.apply(q), q, True))
    return _PairScan(e.id, f.id, sampled_min, detections, certified_zero)


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
            x=LabeledPoint(vertex=source_vertex, coords=tuple(float(c) for c in x)),
            y=LabeledPoint(vertex=range_vertex, coords=tuple(float(c) for c in y)),
            edges=ordered,
            index=len(ordered),
            certified=certified))
    return out


def ref_branch_points(spec, approx, tol):
    """Detect branch points over the sampled clouds, with exact affine witnesses.

    The reported minimum cograph gap is exact zero whenever some pair has a
    certified coincidence inside the invariant set; otherwise it is the
    sampled minimum (a resolution-limited estimate).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    pairs = _parallel_pairs(spec.graph)
    sufficient = approx.error_bound < tol / 4.0
    suggested = None if sufficient else _suggest_depth(spec, tol)
    if not pairs:
        return BranchReport(
            branch_points=[], min_cograph_gap=math.inf, tol=tol,
            sample_depth=approx.depth, has_parallel_pairs=False,
            sampled_min_gap=math.inf, scan_resolution_sufficient=sufficient,
            suggested_depth=suggested)

    sampled_min = math.inf
    true_min = math.inf
    points = []
    by_signature = {}
    for e, f in pairs:
        scan = _scan_pair(spec, approx, e, f, tol)
        sampled_min = min(sampled_min, scan.sampled_min)
        true_min = min(true_min,
                       0.0 if scan.certified_zero else scan.sampled_min)
        sig = (e.source, e.range)
        bucket = by_signature.setdefault(sig, [])
        for x, y, certified in scan.detections:
            bucket.append((x, y, certified, (e.id, f.id)))

    for (source, rng), detections in sorted(by_signature.items()):
        detections.sort(key=lambda item: (not item[2],
                                          tuple(item[0]), tuple(item[1])))
        points.extend(_cluster(detections, tol, source, rng))

    points.sort(key=lambda bp: (bp.edges, bp.x.coords))
    return BranchReport(
        branch_points=points, min_cograph_gap=true_min, tol=tol,
        sample_depth=approx.depth, has_parallel_pairs=True,
        sampled_min_gap=sampled_min, scan_resolution_sufficient=sufficient,
        suggested_depth=suggested)


def assert_same_report(spec, approx, tol):
    want = ref_branch_points(spec, approx, tol)
    got = branch_points(spec, approx, tol)
    assert repr(got) == repr(want)
    return got


# --- random one-vertex systems on the box [-1, 1]^d ---------------------------
#
# Every matrix has absolute row sums at most 9/32, and every translation is
# either at most 1/4 per axis or (1 - M) y* for the fixed point y* of an
# earlier map, which then has |y*| <= (1/4) / (1 - 9/32) per axis. Either way
# each image of the box nests in the box, with room to spare.

EIGHTHS = (1 / 16, 1 / 8, 3 / 32)
SMALL = (0.0, 1 / 32, -1 / 32)


@st.composite
def matrices(draw, d):
    if d == 1:
        return np.array([[draw(st.sampled_from(EIGHTHS))
                          * draw(st.sampled_from((1, -1)))]])
    a, dd = (draw(st.sampled_from(EIGHTHS)) * draw(st.sampled_from((1, -1)))
             for _ in range(2))
    return np.array([[a, draw(st.sampled_from(SMALL))],
                     [draw(st.sampled_from(SMALL)), dd]])


@st.composite
def similarities_fixing_origin(draw, d):
    s = draw(st.sampled_from((1 / 8, 3 / 16)))
    if d == 1:
        return np.array([[s * draw(st.sampled_from((1, -1)))]]), np.zeros(1)
    theta = draw(st.sampled_from((0.0, math.pi / 2, math.pi, 1.0, -2.5)))
    c, n = math.cos(theta), math.sin(theta)
    return s * np.array([[c, -n], [n, c]]), np.zeros(2)


def translations(d):
    return st.lists(st.sampled_from((0.0, 1 / 8, -1 / 8, 1 / 4, -3 / 16)),
                    min_size=d, max_size=d).map(np.array)


@st.composite
def one_vertex_systems(draw):
    d = draw(st.sampled_from((1, 2)))
    if draw(st.booleans()):
        maps = [draw(similarities_fixing_origin(d))]
    else:
        maps = [(draw(matrices(d)), draw(translations(d)))]
    for _ in range(draw(st.integers(1, 3))):
        pm, pt = maps[draw(st.integers(0, len(maps) - 1))]
        kind = draw(st.sampled_from(
            ("same", "shifted", "rank1", "generic", "similarity")))
        if kind == "same":          # difference of rank 0, consistent
            m, t = pm, pt
        elif kind == "shifted":     # rank 0, no solution unless t == pt
            m, t = pm, draw(translations(d))
        elif kind == "similarity":
            m, t = draw(similarities_fixing_origin(d))
        else:
            if kind == "rank1" and d == 2:
                u, v = (np.array(draw(st.sampled_from(
                    ((1, 0), (0, 1), (1, 1), (1, -1))))) for _ in range(2))
                m = pm + draw(st.sampled_from((1 / 32, -1 / 16))) \
                    * np.outer(u, v)
            else:                   # rank d, almost always
                m = draw(matrices(d))
            assume(abs(np.linalg.det(m)) > 1e-6)
            if draw(st.booleans()):
                # fix the partner's fixed point, so that the pair meets there
                y_star = np.linalg.solve(np.eye(d) - pm, pt)
                t = y_star - m @ y_star
            else:
                t = draw(translations(d))
        maps.append((m, t))
    edges = [(f"e{i}", "v", "v") for i in range(len(maps))]
    return MWGraphSpec(
        graph=Graph(["v"], edges), dimension=d,
        seed_boxes={"v": SeedBox((-1.0,) * d, (1.0,) * d)},
        edge_maps={f"e{i}": AffineContraction(m, t)
                   for i, (m, t) in enumerate(maps)})


@settings(max_examples=300, deadline=None)
@given(one_vertex_systems(), st.integers(2, 6),
       st.sampled_from((1e-6, 1e-3, 1e-2, 0.1)))
def test_matches_reference_scan(spec, depth, tol):
    assert_same_report(spec, invariant_list(spec, depth), tol)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(one_vertex_systems(), st.integers(2, 6),
       st.sampled_from((1e-6, 1e-3, 1e-2, 0.1)))
def test_matches_reference_scan_in_small_blocks(small_blocks, spec, depth,
                                                tol):
    # the reference maps and projects each cloud whole
    assert_same_report(spec, invariant_list(spec, depth), tol)


@pytest.mark.parametrize("tol", [1e-6, 1e-3])
@pytest.mark.parametrize("name", list_bundled())
def test_bundled_systems_match_reference(name, tol):
    assert_same_report(bundled(name), approx_for(name, 7), tol)


@pytest.mark.parametrize("name", list_bundled())
def test_bundled_systems_match_reference_in_small_blocks(name, small_blocks):
    assert_same_report(bundled(name), approx_for(name, 6), 1e-3)


def _similarity_pair(d):
    """Two similarities fixing the origin, so their branch point is y = 0."""
    spec = MWGraphSpec(
        graph=Graph(["v"], [("e1", "v", "v"), ("e2", "v", "v")]),
        dimension=d,
        seed_boxes={"v": SeedBox((-1.0,) * d, (1.0,) * d)},
        edge_maps={"e1": AffineContraction(0.25 * np.eye(d), np.zeros(d)),
                   "e2": AffineContraction(0.5 * np.eye(d), np.zeros(d))})
    return spec, invariant_list(spec, 4)


@pytest.mark.parametrize("d", [1, 2])
def test_full_rank_witness_keeps_its_sign(d):
    # (M_e - M_f) y = 0 with M_e - M_f = -I/4 solves to y = -0.0; adding a
    # zero projection to it would turn that into 0.0
    spec, approx = _similarity_pair(d)
    report = assert_same_report(spec, approx, 1e-6)
    assert report.count == 1 and report.branch_points[0].certified
    assert repr(report.branch_points[0].y.coords) == repr((-0.0,) * d)


def test_branch_scan_builds_no_kdtree(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the branch scan built a KD-tree")

    for name in ("squares_z2", "penrose", "duplicate_map"):
        approx = invariant_list(bundled(name), 6)
        for module in (mwlab.attractor, mwlab.geometry):
            monkeypatch.setattr(module, "cKDTree", refuse)
        assert branch_points(bundled(name), approx, 1e-3).count >= 0
        monkeypatch.undo()


@pytest.mark.parametrize("tol", [1e-6, 0.07])
def test_doubled_gasket_matches_reference(tol):
    # every cloud point is a certified witness of e1 and e4
    spec = doubled_gasket()
    report = assert_same_report(spec, invariant_list(spec, 6), tol)
    assert report.count == (729 if tol == 1e-6 else 68)


def test_doubled_gasket_matches_reference_in_small_blocks(small_blocks):
    spec = doubled_gasket()
    assert assert_same_report(spec, invariant_list(spec, 6), 1e-6).count == 729


def test_doubled_gasket_clusters_in_linear_time(monkeypatch):
    # 19,683 branch points at depth 9: comparing each detection with every
    # earlier cluster would take about 2e8 norms
    spec = doubled_gasket()
    approx = invariant_list(spec, 9)
    calls = []
    norm = np.linalg.norm

    def counted(*args, **kwargs):
        calls.append(1)
        return norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    report = branch_points(spec, approx, 1e-6)
    points = len(approx.cloud("v").points)
    assert report.count == points == 3 ** 9
    assert len(calls) <= 3 * points

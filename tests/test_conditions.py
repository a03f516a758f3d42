import math

import numpy as np
import pytest

from conftest import approx_for, bundled
from mwlab.attractor import MWGraphSpec, SeedBox, invariant_list
from mwlab.conditions import (
    Verdict,
    branch_index,
    branch_points,
    graph_separation,
    open_set_condition,
    simplicity_report,
)
from mwlab.errors import SpecValidationError
from mwlab.geometry import LabeledPoint
from mwlab.graph import Graph
from specs_inline import affine1, binary_ifs, duplicate_map_ifs


def hypotheses(spec, approx, tol):
    return simplicity_report(spec, branch_points(spec, approx, tol),
                             open_set_condition(spec, tol=tol))


class TestBranchPoints:
    def test_squares_single_branch_point(self):
        spec = bundled("squares_z2")
        report = branch_points(spec, approx_for("squares_z2", 9), tol=1e-6)
        assert report.count == 1
        bp = report.branch_points[0]
        assert bp.certified
        assert np.allclose(bp.x.coords, (0.5, 0.5), atol=1e-9)
        assert np.allclose(bp.y.coords, (1.0, 1.0), atol=1e-9)
        assert bp.x.vertex == "v1" and bp.y.vertex == "v1"
        assert bp.edges == ("e1", "e2")
        assert bp.index == 2
        assert report.min_cograph_gap <= report.tol

    def test_dust_no_branch_points(self):
        spec = bundled("two_part_dust")
        report = branch_points(spec, approx_for("two_part_dust", 9), tol=1e-6)
        assert report.count == 0
        assert not report.has_parallel_pairs
        assert report.min_cograph_gap == math.inf

    def test_binary_constant_gap(self):
        spec = binary_ifs()
        report = branch_points(spec, invariant_list(spec, 9), tol=1e-6)
        assert report.count == 0
        assert report.has_parallel_pairs
        assert report.min_cograph_gap == pytest.approx(0.5, abs=1e-12)
        assert report.sampled_min_gap == pytest.approx(0.5, abs=1e-12)

    def test_stability_under_refinement(self):
        spec = bundled("squares_z2")
        for depth in (8, 10):
            report = branch_points(spec, approx_for("squares_z2", depth), tol=1e-6)
            assert report.count == 1
            assert np.allclose(report.branch_points[0].x.coords, (0.5, 0.5),
                               atol=1e-9)

    def test_reported_index_matches_branch_index(self):
        spec = bundled("squares_z2")
        report = branch_points(spec, approx_for("squares_z2", 9), tol=1e-6)
        for bp in report.branch_points:
            assert branch_index(spec, bp.x, bp.y, tol=1e-6) == bp.index


class TestBranchIndex:
    def test_squares_center(self, squares_spec):
        x = LabeledPoint("v1", (0.5, 0.5))
        y = LabeledPoint("v1", (1.0, 1.0))
        assert branch_index(squares_spec, x, y, tol=1e-9) == 2

    def test_generic_point_off_cographs(self, squares_spec):
        x = LabeledPoint("v1", (0.123, 0.871))
        y = LabeledPoint("v1", (0.4, 0.2))
        assert branch_index(squares_spec, x, y, tol=1e-9) == 0

    def test_duplicate_maps(self):
        spec = duplicate_map_ifs()
        y = LabeledPoint("v", (0.375,))
        x = LabeledPoint("v", (0.1875,))
        assert branch_index(spec, x, y, tol=1e-12) == 2


class TestSeparation:
    def test_dust_holds(self):
        spec = bundled("two_part_dust")
        result = graph_separation(
            branch_points(spec, approx_for("two_part_dust", 9), tol=1e-6))
        assert result.holds
        assert result.min_gap > 0
        assert result.witness is None
        assert "isomorphic" in result.note

    def test_squares_fails_with_witness_at_corner(self):
        spec = bundled("squares_z2")
        result = graph_separation(
            branch_points(spec, approx_for("squares_z2", 9), tol=1e-6))
        assert not result.holds
        e, f, y = result.witness
        assert (e, f) == ("e1", "e2")
        assert np.allclose(y.coords, (1.0, 1.0), atol=1e-9)

    def test_duplicate_maps_fail_with_zero_gap(self):
        spec = duplicate_map_ifs()
        result = graph_separation(
            branch_points(spec, invariant_list(spec, 8), tol=1e-9))
        assert not result.holds
        assert result.min_gap == 0.0

    def test_consistency_with_branch_report(self):
        # branch points nonempty exactly when separation fails
        for name in ("squares_z2", "two_part_dust", "penrose"):
            spec = bundled(name)
            approx = approx_for(name, 9)
            report = branch_points(spec, approx, tol=1e-6)
            result = graph_separation(report)
            assert result.holds == (report.count == 0)


class TestOpenSetCondition:
    def test_binary_interval_candidate(self):
        assert open_set_condition(binary_ifs(), tol=0.0).holds is True

    def test_duplicate_maps_fail(self):
        result = open_set_condition(duplicate_map_ifs(), tol=0.0)
        assert result.holds is False
        assert any("overlap" in f for f in result.failures)

    def test_squares_quarter_tiling(self, squares_spec):
        result = open_set_condition(squares_spec, tol=0.0)
        assert result.holds is True
        assert result.failures == ()

    def test_unknown_without_candidate(self, penrose_spec):
        result = open_set_condition(penrose_spec, tol=1e-9)
        assert result.holds is None

    def test_containment_failure_detected(self):
        # candidate misses the right half, so e2's image is not contained
        g = Graph(["v"], [("e1", "v", "v"), ("e2", "v", "v")])
        from mwlab.geometry import Interval
        spec = MWGraphSpec(
            graph=g, dimension=1,
            seed_boxes={"v": SeedBox((0.0,), (1.0,))},
            edge_maps={"e1": affine1(0.5, 0.0), "e2": affine1(0.5, 0.5)},
            open_sets={"v": [Interval(0.0, 0.6)]})
        result = open_set_condition(spec, tol=1e-9)
        assert result.holds is False
        assert any("containment" in f for f in result.failures)

    @pytest.mark.parametrize("pieces, message", [
        ([], "missing open-set candidate at 'v'"),
        ([(0.0, 1.5)], "open-set piece at 'v' leaves the seed box"),
    ])
    def test_invalid_candidate_rejected(self, pieces, message):
        from mwlab.geometry import Interval
        spec = MWGraphSpec(
            graph=Graph(["v"], [("e1", "v", "v"), ("e2", "v", "v")]),
            dimension=1,
            seed_boxes={"v": SeedBox((0.0,), (1.0,))},
            edge_maps={"e1": affine1(0.5, 0.0), "e2": affine1(0.5, 0.5)},
            open_sets={"v": [Interval(lo, hi) for lo, hi in pieces]})
        with pytest.raises(SpecValidationError, match=message):
            open_set_condition(spec)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1e-9])
    def test_unusable_tol_rejected(self, tol):
        # with tol=inf every containment and overlap test passes, so the
        # duplicated maps would satisfy the condition
        with pytest.raises(ValueError, match="tol"):
            open_set_condition(duplicate_map_ifs(), tol=tol)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, 5e-324])
    def test_branch_scan_rejects_unusable_tol(self, tol):
        with pytest.raises(ValueError, match="tol"):
            branch_points(bundled("squares_z2"), approx_for("squares_z2", 5),
                          tol)


class TestSimplicityReport:
    def test_squares_simple_purely_infinite(self):
        spec = bundled("squares_z2")
        report = hypotheses(spec, approx_for("squares_z2", 9), tol=1e-6)
        assert report.verdict == Verdict.SIMPLE_PURELY_INFINITE
        assert report.no_sinks_sources and report.irreducible
        assert report.not_cyclic_permutation
        assert report.open_set_condition is True
        assert branch_points(spec, approx_for("squares_z2", 9),
                             tol=1e-6).count == 1
        assert report.details["quotient_dimension"] == 1
        assert report.details["left_action_by_compacts"] is False

    def test_two_cycle_hypotheses_not_met(self):
        g = Graph(["v1", "v2"], [("e1", "v1", "v2"), ("e2", "v2", "v1")])
        spec = MWGraphSpec(
            graph=g, dimension=1,
            seed_boxes={"v1": SeedBox((0.0,), (1.0,)),
                        "v2": SeedBox((0.0,), (1.0,))},
            edge_maps={"e1": affine1(0.5, 0.25), "e2": affine1(0.5, 0.25)})
        report = hypotheses(spec, invariant_list(spec, 6), tol=1e-6)
        assert report.verdict == Verdict.HYPOTHESES_NOT_MET
        assert not report.not_cyclic_permutation

    def test_missing_candidate_gives_unknown(self):
        spec = bundled("penrose")
        report = hypotheses(spec, approx_for("penrose", 8), tol=1e-6)
        assert report.verdict == Verdict.UNKNOWN
        assert report.open_set_condition is None

    def test_dust_zero_branch_details(self):
        spec = bundled("two_part_dust")
        report = hypotheses(spec, approx_for("two_part_dust", 9), tol=1e-6)
        assert branch_points(spec, approx_for("two_part_dust", 9),
                             tol=1e-6).count == 0
        assert report.details["left_action_by_compacts"] is True


class TestRankDeficientPairs:
    def test_maps_agreeing_on_a_line(self):
        # e1 and e2 differ only in the vertical scale, so they coincide
        # exactly on the x-axis; the invariant set is the origin
        g = Graph(["v"], [("e1", "v", "v"), ("e2", "v", "v")])
        from mwlab.geometry import AffineContraction
        spec = MWGraphSpec(
            graph=g, dimension=2,
            seed_boxes={"v": SeedBox((0.0, 0.0), (1.0, 1.0))},
            edge_maps={
                "e1": AffineContraction([[0.5, 0.0], [0.0, 0.5]], [0.0, 0.0]),
                "e2": AffineContraction([[0.5, 0.0], [0.0, 0.25]], [0.0, 0.0]),
            })
        approx = invariant_list(spec, 8)
        report = branch_points(spec, approx, tol=1e-6)
        assert report.min_cograph_gap == 0.0
        assert report.count >= 1
        bp = report.branch_points[0]
        assert bp.certified
        assert np.allclose(bp.y.coords, (0.0, 0.0), atol=2 * approx.error_bound)
        result = graph_separation(branch_points(spec, approx, tol=1e-6))
        assert not result.holds


class TestResolutionBookkeeping:
    def test_scan_flag_and_suggestion(self):
        spec = bundled("squares_z2")
        approx = approx_for("squares_z2", 6)
        report = branch_points(spec, approx, tol=1e-6)
        assert not report.scan_resolution_sufficient
        assert report.suggested_depth is not None
        # the certified witness is still found and exact
        assert report.count == 1 and report.branch_points[0].certified

    def test_sufficient_scan_at_coarse_tol(self):
        spec = binary_ifs()
        approx = invariant_list(spec, 10)
        report = branch_points(spec, approx, tol=0.1)
        assert report.scan_resolution_sufficient
        assert report.suggested_depth is None

    @pytest.mark.parametrize("name", ["binary_ifs", "duplicate_map"])
    def test_suggested_depth_is_the_smallest(self, name):
        # the first depth whose computed certificate is below tol/4
        spec, tol = bundled(name), 1e-3
        n = branch_points(spec, approx_for(name, 7), tol=tol).suggested_depth
        assert invariant_list(spec, n).error_bound < tol / 4
        assert tol / 4 <= invariant_list(spec, n - 1).error_bound

    def test_rejects_nonpositive_tol(self):
        spec = binary_ifs()
        with pytest.raises(ValueError):
            branch_points(spec, invariant_list(spec, 5), tol=0.0)

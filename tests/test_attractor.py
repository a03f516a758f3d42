import math
import warnings

import numpy as np
import pytest

from mwlab.attractor import (
    MWGraphSpec,
    SeedBox,
    coding_map_prefix,
    cylinder_set,
    invariance_residual,
    invariant_list,
    total_paths,
    write_point_cloud_csv,
)
from mwlab.errors import BudgetExceededError, ResolutionError, \
    SpecValidationError
from mwlab.geometry import hausdorff_distance, similarity_from_params
from mwlab.graph import Graph, paths_from
from specs_inline import affine1, binary_ifs, cantor_ifs, one_loop, \
    thin_cantor, two_part_dust


class TestSpecValidation:
    def test_sink_rejected(self):
        g = Graph(["a", "b"], [("e", "a", "b"), ("f", "b", "b")])
        # vertex a has no incoming edge
        with pytest.raises(SpecValidationError):
            MWGraphSpec(graph=g, dimension=1,
                        seed_boxes={"a": SeedBox((0,), (1,)),
                                    "b": SeedBox((0,), (1,))},
                        edge_maps={"e": affine1(0.5, 0), "f": affine1(0.5, 0)})

    def test_escaping_box_rejected(self):
        g = Graph(["v"], [("e1", "v", "v"), ("e2", "v", "v")])
        with pytest.raises(SpecValidationError):
            MWGraphSpec(graph=g, dimension=1,
                        seed_boxes={"v": SeedBox((0,), (1,))},
                        edge_maps={"e1": affine1(0.5, 0.0),
                                   "e2": affine1(0.5, 0.75)})

    def test_system_bounds(self):
        spec = two_part_dust()
        assert spec.contraction_upper == pytest.approx(0.75)
        assert spec.contraction_lower == pytest.approx(0.25)


class TestInvariantList:
    def test_binary_depth_10_exact_points(self):
        spec = binary_ifs()
        approx = invariant_list(spec, 10)
        pts = approx.cloud("v").points[:, 0]
        assert len(pts) == 1024
        expected = np.arange(1024) / 1024 + 2.0 ** -11
        np.testing.assert_array_equal(pts, expected)
        assert approx.error_bound <= 2.0 ** -10 * (1 + 1 / 8) + 1e-15
        # fills the interval at the certified resolution
        grid = np.linspace(0, 1, 2001)[:, None]
        assert hausdorff_distance(grid, pts[:, None]) <= 2.0 ** -10

    def test_cantor_ternary_digits(self):
        spec = cantor_ifs()
        depth = 8
        approx = invariant_list(spec, depth)
        for x in approx.cloud("v").points[:, 0]:
            # oracle: the first `depth` ternary digits must avoid 1
            value = x
            for _ in range(depth):
                digit = int(value * 3)
                assert digit in (0, 2)
                value = value * 3 - digit

    def test_dust_points_stay_in_their_boxes(self):
        spec = two_part_dust()
        approx = invariant_list(spec, 7)
        for v in spec.graph.vertices:
            assert spec.seed_boxes[v].contains(approx.cloud(v).points, tol=1e-9)

    def test_budget_error(self, monkeypatch):
        spec = binary_ifs()
        monkeypatch.setenv("MWLAB_POINT_BUDGET", "1000")
        with pytest.raises(BudgetExceededError) as err:
            invariant_list(spec, 12)
        assert err.value.required == 2 ** 12

    def test_budget_env_override(self, monkeypatch):
        spec = binary_ifs()
        monkeypatch.setenv("MWLAB_POINT_BUDGET", "100")
        with pytest.raises(BudgetExceededError):
            invariant_list(spec, 8)
        monkeypatch.setenv("MWLAB_POINT_BUDGET", "100000")
        invariant_list(spec, 8)

    @pytest.mark.parametrize("budget", [0, -5, "abc"])
    def test_invalid_explicit_budget(self, monkeypatch, budget):
        monkeypatch.setenv("MWLAB_POINT_BUDGET", str(budget))
        with pytest.raises(ValueError, match="MWLAB_POINT_BUDGET"):
            invariant_list(binary_ifs(), 3)

    @pytest.mark.parametrize("maker,depth", [(one_loop, 1100),
                                             (thin_cantor, 9)])
    def test_certificate_below_grid_key_range(self, maker, depth):
        # x/2 + 1/4 underflows c**depth to 0.0; the thin Cantor set's grid
        # cell (about 1e-21) would overflow int64 grid keys
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ResolutionError, match="grid keys"):
                invariant_list(maker(), depth)

    def test_thin_cantor_shallow_depth_computes(self):
        approx = invariant_list(thin_cantor(), 4)
        assert len(approx.cloud("v")) == 2 ** 4
        assert approx.error_bound > 0

    def test_total_paths_matches_enumeration(self):
        spec = two_part_dust()
        for n in (1, 2, 5):
            count = sum(len(paths_from(spec.graph, v, n))
                        for v in spec.graph.vertices)
            assert total_paths(spec, n) == count


class TestCodingMap:
    def test_fixed_point_path(self):
        spec = two_part_dust()
        p = spec.graph.make_path(["e1"] * 12)
        at_fixed = coding_map_prefix(spec, p, base=np.array([0.0, 0.0]))
        assert at_fixed.vertex == "v1"
        np.testing.assert_allclose(at_fixed.coords, [0.0, 0.0], atol=1e-15)
        # from any base the iterates converge geometrically to the fixed point
        drift = coding_map_prefix(spec, p, base=np.array([0.1, 0.9]))
        assert np.linalg.norm(drift.array()) <= 0.5 ** 12 * 2

    def test_cantor_prefix_exact(self):
        spec = cantor_ifs()
        p = spec.graph.make_path(["e2"] + ["e1"] * 9)
        pt = coding_map_prefix(spec, p, base=np.array([0.0]))
        assert pt.coords[0] == 2 / 3

    def test_residual_between_depths(self):
        spec = two_part_dust()
        p12 = spec.graph.make_path(["e1", "e2", "e4", "e3"] * 3)
        ext = spec.graph.make_path(p12.edges + ("e1",))
        a = coding_map_prefix(spec, p12)
        b = coding_map_prefix(spec, ext)
        bound = spec.max_diameter * spec.contraction_upper ** 12
        assert np.linalg.norm(a.array() - b.array()) <= bound

    def test_base_outside_box_rejected(self):
        spec = binary_ifs()
        p = spec.graph.make_path(["e1"])
        with pytest.raises(ValueError):
            coding_map_prefix(spec, p, base=np.array([2.0]))


class TestCylinders:
    def test_left_half(self):
        spec = binary_ifs()
        approx = invariant_list(spec, 8)
        cyl = cylinder_set(spec, spec.graph.make_path(["e1"]), approx)
        assert cyl.max() <= 0.5
        assert len(cyl) == len(approx.cloud("v"))

    def test_cylinder_within_parent_cloud(self):
        spec = two_part_dust()
        approx = invariant_list(spec, 8)
        for ids in (["e1"], ["e2"], ["e2", "e4"]):
            path = spec.graph.make_path(ids)
            cyl = cylinder_set(spec, path, approx)
            parent = approx.cloud(path.source).points
            gap = max(np.linalg.norm(parent - q, axis=1).min() for q in cyl)
            assert gap <= approx.error_bound * (1 + spec.contraction_upper)

    def test_injective_count(self):
        spec = cantor_ifs()
        approx = invariant_list(spec, 6)
        cyl = cylinder_set(spec, spec.graph.make_path(["e2", "e1"]), approx)
        assert len(np.unique(cyl, axis=0)) == len(approx.cloud("v"))


class TestResiduals:
    def test_binary_residual(self):
        spec = binary_ifs()
        approx = invariant_list(spec, 10)
        res = invariance_residual(spec, approx)
        assert res["v"] <= 2 * 2.0 ** -10

    def test_residual_below_twice_certificate(self):
        for spec in (binary_ifs(), cantor_ifs(), two_part_dust()):
            approx = invariant_list(spec, 8)
            res = invariance_residual(spec, approx)
            assert max(res.values()) <= 2 * approx.error_bound


class TestRefinementProperties:
    def test_successive_depth_distance_bound(self):
        for spec in (binary_ifs(), two_part_dust()):
            c = spec.contraction_upper
            diam = spec.max_diameter
            prev = invariant_list(spec, 4)
            for n in range(4, 8):
                nxt = invariant_list(spec, n + 1)
                d = max(hausdorff_distance(prev.cloud(v).points,
                                           nxt.cloud(v).points)
                        for v in spec.graph.vertices)
                assert d <= diam * c ** n
                prev = nxt

    def test_every_cloud_point_has_a_generating_path(self):
        spec = two_part_dust()
        depth = 6
        approx = invariant_list(spec, depth)
        for v in spec.graph.vertices:
            generated = np.array([
                coding_map_prefix(spec, p).coords
                for p in paths_from(spec.graph, v, depth)
            ])
            # round trip up to a few ulps (batched and single-point matmuls
            # may differ in the last bit)
            for row in approx.cloud(v).points:
                nearest = np.linalg.norm(generated - row, axis=1).min()
                assert nearest <= 1e-13

    def test_labels_match_path_sources(self):
        spec = two_part_dust()
        for p in paths_from(spec.graph, "v2", 4):
            assert coding_map_prefix(spec, p).vertex == p.source == "v2"

    def test_monotone_refinement(self):
        spec = two_part_dust()
        n = 6
        approx = invariant_list(spec, n)
        for v in spec.graph.vertices:
            pieces = [cylinder_set(spec, p, approx)
                      for p in paths_from(spec.graph, v, 1)]
            union = np.vstack(pieces)
            cloud = approx.cloud(v)
            directed = max(cloud.distance_to(q) for q in union)
            assert directed <= spec.max_diameter * spec.contraction_upper ** n


class TestCsvExport:
    def test_binary_rows_and_header(self, tmp_path):
        spec = binary_ifs()
        approx = invariant_list(spec, 10)
        out = tmp_path / "cloud.csv"
        paths_total, points_total = write_point_cloud_csv(spec, approx, out)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#")
        assert "paths=1024" in lines[0] and "deduplicated=0" in lines[0]
        assert lines[1] == "vertex,x"
        assert len(lines) == 2 + 1024
        assert paths_total == points_total == 1024

    def test_rows_sorted_and_deterministic(self, tmp_path):
        spec = two_part_dust()
        approx = invariant_list(spec, 6)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_point_cloud_csv(spec, approx, a)
        write_point_cloud_csv(spec, invariant_list(spec, 6), b)
        assert a.read_bytes() == b.read_bytes()

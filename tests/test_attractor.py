import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.spatial import cKDTree

import mwlab.attractor
from conftest import approx_for, bundled, cut_words, two_tree_hausdorff
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
from mwlab.datasets import list_bundled
from mwlab.errors import BudgetExceededError, ResolutionError, \
    SpecValidationError
from mwlab.geometry import _blocked_hausdorff, hausdorff_distance, \
    similarity_from_params
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

    def test_empty_graph_rejected_by_field(self):
        with pytest.raises(SpecValidationError) as info:
            MWGraphSpec(graph=Graph([], []), dimension=1, seed_boxes={},
                        edge_maps={})
        assert info.value.field == "vertices"

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

    def test_budget_error_beyond_int64(self, monkeypatch):
        monkeypatch.delenv("MWLAB_POINT_BUDGET", raising=False)
        # 2**62 paths fit in int64 and are reported exactly; 2**63 do not,
        # and the count is not carried to its full size
        with pytest.raises(BudgetExceededError) as err:
            invariant_list(binary_ifs(), 62)
        assert err.value.required == 2 ** 62
        with pytest.raises(BudgetExceededError, match="at least") as err:
            invariant_list(binary_ifs(), 10 ** 9)
        assert err.value.required is None
        assert err.value.budget == mwlab.attractor.DEFAULT_POINT_BUDGET

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


class TestPathsTotal:
    """The approximation carries the sweep's own path count."""

    @pytest.mark.parametrize("name", list_bundled())
    def test_bundled_examples(self, name):
        for depth in (1, 6):
            approx = approx_for(name, depth)
            assert approx.paths_total == total_paths(bundled(name), depth)

    def test_int64_boundary(self, monkeypatch):
        # two overlapping maps: 2**62 paths at depth 62 with a grid that
        # float64 still resolves; the sweep itself is stubbed to one point
        g = Graph(["v"], [("e1", "v", "v"), ("e2", "v", "v")])
        spec = MWGraphSpec(graph=g, dimension=1,
                           seed_boxes={"v": SeedBox((0.0,), (1.0,))},
                           edge_maps={"e1": affine1(0.9, 0.0),
                                      "e2": affine1(0.9, 0.1)})
        monkeypatch.setenv("MWLAB_POINT_BUDGET", str(2 ** 62))
        monkeypatch.setattr(mwlab.attractor, "_level",
                            lambda steps, dimension: np.zeros((1, dimension)))
        approx = invariant_list(spec, 62)
        assert approx.paths_total == total_paths(spec, 62) == 2 ** 62


class TestSweepMemory:
    """Peak traced allocation of one invariant_list call, per depth-n path.

    The sweep holds level n-2 of every vertex, one vertex's last level, one
    scratch block no larger than the biggest level n-2 block that vertex
    reaches, and the dedup's mask of one byte per row: each image is written
    straight into its level, and the last level is sorted in place and
    scanned one slab of rows at a time. That reads 12 bytes per path in 1-D
    and 17 to 20 in 2-D on the systems of one ratio, whose cut set is the
    depth-n paths. numpy's sort buffer (up to half the sorted array) is not
    allocated through tracemalloc's hooks and is not counted. At small
    depths the figure reads higher: penrose reads 22 at depth 12. Holding
    all of level n-1 beside the last level, with each edge's image made as
    a temporary first, took 20 in 1-D and 24 to 30 in 2-D; sorting by
    argsort, with a gathered copy and cloud-sized cell keys, 29 and 41 to
    42; a second copy of the whole last level and np.unique's temporaries,
    73 and 72.

    two_part_dust's cut set is far smaller than its depth-n paths, so its
    cases here pass with room to spare; its own test bounds the peak in
    bytes.
    """

    _peaks = {}

    def _peak_per_path(self, name, depth):
        key = (name, depth)
        if key not in self._peaks:
            spec = bundled(name)
            tracemalloc.start()
            try:
                invariant_list(spec, depth)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            self._peaks[key] = peak / total_paths(spec, depth)
        return self._peaks[key]

    @pytest.mark.parametrize("name,depth,bound", [("duplicate_map", 18, 50),
                                                  ("penrose", 12, 60),
                                                  ("two_part_dust", 16, 60),
                                                  # several slabs per vertex
                                                  ("duplicate_map", 20, 23),
                                                  ("penrose", 14, 33),
                                                  ("two_part_dust", 19, 30),
                                                  ("squares_z2", 9, 27)])
    def test_peak_bytes_per_path(self, name, depth, bound):
        assert self._peak_per_path(name, depth) < bound

    # Below what holding all of level n-1 beside the last level reads.
    @pytest.mark.parametrize("name,depth,bound", [("duplicate_map", 20, 15),
                                                  ("penrose", 14, 23),
                                                  ("two_part_dust", 19, 23),
                                                  ("squares_z2", 9, 22)])
    def test_peak_bytes_per_path_in_place(self, name, depth, bound):
        assert self._peak_per_path(name, depth) < bound

    def test_cut_set_peak_bytes(self):
        # 75,673 cut words of 4,194,304 depth-21 paths: 2.8 MB traced, where
        # the sweep over every path took 69 MB
        spec = bundled("two_part_dust")
        tracemalloc.start()
        try:
            invariant_list(spec, 21)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


class TestBlockPassMemory:
    """Peak traced allocation of the passes over finished clouds, which take
    one row block at a time (attractor._row_blocks); the clouds are made
    before tracing starts. scipy is imported by this module, so its import
    is not traced either. The KD-tree's nodes are not allocated through
    tracemalloc's hooks; its index array is.

    Building each vertex's union of images whole and querying it in one
    call took 35.7 MB for the residual on squares_z2 at depth 9, where the
    union of one vertex alone (4 * 4^9 rows) is 16 MiB; the blocks take
    5.5 MB. Joining the whole CSV text of penrose at depth 12 (7.9 MiB)
    took 35.8 MB; one block's coordinates as Python floats take 4.2 MB.
    """

    @staticmethod
    def _peak(call, *args):
        tracemalloc.start()
        try:
            call(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_residual_peak_bytes(self):
        approx = approx_for("squares_z2", 9)
        assert len(approx.cloud("v1")) == 4 ** 9
        assert self._peak(invariance_residual, bundled("squares_z2"),
                          approx) < 8 * 2 ** 20

    def test_csv_peak_bytes(self, tmp_path):
        approx = approx_for("penrose", 12)
        assert self._peak(write_point_cloud_csv, bundled("penrose"), approx,
                          tmp_path / "cloud.csv") < 6 * 2 ** 20


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

    @pytest.mark.parametrize("scale,named", [(1e200, "overflows"),
                                             (1e-200, "underflows")])
    def test_squares_outside_the_float_range_refused(self, scale, named):
        # 1e200 raised IndexError from the KD-tree's index n, and 1e-200
        # read 0.0, every square having underflowed
        g = Graph(["v"], [("e1", "v", "v"), ("e2", "v", "v")])
        spec = MWGraphSpec(graph=g, dimension=1,
                           seed_boxes={"v": SeedBox((-scale,), (scale,))},
                           edge_maps={"e1": affine1(0.5, -scale / 2),
                                      "e2": affine1(0.5, scale / 2)})
        approx = invariant_list(spec, 4)
        with pytest.raises(ResolutionError,
                           match=f"invariance residual at 'v': .*{named}"):
            invariance_residual(spec, approx)


RESIDUAL_DEPTHS = {"binary_ifs": 10, "cantor_ifs": 10, "duplicate_map": 10,
                   "two_part_dust": 10, "penrose": 8, "squares_z2": 6}


class TestResidualPin:
    def test_every_bundled_example_has_a_depth(self):
        assert sorted(RESIDUAL_DEPTHS) == sorted(list_bundled())

    @pytest.mark.parametrize("name", sorted(RESIDUAL_DEPTHS))
    def test_equals_two_tree_formula(self, name, monkeypatch, tree_builds):
        spec, approx = bundled(name), approx_for(name, RESIDUAL_DEPTHS[name])
        per_call = self._residual_tree_builds(spec, approx, monkeypatch,
                                              tree_builds)
        if name == "squares_z2":
            assert per_call == [1, 1]

    def test_equals_two_tree_formula_with_second_tree(self, monkeypatch,
                                                      tree_builds):
        # overlapping maps of three ratios: at depth 7 some cloud points are
        # no refinement point's nearest, so the residual needs its second
        # tree (no bundled cut-set cloud does at depths 6 to 16)
        g = Graph(["v"], [("e1", "v", "v"), ("e2", "v", "v"),
                          ("e3", "v", "v")])
        spec = MWGraphSpec(graph=g, dimension=1,
                           seed_boxes={"v": SeedBox((0.0,), (1.0,))},
                           edge_maps={"e1": affine1(0.375, 0.0),
                                      "e2": affine1(0.5, 0.0),
                                      "e3": affine1(0.3, 0.5)})
        approx = invariant_list(spec, 7)
        per_call = self._residual_tree_builds(spec, approx, monkeypatch,
                                              tree_builds)
        assert per_call == [2]

    def test_rows_outside_the_bound_are_queried_again(self, tree_queries):
        self._check_queried_again(tree_queries)

    def test_rows_outside_the_bound_are_queried_again_in_small_blocks(
            self, small_blocks, tree_queries):
        self._check_queried_again(tree_queries)

    @staticmethod
    def _check_queried_again(tree_queries):
        # two_part_dust has two ratios, and some of its image rows lie
        # farther from the cloud than the maximum found before their block:
        # they miss the bounded search and are queried again without a bound
        spec, approx = bundled("two_part_dust"), approx_for("two_part_dust", 8)
        res = invariance_residual(spec, approx)
        for v in spec.graph.vertices:
            union = np.vstack([spec.edge_maps[e.id].apply(approx.cloud(e.range).points)
                               for e in spec.graph.out_edges(v)])
            assert res[v] == two_tree_hausdorff(approx.cloud(v).points, union)
        again = [rows for log in tree_queries
                 for (_, before), (rows, bound) in zip(log, log[1:])
                 if before < math.inf and bound == math.inf]
        assert again

    @staticmethod
    def _residual_tree_builds(spec, approx, monkeypatch, tree_builds):
        """Check each residual against the two-tree formula; return the
        KD-trees each call of the shared Hausdorff routine built."""
        per_call = []

        def counted_distance(*args):
            start = len(tree_builds)
            out = _blocked_hausdorff(*args)
            per_call.append(len(tree_builds) - start)
            return out

        monkeypatch.setattr(mwlab.attractor, "_blocked_hausdorff",
                            counted_distance)
        res = invariance_residual(spec, approx)
        for v in spec.graph.vertices:
            union = np.vstack([spec.edge_maps[e.id].apply(approx.cloud(e.range).points)
                               for e in spec.graph.out_edges(v)])
            assert res[v] == two_tree_hausdorff(approx.cloud(v).points, union)
        assert len(per_call) == len(spec.graph.vertices)
        assert all(n in (1, 2) for n in per_call)
        return per_call


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
        words = cut_words(spec, depth)
        for v in spec.graph.vertices:
            generated = np.array([coding_map_prefix(spec, w).coords
                                  for w in words[v]])
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
            tree = cKDTree(approx.cloud(v).points)
            directed = max(tree.query(q)[0] for q in union)
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

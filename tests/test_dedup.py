"""The grid dedup and the cut-set sweep against independent oracles.

`reference_dedup` is the earlier `_dedup_sorted` (a row-wise np.unique) and
`reference_sweep` the earlier level sweep over every depth-n path (each level
stacked from per-edge chunks), both kept verbatim: where the cut set is the
depth-n paths, `invariant_list` must return the same rows, byte for byte, in
the same order. `reference_cut_sweep` maps each word of `cut_words`, found by
brute force in Fraction, one at a time; it checks the sweep on every system.
`_dedup_sorted` sorts a C-contiguous argument in place, so the oracles here
hand it a copy.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import bundled, cut_words, two_tree_hausdorff
from mwlab import attractor
from mwlab.attractor import _DEDUP_DIVISOR, MWGraphSpec, SeedBox, \
    _dedup_sorted, _image_blocks, _level, _out_maps, invariance_residual, \
    invariant_list, total_paths
from mwlab.datasets import list_bundled
from mwlab.geometry import AffineContraction, hausdorff_distance
from mwlab.graph import Graph


def reference_dedup(points, cell):
    """Lexicographically sort and keep the smallest point per grid cell."""
    order = np.lexsort(points.T[::-1])
    pts = points[order]
    keys = np.floor(pts / cell).astype(np.int64)
    _, first = np.unique(keys, axis=0, return_index=True)
    return pts[np.sort(first)]


def reference_sweep(spec, depth):
    """Every depth-n path's point, per start vertex, in edge order."""
    pts = {v: spec.base_point(v)[None, :] for v in spec.graph.vertices}
    for _ in range(depth):
        gathered = {v: [] for v in spec.graph.vertices}
        for e in spec.graph.edges:
            gathered[e.source].append(spec.edge_maps[e.id].apply(pts[e.range]))
        pts = {v: (np.vstack(chunks) if chunks else np.empty((0, spec.dimension)))
               for v, chunks in gathered.items()}
    return pts


def reference_cut_sweep(spec, depth):
    """Each cut word's point, per start vertex: phi_w(base(r(w))), one word
    at a time, innermost map first."""
    out = {}
    for v, words in cut_words(spec, depth).items():
        points = []
        for word in words:
            point = spec.base_point(spec.graph.edge(word[-1]).range)
            for eid in reversed(word):
                point = spec.edge_maps[eid].apply(point)
            points.append(point)
        out[v] = np.array(points).reshape(len(words), spec.dimension)
    return out


def cut_is_depth_n(spec, depth):
    """Whether every cut word has length n, so the cut set is the depth-n
    paths."""
    return all(len(w) == depth for words in cut_words(spec, depth).values()
               for w in words)


def grid_cell(spec, depth):
    return spec.max_diameter * spec.contraction_upper ** depth / _DEDUP_DIVISOR


def assert_same_clouds(spec, depth):
    approx = invariant_list(spec, depth)
    cell = grid_cell(spec, depth)
    for v, points in reference_sweep(spec, depth).items():
        want = reference_dedup(points, cell)
        got = approx.cloud(v).points
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def swept_rows(spec, depth):
    """invariant_list's result, and the rows it handed the dedup per vertex."""
    rows = []

    def recording(points, cell):
        rows.append(points.copy())
        return _dedup_sorted(points, cell)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(attractor, "_dedup_sorted", recording)
        approx = invariant_list(spec, depth)
    assert len(rows) == len(spec.graph.vertices)
    return approx, dict(zip(spec.graph.vertices, rows))


def assert_matches_cut_reference(spec, depth):
    approx, rows = swept_rows(spec, depth)
    cell = grid_cell(spec, depth)
    for v, want in reference_cut_sweep(spec, depth).items():
        got = rows[v]
        # one row per cut word; the sweep maps blocks of rows matrix by
        # matrix and the reference one row matrix by vector, which may round
        # differently in the last bits
        assert got.shape == want.shape
        assert hausdorff_distance(got, want) <= 1e-12
        cloud = approx.cloud(v).points
        assert cloud.tobytes() == reference_dedup(got, cell).tobytes()
        assert hausdorff_distance(cloud, want) <= \
            math.sqrt(spec.dimension) * cell + 1e-12


def assert_same_bytes(points, cell):
    got = _dedup_sorted(points.copy(), cell)
    want = reference_dedup(points, cell)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


CELLS = (0.25, 0.1, 1 / 1024, 3e-7)
# offsets within a cell, in units of the cell: on the lower boundary, a hair
# either side of it, the middle, and a hair below the upper boundary
FRACTIONS = (0.0, 1e-12, -1e-12, 0.5, 1 - 1e-12)


@st.composite
def clouds(draw):
    d = draw(st.sampled_from((1, 2)))
    cell = draw(st.sampled_from(CELLS))
    mode = draw(st.sampled_from(("mixed", "collapse", "distinct")))
    n = draw(st.integers(1, 40))
    if mode == "distinct":
        # every point in a cell of its own
        ks = draw(st.permutations(range(-n // 2, n - n // 2)))
        grid = [[k] * d for k in ks]
    elif mode == "collapse":
        # every point in one cell
        corner = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
        grid = [corner] * n
    else:
        grid = draw(st.lists(st.lists(st.integers(-3, 3), min_size=d,
                                      max_size=d), min_size=n, max_size=n))
    fracs = st.one_of(st.sampled_from(FRACTIONS),
                      st.floats(0.0, 1.0, exclude_max=True))
    rows = []
    for ks in grid:
        row = []
        for k in ks:
            frac = draw(fracs)
            if mode == "collapse":
                frac = min(max(frac, 0.25), 0.75)
            row.append((k + frac) * cell)
        rows.append(row)
    # signed zeros: equal under comparison, different bytes
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        rows[i][draw(st.integers(0, d - 1))] = draw(st.sampled_from((0.0, -0.0)))
    # exact duplicates, inserted anywhere
    for i in draw(st.lists(st.integers(0, n - 1), max_size=6)):
        rows.insert(draw(st.integers(0, len(rows))), list(rows[i]))
    return np.array(rows, dtype=float).reshape(len(rows), d), cell


@settings(max_examples=200, deadline=None)
@given(clouds())
def test_matches_reference(case):
    points, cell = case
    assert_same_bytes(points, cell)


@pytest.mark.parametrize("slab_rows", [1, 2, 3, 7])
@settings(max_examples=150, deadline=None)
@given(case=clouds())
def test_matches_reference_across_slab_boundaries(slab_rows, case):
    # slabs this short end inside most clouds, and each is stretched to the
    # end of its last grid column
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(attractor, "_SLAB_ROWS", slab_rows)
        assert_same_bytes(*case)


def test_grid_column_longer_than_a_slab(monkeypatch):
    # every point in one grid column, spread over several cells of it and
    # listed out of order: the first slab must take in the whole column
    monkeypatch.setattr(attractor, "_SLAB_ROWS", 4)
    rng = np.random.default_rng(3)
    points = np.column_stack([rng.uniform(0.0, 0.25, 200),
                              rng.choice([0.1, 0.3, 0.6, 0.9], 200)])
    got = _dedup_sorted(points.copy(), 0.25)
    assert len(got) == 4
    assert_same_bytes(points, 0.25)


def test_contiguous_argument_is_sorted_in_place():
    # nothing to drop: the sorted argument itself comes back
    rng = np.random.default_rng(5)
    for d in (1, 2):
        points = rng.permutation(np.arange(-500, 500))[:, None] * [1.0] * d
        want = reference_dedup(points, 0.5)
        got = _dedup_sorted(points, 0.5)
        assert np.shares_memory(got, points)
        assert got.tobytes() == points.tobytes() == want.tobytes()


def test_non_adjacent_rows_of_one_cell():
    # sorted, the first and third points share a cell and the second lies
    # between them in another, so comparing adjacent rows keeps all three
    points = np.array([(0.0, 0.9), (0.01, 0.1), (0.02, 0.9)])
    got = _dedup_sorted(points, 0.25)
    assert got.tolist() == [[0.0, 0.9], [0.01, 0.1]]
    assert_same_bytes(points, 0.25)


def test_signed_zeros_keep_input_order():
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        points = np.array([[first, 1.0], [second, 1.0], [second, 0.5]])
        got = _dedup_sorted(points, 0.25)
        assert np.signbit(got[:, 0]).tolist() == [np.signbit(second),
                                                   np.signbit(first)]
        assert_same_bytes(points, 0.25)


@pytest.mark.parametrize("d", [1, 2])
def test_signed_zeros_keep_input_order_in_large_clouds(d):
    # numpy sorts short arrays by insertion, which is stable anyway; at this
    # size an unstable sort reorders equal keys
    rng = np.random.default_rng(7)
    points = rng.choice([0.0, -0.0, 0.5], size=(3000, d))
    for cell in (0.25, 1e-9):
        assert_same_bytes(points, cell)


def test_empty_cloud():
    for d in (1, 2):
        assert _dedup_sorted(np.empty((0, d)), 0.1).shape == (0, d)


def test_non_contiguous_input():
    # a column slice of a wider array and a Fortran-ordered copy: rows that
    # cannot be viewed in place as one complex number each, so they are
    # copied and the argument is left as it was
    rng = np.random.default_rng(11)
    wide = rng.choice([0.0, -0.0, 0.1, 0.3, 0.55], size=(3000, 4))
    for points in (wide[:, 1:3], wide[::2, ::2], wide[:, :1],
                   np.asfortranarray(wide[:, :2])):
        assert not points.flags.c_contiguous
        before = points.tobytes()
        for cell in (0.25, 1e-9):
            got = _dedup_sorted(points, cell)
            want = reference_dedup(points, cell)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert not np.shares_memory(got, points)
            assert points.tobytes() == before


# every bundled example but two_part_dust has one ratio, and its cut set is
# the depth-n paths
UNIFORM = [name for name in list_bundled() if name != "two_part_dust"]


@pytest.mark.parametrize("name,depth", [("squares_z2", 6), ("penrose", 10),
                                        ("duplicate_map", 12),
                                        ("cantor_ifs", 12),
                                        ("binary_ifs", 12)])
def test_bundled_clouds_match_reference(name, depth):
    assert cut_is_depth_n(bundled(name), depth)
    assert_same_clouds(bundled(name), depth)


@pytest.mark.parametrize("name,depth", [
    (name, depth) for name in list_bundled() for depth in (1, 2, 3)
    if name in UNIFORM or depth == 1])
def test_shallow_bundled_clouds_match_reference(name, depth):
    # the last level is built from level n-2: here the base points (depth 2,
    # mapped one row at a time) or a single level, and at depth 1 from the
    # base points directly
    assert cut_is_depth_n(bundled(name), depth)
    assert_same_clouds(bundled(name), depth)


@pytest.mark.parametrize("name,depth", [
    *((name, depth) for name in list_bundled() for depth in (1, 2, 3)),
    ("two_part_dust", 6), ("two_part_dust", 12), ("penrose", 10),
    ("squares_z2", 5)])
def test_bundled_clouds_match_cut_reference(name, depth):
    assert_matches_cut_reference(bundled(name), depth)


def test_two_part_dust_cut_set_is_not_the_paths():
    # ratios 0.5, 0.5, 0.75 and 0.25: from depth 2 on some cut word is shorter
    spec = bundled("two_part_dust")
    assert cut_is_depth_n(spec, 1)
    for depth in (2, 3, 12):
        assert not cut_is_depth_n(spec, depth)


# Coefficients on a coarse lattice, so that different paths often land on the
# same point, and maps fixing 0 (zero shift), so that many land on the
# origin, the center of every seed box. -0.0 entries and shifts are drawn
# too, though apply's matmul sums from +0.0 and so never returns -0.0; the
# clouds() tests above cover signed zeros in the dedup itself.
SCALES = (0.25, -0.25, 0.3, 0.375, -0.375, 0.5, -0.5)
SHIFTS = (0.0, -0.0, 0.25, -0.25)


@st.composite
def contractions(draw, d):
    if d == 1:
        return AffineContraction([[draw(st.sampled_from(SCALES))]],
                                 [draw(st.sampled_from(SHIFTS + (0.5, -0.5)))])
    # at most 0.375 per entry: rows sum to at most 0.75, so with a shift of
    # at most 0.25 the image of [-1, 1]^2 stays inside it
    entry = st.sampled_from((0.0, -0.0, 0.25, -0.25, 0.3, 0.375, -0.375))
    matrix = draw(st.lists(st.lists(entry, min_size=2, max_size=2),
                           min_size=2, max_size=2).filter(
        lambda m: m[0][0] * m[1][1] != m[0][1] * m[1][0]))
    return AffineContraction(matrix, draw(st.lists(st.sampled_from(SHIFTS),
                                                   min_size=2, max_size=2)))


@st.composite
def systems(draw):
    """A valid system in d = 1 or 2 with 1-3 vertices and a depth that keeps
    it under 3000 paths."""
    d = draw(st.sampled_from((1, 2)))
    vertices = [f"v{i}" for i in range(draw(st.integers(1, 3)))]
    # a cycle through every vertex: no sinks and no sources
    pairs = [(v, vertices[(i + 1) % len(vertices)])
             for i, v in enumerate(vertices)]
    pairs += draw(st.lists(st.tuples(st.sampled_from(vertices),
                                     st.sampled_from(vertices)), max_size=3))
    maps = [draw(contractions(d)) for _ in pairs]
    # parallel edges with the very same map
    for i in draw(st.lists(st.integers(0, len(pairs) - 1), max_size=2)):
        pairs.append(pairs[i])
        maps.append(maps[i])
    # edges listed in any order, not grouped by source
    order = draw(st.permutations(range(len(pairs))))
    box = SeedBox((-1.0,) * d, (1.0,) * d)
    spec = MWGraphSpec(
        graph=Graph(vertices, [(f"e{k}", *pairs[k]) for k in order]),
        dimension=d, seed_boxes={v: box for v in vertices},
        edge_maps={f"e{k}": m for k, m in enumerate(maps)})
    depth = draw(st.integers(1, 10))
    while total_paths(spec, depth) > 3000:
        depth -= 1
    return spec, depth


@st.composite
def mixed_systems(draw):
    """A valid system in d = 1 or 2 whose maps' |scale| values differ by a
    factor of 1.5 or more, and a depth of at least 3 that keeps it under
    3000 paths: its cut set is seldom the depth-n paths. Each matrix is a
    scale from SCALES times a signed permutation matrix."""
    d = draw(st.sampled_from((1, 2)))
    vertices = [f"v{i}" for i in range(draw(st.integers(1, 3)))]
    pairs = [(v, vertices[(i + 1) % len(vertices)])
             for i, v in enumerate(vertices)]
    pairs += draw(st.lists(st.tuples(st.sampled_from(vertices),
                                     st.sampled_from(vertices)),
                           min_size=max(0, 2 - len(pairs)), max_size=3))
    scales = draw(st.lists(st.sampled_from(SCALES), min_size=len(pairs),
                           max_size=len(pairs)).filter(
        lambda ss: max(map(abs, ss)) >= 1.5 * min(map(abs, ss))))
    maps = []
    for s in scales:
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=d,
                              max_size=d))
        rows = np.eye(d)[list(draw(st.permutations(range(d))))]
        maps.append(AffineContraction(
            s * np.array(signs)[:, None] * rows,
            draw(st.lists(st.sampled_from(SHIFTS), min_size=d, max_size=d))))
    box = SeedBox((-1.0,) * d, (1.0,) * d)
    spec = MWGraphSpec(
        graph=Graph(vertices,
                    [(f"e{k}", *pair) for k, pair in enumerate(pairs)]),
        dimension=d, seed_boxes={v: box for v in vertices},
        edge_maps={f"e{k}": m for k, m in enumerate(maps)})
    depth = draw(st.integers(3, 10))
    while total_paths(spec, depth) > 3000:
        depth -= 1
    return spec, depth


@settings(max_examples=150, deadline=None)
@given(systems())
def test_random_systems_match_reference(case):
    assume(cut_is_depth_n(*case))
    assert_same_clouds(*case)


@settings(max_examples=150, deadline=None)
@given(systems())
def test_random_systems_match_cut_reference(case):
    assert_matches_cut_reference(*case)


@settings(max_examples=100, deadline=None)
@given(mixed_systems())
def test_mixed_ratio_systems_match_cut_reference(case):
    assert_matches_cut_reference(*case)


@settings(max_examples=100, deadline=None)
@given(systems(), st.data())
def test_random_systems_clouds_within_bounds_across_depths(case, data):
    # each cloud lies within its error bound of the invariant set, so two
    # clouds of one system lie within the sum of their bounds of each other
    spec, depth = case
    other = data.draw(st.integers(1, depth))
    a, b = invariant_list(spec, depth), invariant_list(spec, other)
    for v in spec.graph.vertices:
        assert hausdorff_distance(a.cloud(v).points, b.cloud(v).points) <= \
            a.error_bound + b.error_bound


@settings(max_examples=100, deadline=None)
@given(systems())
def test_random_systems_count_their_paths(case):
    spec, depth = case
    assert invariant_list(spec, depth).paths_total == total_paths(spec, depth)


def assert_residual_matches_whole_union(spec, depth):
    """The blocked residual against the union _level builds whole and the
    two-tree formula; the blocks, joined, are that union byte for byte."""
    approx = invariant_list(spec, depth)
    res = invariance_residual(spec, approx)
    for v in spec.graph.vertices:
        steps = [(m, approx.cloud(r).points) for m, _, r in _out_maps(spec, v)]
        union = _level(steps, spec.dimension)
        blocks = [block.copy() for block in _image_blocks(steps, spec.dimension)]
        assert np.concatenate(blocks).tobytes() == union.tobytes()
        assert res[v] == two_tree_hausdorff(approx.cloud(v).points, union)


# 50 draws for each block size: 100 in all
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(systems(), mixed_systems()))
def test_residual_in_small_blocks_matches_whole_union(small_blocks, case):
    assert_residual_matches_whole_union(*case)


@pytest.mark.parametrize("d", [1, 2])
def test_residual_with_a_one_row_range_cloud(small_blocks, d):
    # K_w is the fixed point of one map, a cloud of one row, and its image
    # joins the images of v's cloud: a one-row step between blocks of several
    half = 0.5 * np.eye(d)
    spec = MWGraphSpec(
        graph=Graph(["v", "w"], [("e1", "v", "v"), ("e2", "v", "w"),
                                 ("e3", "v", "v"), ("e4", "w", "w")]),
        dimension=d, seed_boxes={v: SeedBox((0.0,) * d, (1.0,) * d)
                                 for v in ("v", "w")},
        edge_maps={"e1": AffineContraction(half, np.zeros(d)),
                   "e2": AffineContraction(half, np.full(d, 0.5)),
                   "e3": AffineContraction(half, np.full(d, 0.25)),
                   "e4": AffineContraction(0.75 * np.eye(d), np.zeros(d))})
    approx = invariant_list(spec, 7)
    assert len(approx.cloud("w")) == 1 and len(approx.cloud("v")) > 3
    assert_residual_matches_whole_union(spec, 7)

"""The grid dedup and the path sweep against the code they replaced.

`reference_dedup` is the earlier `_dedup_sorted` (a row-wise np.unique) and
`reference_sweep` the earlier level sweep (each level stacked from per-edge
chunks), both kept verbatim as oracles: `invariant_list` must return the same
rows, byte for byte, in the same order. `_dedup_sorted` sorts a C-contiguous
argument in place, so the oracles here hand it a copy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bundled
from mwlab import attractor
from mwlab.attractor import _DEDUP_DIVISOR, MWGraphSpec, SeedBox, \
    _dedup_sorted, invariant_list, total_paths
from mwlab.datasets import list_bundled
from mwlab.geometry import AffineContraction
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


def assert_same_clouds(spec, depth):
    approx = invariant_list(spec, depth)
    cell = spec.max_diameter * spec.contraction_upper ** depth / _DEDUP_DIVISOR
    for v, points in reference_sweep(spec, depth).items():
        want = reference_dedup(points, cell)
        got = approx.cloud(v).points
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


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


@pytest.mark.parametrize("name,depth", [("squares_z2", 6), ("penrose", 10),
                                        ("two_part_dust", 12),
                                        ("duplicate_map", 12),
                                        ("cantor_ifs", 12),
                                        ("binary_ifs", 12)])
def test_bundled_clouds_match_reference(name, depth):
    assert_same_clouds(bundled(name), depth)


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("name", list_bundled())
def test_shallow_bundled_clouds_match_reference(name, depth):
    # the last level is built from level n-2: here the base points (depth 2,
    # mapped one row at a time) or a single level, and at depth 1 from the
    # base points directly
    assert_same_clouds(bundled(name), depth)


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


@settings(max_examples=150, deadline=None)
@given(systems())
def test_random_systems_match_reference(case):
    assert_same_clouds(*case)


@settings(max_examples=100, deadline=None)
@given(systems())
def test_random_systems_count_their_paths(case):
    spec, depth = case
    assert invariant_list(spec, depth).paths_total == total_paths(spec, depth)

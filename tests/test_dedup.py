"""The rank-based grid dedup against the row-wise np.unique it replaced.

`reference_dedup` is the earlier `_dedup_sorted`, kept verbatim as the oracle:
the new one must return the same rows, byte for byte, in the same order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bundled
from mwlab.attractor import _DEDUP_DIVISOR, _dedup_sorted, invariant_list
from mwlab.errors import ResolutionError


def reference_dedup(points, cell):
    """Lexicographically sort and keep the smallest point per grid cell."""
    order = np.lexsort(points.T[::-1])
    pts = points[order]
    keys = np.floor(pts / cell).astype(np.int64)
    _, first = np.unique(keys, axis=0, return_index=True)
    return pts[np.sort(first)]


def assert_same_bytes(points, cell):
    got = _dedup_sorted(points, cell)
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


def test_empty_cloud():
    for d in (1, 2):
        assert _dedup_sorted(np.empty((0, d)), 0.1).shape == (0, d)


def test_keys_refuse_to_wrap():
    # 7,000 distinct values on each of five axes: the mixed-radix key would
    # need 7000**5 > 2**63 values
    points = np.random.default_rng(5).random((7000, 5))
    with pytest.raises(ResolutionError, match="int64 dedup keys"):
        _dedup_sorted(points, 1e-3)
    _dedup_sorted(points[:, :4], 1e-3)


@pytest.mark.parametrize("name,depth", [("squares_z2", 6), ("penrose", 10),
                                        ("two_part_dust", 12),
                                        ("duplicate_map", 12),
                                        ("cantor_ifs", 12),
                                        ("binary_ifs", 12)])
def test_bundled_clouds_match_reference(name, depth):
    spec = bundled(name)
    approx = invariant_list(spec, depth)
    cell = spec.max_diameter * spec.contraction_upper ** depth / _DEDUP_DIVISOR
    pts = {v: spec.base_point(v)[None, :] for v in spec.graph.vertices}
    for _ in range(depth):
        gathered = {v: [] for v in spec.graph.vertices}
        for e in spec.graph.edges:
            gathered[e.source].append(spec.edge_maps[e.id].apply(pts[e.range]))
        pts = {v: np.vstack(chunks) for v, chunks in gathered.items()}
    for v in spec.graph.vertices:
        want = reference_dedup(pts[v], cell)
        got = approx.cloud(v).points
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

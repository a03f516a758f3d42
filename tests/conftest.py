import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.spatial import cKDTree

import mwlab.attractor
import mwlab.geometry
from mwlab.attractor import invariant_list
from mwlab.datasets import load_bundled
from mwlab.graph import paths_from

_SPEC_CACHE = {}
_APPROX_CACHE = {}


def bundled(name):
    if name not in _SPEC_CACHE:
        _SPEC_CACHE[name] = load_bundled(name)
    return _SPEC_CACHE[name]


def approx_for(name, depth):
    key = (name, depth)
    if key not in _APPROX_CACHE:
        _APPROX_CACHE[key] = invariant_list(bundled(name), depth)
    return _APPROX_CACHE[key]


@pytest.fixture
def squares_spec():
    return bundled("squares_z2")


@pytest.fixture
def dust_spec():
    return bundled("two_part_dust")


@pytest.fixture
def penrose_spec():
    return bundled("penrose")


def two_tree_hausdorff(a, b):
    """The two-tree formula: one KD-tree per side, each side queried in full."""
    pa = np.atleast_2d(np.asarray(a, dtype=float))
    pb = np.atleast_2d(np.asarray(b, dtype=float))
    d_ab = cKDTree(pb).query(pa, workers=-1)[0].max()
    d_ba = cKDTree(pa).query(pb, workers=-1)[0].max()
    return float(max(d_ab, d_ba))


@pytest.fixture
def tree_builds(monkeypatch):
    """Count the KD-trees hausdorff_distance builds."""
    builds = []

    def counted(data, *args, **kwargs):
        builds.append(len(data))
        return cKDTree(data, *args, **kwargs)

    monkeypatch.setattr(mwlab.geometry, "cKDTree", counted)
    return builds


@pytest.fixture(params=[2, 3])
def small_blocks(request, monkeypatch):
    """Cut every row-block pass over a finished cloud (the residual, the
    branch scan, the CSV and PNG writers) into blocks of 2, then of 3 rows,
    so that a few hundred rows already cross many block boundaries and end
    on every remainder."""
    monkeypatch.setattr(mwlab.attractor, "_BLOCK_ROWS", request.param)
    return request.param


def cut_words(spec, depth):
    """The cut set of each vertex at depth n, by brute force in Fraction.

    eps is the largest product of the edges' c_upper over all depth-n paths,
    found by listing them; a word from the vertex stops at its first prefix
    whose product is at most eps. Words are tuples of edge ids, outermost
    (first applied last) first.
    """
    g = spec.graph
    norm = {e.id: Fraction(spec.edge_maps[e.id].c_upper) for e in g.edges}
    eps = max(math.prod(norm[e] for e in p.edges)
              for v in g.vertices for p in paths_from(g, v, depth))

    def words(at, prefix, product):
        for e in g.out_edges(at):
            word, x = prefix + (e.id,), product * norm[e.id]
            if x <= eps:
                yield word
            else:
                yield from words(e.range, word, x)

    return {v: list(words(v, (), Fraction(1))) for v in g.vertices}

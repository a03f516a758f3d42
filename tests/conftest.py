import numpy as np
import pytest
from scipy.spatial import cKDTree

import mwlab.geometry
from mwlab.attractor import invariant_list
from mwlab.datasets import load_bundled

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

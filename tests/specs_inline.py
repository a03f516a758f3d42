"""Hand-built systems used across the test suite (independent of the bundled
dataset files, so dataset bugs cannot mask library bugs)."""

import numpy as np

from mwlab.attractor import MWGraphSpec, SeedBox
from mwlab.geometry import AffineContraction, ConvexPolygon, Interval, \
    similarity_from_params
from mwlab.graph import Graph


def affine1(a, b):
    return AffineContraction(np.array([[a]]), np.array([b]))


def binary_ifs(open_sets=True):
    g = Graph(["v"], [("e1", "v", "v"), ("e2", "v", "v")])
    return MWGraphSpec(
        graph=g, dimension=1,
        seed_boxes={"v": SeedBox((0.0,), (1.0,))},
        edge_maps={"e1": affine1(0.5, 0.0), "e2": affine1(0.5, 0.5)},
        open_sets={"v": [Interval(0.0, 1.0)]} if open_sets else None,
        name="binary-inline")


def cantor_ifs():
    g = Graph(["v"], [("e1", "v", "v"), ("e2", "v", "v")])
    return MWGraphSpec(
        graph=g, dimension=1,
        seed_boxes={"v": SeedBox((0.0,), (1.0,))},
        edge_maps={"e1": affine1(1 / 3, 0.0), "e2": affine1(1 / 3, 2 / 3)},
        name="cantor-inline")


def one_loop():
    """A single map x/2 + 1/4: the invariant set is the fixed point 1/2."""
    g = Graph(["v"], [("e1", "v", "v")])
    return MWGraphSpec(
        graph=g, dimension=1,
        seed_boxes={"v": SeedBox((0.0,), (1.0,))},
        edge_maps={"e1": affine1(0.5, 0.25)},
        name="one-loop-inline")


def thin_cantor():
    """0.01x and 0.01x + 0.99: a Cantor set with very small ratios."""
    g = Graph(["v"], [("e1", "v", "v"), ("e2", "v", "v")])
    return MWGraphSpec(
        graph=g, dimension=1,
        seed_boxes={"v": SeedBox((0.0,), (1.0,))},
        edge_maps={"e1": affine1(0.01, 0.0), "e2": affine1(0.01, 0.99)},
        name="thin-cantor-inline")


def duplicate_map_ifs():
    g = Graph(["v"], [("e1", "v", "v"), ("e2", "v", "v")])
    return MWGraphSpec(
        graph=g, dimension=1,
        seed_boxes={"v": SeedBox((0.0,), (1.0,))},
        edge_maps={"e1": affine1(0.5, 0.0), "e2": affine1(0.5, 0.0)},
        open_sets={"v": [Interval(0.0, 1.0)]},
        name="duplicate-inline")


def two_part_dust():
    g = Graph(["v1", "v2"], [
        ("e1", "v1", "v1"), ("e2", "v1", "v2"),
        ("e3", "v2", "v1"), ("e4", "v2", "v2"),
    ])
    return MWGraphSpec(
        graph=g, dimension=2,
        seed_boxes={
            "v1": SeedBox((-0.556, -0.256), (0.174, 1.185)),
            "v2": SeedBox((0.903, -0.347), (2.355, 1.111)),
        },
        edge_maps={
            "e1": similarity_from_params(0.5, 30.0, (0.0, 0.0)),
            "e2": similarity_from_params(0.5, 90.0, (0.0, 0.0)),
            "e3": similarity_from_params(0.75, -120.0, (1.0, 0.0)),
            "e4": similarity_from_params(0.25, -60.0, (1.0, 0.0)),
        },
        name="dust-inline")


def _half_maps(corners):
    return {f"e{i}": AffineContraction(0.5 * np.eye(2), corner)
            for i, corner in enumerate(corners, 1)}


def quarter_squares(strips=17, drop=None):
    """The unit square as four half-scale copies of itself, with the open-set
    candidate cut into vertical strips of equal width; strip `drop` (an
    index) is left out of the candidate."""
    edge_maps = _half_maps([(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)])
    pieces = [ConvexPolygon([[i / strips, 0.0], [(i + 1) / strips, 0.0],
                             [(i + 1) / strips, 1.0], [i / strips, 1.0]])
              for i in range(strips) if i != drop]
    return MWGraphSpec(
        graph=Graph(["v"], [(e, "v", "v") for e in edge_maps]), dimension=2,
        seed_boxes={"v": SeedBox((0.0, 0.0), (1.0, 1.0))},
        edge_maps=edge_maps, open_sets={"v": pieces},
        name=f"quarter-squares-{strips}-inline")


def doubled_gasket():
    """A Sierpinski gasket on the unit square, whose first map is listed
    twice: every point of the invariant set is a branch point of e1 and e4,
    and every cloud point is a certified witness."""
    edge_maps = _half_maps([(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.0, 0.0)])
    return MWGraphSpec(
        graph=Graph(["v"], [(e, "v", "v") for e in edge_maps]), dimension=2,
        seed_boxes={"v": SeedBox((0.0, 0.0), (1.0, 1.0))},
        edge_maps=edge_maps, name="doubled-gasket-inline")

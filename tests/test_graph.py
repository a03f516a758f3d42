import numpy as np
import pytest

from mwlab.graph import (
    Graph,
    Path,
    has_sinks_or_sources,
    is_irreducible,
    paths_from,
    vertex_matrix,
)
from mwlab.ktheory import IntMatrix


def squares_graph():
    # 3 loops at each vertex plus one crossing edge each way
    edges = [
        ("e1", "v1", "v1"), ("e2", "v1", "v1"), ("e3", "v1", "v1"),
        ("e5", "v1", "v2"),
        ("e4", "v2", "v1"),
        ("e6", "v2", "v2"), ("e7", "v2", "v2"), ("e8", "v2", "v2"),
    ]
    return Graph(["v1", "v2"], edges)


def penrose_graph():
    edges = [
        ("e1", "v1", "v1"), ("e2", "v1", "v1"), ("e3", "v1", "v2"),
        ("e4", "v2", "v1"), ("e5", "v2", "v2"),
    ]
    return Graph(["v1", "v2"], edges)


def binary_graph():
    return Graph(["v"], [("e1", "v", "v"), ("e2", "v", "v")])


class TestConstruction:
    def test_rejects_unknown_vertices(self):
        with pytest.raises(ValueError):
            Graph(["v1"], [("e1", "v1", "v2")])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            Graph(["v1", "v1"], [])
        with pytest.raises(ValueError):
            Graph(["v1"], [("e1", "v1", "v1"), ("e1", "v1", "v1")])

    def test_make_path_checks_composability(self):
        g = Graph(["a", "b"], [("e1", "a", "b"), ("e2", "b", "a")])
        p = g.make_path(["e1", "e2"])
        assert p.source == "a" and p.range == "a" and p.length == 2
        with pytest.raises(ValueError):
            g.make_path(["e1", "e1"])
        with pytest.raises(ValueError):
            g.make_path([])

    def test_make_path_accepts_a_path(self):
        g = Graph(["a", "b"], [("e1", "a", "b"), ("e2", "b", "a")])
        p = g.make_path(["e1", "e2"])
        assert g.make_path(p) == p
        # a Path is checked by its edges, with the same messages as edge ids
        for ids in (["e1", "e1"], [], ["e9"]):
            with pytest.raises((ValueError, KeyError)) as by_ids:
                g.make_path(ids)
            with pytest.raises(type(by_ids.value)) as by_path:
                g.make_path(Path(tuple(ids), source="a", range="a"))
            assert str(by_path.value) == str(by_ids.value)


class TestSinksSources:
    def test_squares_graph_clean(self):
        report = has_sinks_or_sources(squares_graph())
        assert report.sinks == () and report.sources == ()

    def test_isolated_vertex(self):
        report = has_sinks_or_sources(Graph(["v"], []))
        assert report.sinks == ("v",) and report.sources == ("v",)

    def test_single_arrow(self):
        g = Graph(["v1", "v2"], [("e", "v1", "v2")])
        report = has_sinks_or_sources(g)
        assert report.sinks == ("v2",) and report.sources == ("v1",)


class TestIrreducible:
    def test_squares_graph(self):
        assert is_irreducible(squares_graph())

    def test_one_way_arrow(self):
        assert not is_irreducible(Graph(["v1", "v2"], [("e", "v1", "v2")]))

    def test_single_loop(self):
        assert is_irreducible(Graph(["v"], [("e", "v", "v")]))

    def test_vertex_without_cycle(self):
        # v2 -> v1 -> v1: no path back to v2, and no cycle through v2
        g = Graph(["v1", "v2"], [("e1", "v1", "v1"), ("e2", "v2", "v1")])
        assert not is_irreducible(g)


class TestCyclicPermutation:
    # the rule simplicity_report applies inline: a graph is not a cyclic
    # permutation iff some vertex has out-degree >= 2
    @staticmethod
    def not_cyclic(g):
        return any(len(g.out_edges(v)) >= 2 for v in g.vertices)

    def test_two_cycle(self):
        g = Graph(["v1", "v2"], [("e1", "v1", "v2"), ("e2", "v2", "v1")])
        assert self.not_cyclic(g) is False

    def test_two_loops(self):
        assert self.not_cyclic(binary_graph()) is True

    def test_penrose_graph(self):
        assert self.not_cyclic(penrose_graph()) is True


class TestPathsFrom:
    def test_binary_depth_3(self):
        ps = paths_from(binary_graph(), "v", 3)
        assert len(ps) == 8
        assert [p.edges for p in ps[:3]] == [
            ("e1", "e1", "e1"), ("e1", "e1", "e2"), ("e1", "e2", "e1")]

    def test_penrose_depth_2_count(self):
        g = penrose_graph()
        ps = paths_from(g, "v1", 2)
        # brute-force oracle: enumerate composable edge pairs directly
        brute = [(a.id, b.id) for a in g.edges for b in g.edges
                 if a.source == "v1" and a.range == b.source]
        assert len(ps) == len(brute) == 8

    def test_out_degree_zero(self):
        g = Graph(["v1", "v2"], [("e", "v2", "v1")])
        assert paths_from(g, "v1", 2) == []

    def test_all_paths_composable(self):
        g = squares_graph()
        for p in paths_from(g, "v2", 3):
            rebuilt = g.make_path(p.edges)
            assert rebuilt.source == p.source == "v2"
            assert rebuilt.range == p.range

    @pytest.mark.parametrize("n", [2.5, 2.0, "2", None])
    def test_length_that_is_not_an_integer_is_refused(self, n):
        # no prefix ever has length 2.5: the search would never end
        with pytest.raises(ValueError, match=f"integer, got {n!r}"):
            paths_from(binary_graph(), "v", n)

    @pytest.mark.parametrize("n", [0, -1])
    def test_length_below_one_is_refused(self, n):
        with pytest.raises(ValueError, match=">= 1"):
            paths_from(binary_graph(), "v", n)

    def test_integer_like_lengths_accepted(self):
        g = binary_graph()
        assert paths_from(g, "v", np.int64(3)) == paths_from(g, "v", 3)
        assert paths_from(g, "v", True) == paths_from(g, "v", 1)


class TestVertexMatrix:
    def test_squares(self):
        assert vertex_matrix(squares_graph()) == IntMatrix([[3, 1], [1, 3]])

    def test_penrose(self):
        assert vertex_matrix(penrose_graph()) == IntMatrix([[2, 1], [1, 1]])

    def test_loops(self):
        g = Graph(["v"], [(f"e{i}", "v", "v") for i in range(5)])
        assert vertex_matrix(g) == IntMatrix([[5]])


class TestCountingInvariants:
    @pytest.mark.parametrize("maker", [squares_graph, penrose_graph, binary_graph])
    def test_enumeration_matches_matrix_power(self, maker):
        g = maker()
        for n in range(1, 7):
            a = vertex_matrix(g) ** n
            for i, v in enumerate(g.vertices):
                assert len(paths_from(g, v, n)) == sum(a.row(i))

    @pytest.mark.parametrize("maker,expected", [
        (squares_graph, True), (penrose_graph, True), (binary_graph, True),
    ])
    def test_irreducibility_matches_matrix_criterion(self, maker, expected):
        g = maker()
        a = vertex_matrix(g)
        n = len(g.vertices)
        total = IntMatrix.zeros(n, n)
        positive = False
        acc = IntMatrix.identity(n)
        for _ in range(n):
            acc = acc @ a
            total = total + acc
        positive = all(x > 0 for row in total.to_lists() for x in row)
        assert is_irreducible(g) == expected == positive

    def test_reducible_matrix_criterion(self):
        g = Graph(["v1", "v2"], [("e1", "v1", "v2"), ("e2", "v2", "v2")])
        a = vertex_matrix(g)
        acc, total = IntMatrix.identity(2), IntMatrix.zeros(2, 2)
        for _ in range(2):
            acc = acc @ a
            total = total + acc
        assert not all(x > 0 for row in total.to_lists() for x in row)
        assert not is_irreducible(g)

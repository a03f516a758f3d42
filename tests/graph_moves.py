"""Graph moves on vertex matrices, built here apart from the library.

A vertex matrix A has A[i][j] = the number of edges i -> j. Out-splitting,
in-splitting and passing to the dual (edge) graph keep the K-groups of the
graph algebra of a graph with no sinks and no sources.
"""

import random


def transpose(a):
    return [list(col) for col in zip(*a)]


def out_split(a, v, first):
    """Split vertex v in two. Copy v keeps the out-edges counted in ``first``
    (a row with 0 <= first <= a[v] entrywise); a new last vertex keeps the
    rest. Each edge into v is doubled, one copy into each half."""
    rest = [x - y for x, y in zip(a[v], first)]
    rows = [list(first) if i == v else list(row) for i, row in enumerate(a)]
    rows.append(rest)
    return [row + [row[v]] for row in rows]


def in_split(a, v, first):
    """Split vertex v by its in-edges: the out-split of the reversed graph."""
    return transpose(out_split(transpose(a), v, first))


def dual_graph(a):
    """One vertex per edge, and e -> f exactly when e ends where f starts."""
    n = len(a)
    edges = [(i, j) for i in range(n) for j in range(n) for _ in range(a[i][j])]
    return [[int(e[1] == f[0]) for f in edges] for e in edges]


def random_irreducible(seed, n, top=3):
    """Seeded n x n matrix with entries 0..top over a Hamiltonian cycle of ones."""
    rng = random.Random(seed)
    a = [[rng.randint(0, top) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        a[i][(i + 1) % n] = max(a[i][(i + 1) % n], 1)
    return a


def halve_row(row):
    """A split of ``row`` into two nonempty parts: the first part as a row."""
    first, left = [], (sum(row) + 1) // 2
    for x in row:
        take = min(x, left)
        first.append(take)
        left -= take
    return first


def one_minus_transpose(a):
    n = len(a)
    return [[int(i == j) - a[j][i] for j in range(n)] for i in range(n)]

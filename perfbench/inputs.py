"""Seeded inputs for the benchmark workloads.

Everything the program receives is made here from the workload seed: system
documents written as JSON files, the seeded subsample and observables of the
bimodule battery, and the integer matrices of the K-theory workload. The two
fault reproductions (`thin_cantor`, `one_loop`) are fixed documents that do
not depend on the seed.
"""

import json
import math
import random

BUNDLED = ("binary_ifs", "cantor_ifs", "duplicate_map", "penrose",
           "squares_z2", "two_part_dust")

# Vertex matrix of every generated system: [[2, 1], [1, 2]], so a depth-n
# sweep always enumerates 2 * 3**n paths whatever the seed.
GENERATED_EDGES = (("e1", "v1", "v1"), ("e2", "v1", "v1"), ("e3", "v1", "v2"),
                   ("e4", "v2", "v1"), ("e5", "v2", "v2"), ("e6", "v2", "v2"))
GENERATED_BOXES = {"v1": ((0.0, 0.0), (1.0, 1.0)),
                   "v2": ((2.0, 0.0), (3.0, 1.0))}


def generated_system(rng, name):
    """A random valid two-vertex planar system with vertex matrix [[2,1],[1,2]].

    Each edge map is a similarity of ratio 0.30..0.45, with a random rotation
    and reflection, placed so that it sends the range box into the source
    box. No open-set candidate is supplied.
    """
    centers = {v: ((lo[0] + hi[0]) / 2, (lo[1] + hi[1]) / 2)
               for v, (lo, hi) in GENERATED_BOXES.items()}
    edges = []
    for eid, source, range_ in GENERATED_EDGES:
        r = rng.uniform(0.30, 0.45)
        th = rng.uniform(0.0, 2 * math.pi)
        flip = -1.0 if rng.random() < 0.5 else 1.0
        m = [[r * math.cos(th), -r * math.sin(th) * flip],
             [r * math.sin(th), r * math.cos(th) * flip]]
        # half extent of the image of a unit box, per coordinate
        half = [0.5 * (abs(m[i][0]) + abs(m[i][1])) for i in range(2)]
        off = [rng.uniform(-0.9, 0.9) * (0.5 - half[i]) for i in range(2)]
        cs, cr = centers[source], centers[range_]
        t = [cs[i] + off[i] - (m[i][0] * cr[0] + m[i][1] * cr[1])
             for i in range(2)]
        edges.append({"id": eid, "source": source, "range": range_,
                      "map": {"kind": "affine", "matrix": m,
                              "translation": t}})
    return {
        "name": name,
        "dimension": 2,
        "vertices": [{"id": v, "seed_box": [list(lo), list(hi)]}
                     for v, (lo, hi) in GENERATED_BOXES.items()],
        "edges": edges,
    }


def thin_cantor():
    """0.01x and 0.01x + 0.99 on [0, 1]: at depth 9 the dedup grid cell is
    about 1e-21, so floor(x / cell) leaves the int64 range."""
    return {
        "name": "thin_cantor",
        "dimension": 1,
        "vertices": [{"id": "v", "seed_box": [[0.0], [1.0]]}],
        "edges": [
            {"id": "e1", "source": "v", "range": "v",
             "map": {"kind": "affine", "matrix": [[0.01]],
                     "translation": [0.0]}},
            {"id": "e2", "source": "v", "range": "v",
             "map": {"kind": "affine", "matrix": [[0.01]],
                     "translation": [0.99]}},
        ],
    }


def one_loop():
    """The single map x/2 + 1/4 on [0, 1]: c**n underflows near depth 1075."""
    return {
        "name": "one_loop",
        "dimension": 1,
        "vertices": [{"id": "v", "seed_box": [[0.0], [1.0]]}],
        "edges": [
            {"id": "e1", "source": "v", "range": "v",
             "map": {"kind": "affine", "matrix": [[0.5]],
                     "translation": [0.25]}},
        ],
    }


def write_doc(doc, path):
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return path


# --- integer matrices and graph moves ----------------------------------------


def random_irreducible(rng, n, top=3):
    """n x n matrix with entries 0..top, irreducible with no sinks or sources:
    a Hamiltonian cycle of ones is laid over uniform random entries."""
    a = [[rng.randint(0, top) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        j = (i + 1) % n
        a[i][j] = max(a[i][j], 1)
    return a


def out_split(a, v, rng):
    """Out-split vertex v: its out-edges are partitioned into two nonempty
    sets, one per copy; edges into v go into both copies."""
    n = len(a)
    targets = [w for w in range(n) for _ in range(a[v][w])]
    if len(targets) < 2:
        raise ValueError("out-split needs a vertex with out-degree >= 2")
    rng.shuffle(targets)
    cut = rng.randint(1, len(targets) - 1)
    part1, part2 = [0] * n, [0] * n
    for w in targets[:cut]:
        part1[w] += 1
    for w in targets[cut:]:
        part2[w] += 1
    old = list(range(n)) + [v]  # old vertex behind each new vertex
    rows = [part1 if i == v else part2 if i == n else a[i]
            for i in range(n + 1)]
    return [[rows[i][old[j]] for j in range(n + 1)] for i in range(n + 1)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def in_split(a, v, rng):
    """In-split vertex v: the out-split of the transposed graph."""
    return transpose(out_split(transpose(a), v, rng))


def dual_graph(a):
    """Edge graph: one vertex per edge, e -> f whenever range(e) = source(f)."""
    n = len(a)
    edges = [(i, j) for i in range(n) for j in range(n) for _ in range(a[i][j])]
    return [[1 if e[1] == f[0] else 0 for f in edges] for e in edges]


def busiest_vertex(a):
    return max(range(len(a)), key=lambda i: (sum(a[i]), -i))


MOVED_SIZES = (20, 22, 24, 26, 28, 30)
LARGE_SIZE = 40


def ktheory_cases(rng, bundled_matrices):
    """The fixed list of (label, matrix) pairs of one ktheory-moves pass.

    Random irreducible matrices of sizes 20..30 with their out- and
    in-splits, and one of size 40 on its own; every bundled matrix and the
    generated-system matrix [[2,1],[1,2]] with their out-split, in-split and
    dual graph; one small random matrix with its dual graph. Each move keeps
    the K-groups of the graph algebra. The Smith normal form's cost spreads
    most from matrix to matrix at the largest size, so only one matrix there.
    """
    cases = []
    for n in MOVED_SIZES:
        a = random_irreducible(rng, n)
        v = rng.randrange(n)
        w = rng.randrange(n)
        cases += [(f"random{n}", a),
                  (f"random{n}/out-split", out_split(a, v, rng)),
                  (f"random{n}/in-split", in_split(a, w, rng))]
    cases.append((f"random{LARGE_SIZE}", random_irreducible(rng, LARGE_SIZE)))
    small = [("generated", [[2, 1], [1, 2]])] + list(bundled_matrices)
    small.append(("random5", random_irreducible(rng, 5, top=1)))
    for label, a in small:
        cases.append((label, a))
        v = busiest_vertex(a)
        if label != "random5":
            cases.append((f"{label}/out-split", out_split(a, v, rng)))
            cases.append((f"{label}/in-split", in_split(a, v, rng)))
        cases.append((f"{label}/dual", dual_graph(a)))
    return cases


def base_label(label):
    return label.split("/", 1)[0]


def bimodule_coefficients(rng, edge_ids):
    """Coefficients of the seeded closed-form cograph functions and observables."""
    def cplx():
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return {
        "xi": {e: cplx() for e in edge_ids},
        "eta": {e: cplx() for e in edge_ids},
        "xi_k": (rng.uniform(-2, 2), rng.uniform(-2, 2)),
        "eta_k": (rng.uniform(-2, 2), rng.uniform(-2, 2)),
        "obs_k": (rng.uniform(-3, 3), rng.uniform(-3, 3)),
        "obs_phase": rng.uniform(0, 2 * math.pi),
    }


def make_rng(seed, label):
    return random.Random(f"{seed}:{label}")

"""Independent checks of the program's outputs.

Nothing here calls into mwlab. Each check either recomputes a result by a
different route (integer matrix powers, elimination over Fraction, exact
distances to known sets, a separate KD-tree, numpy over whole clouds) or
tests a property the method must have. A check returns a list of problem
strings; an empty list means the output passed.
"""

import cmath
import math
import os
import struct
import zlib
from fractions import Fraction
from math import gcd

import numpy as np
from scipy.spatial import cKDTree

# --- integer linear algebra ---------------------------------------------------


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_pow(a, n):
    size = len(a)
    result = [[int(i == j) for j in range(size)] for i in range(size)]
    base = [list(r) for r in a]
    while n:
        if n & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        n >>= 1
    return result


def path_count(a, depth):
    """Number of depth-n paths: the sum of the row sums of A**n."""
    return sum(sum(row) for row in mat_pow(a, depth))


def one_minus_transpose(a):
    n = len(a)
    return [[int(i == j) - a[j][i] for j in range(n)] for i in range(n)]


def fraction_echelon(m):
    """Gaussian elimination over Fraction: (determinant, rank)."""
    rows = [[Fraction(x) for x in r] for r in m]
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    det = Fraction(1)
    rank = 0
    for col in range(n_cols):
        pivot = next((i for i in range(rank, n_rows) if rows[i][col] != 0), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            det = -det
        p = rows[rank][col]
        det *= p
        for i in range(rank + 1, n_rows):
            f = rows[i][col] / p
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    if n_rows != n_cols:
        det = None
    return det, rank


def determinant(m):
    det, _ = fraction_echelon(m)
    if det.denominator != 1:
        raise ArithmeticError("integer matrix with a non-integer determinant")
    return int(det)


def expected_ktheory(a):
    """(|det(1 - A^t)|, nullity of 1 - A^t) by elimination over Fraction."""
    delta = one_minus_transpose(a)
    det, rank = fraction_echelon(delta)
    return abs(int(det)), len(a) - rank


def small_invariant_factors(m):
    """Invariant factors of a 1x1 or 2x2 integer matrix: gcd and determinant."""
    if len(m) == 1:
        return [abs(m[0][0])]
    g = gcd(gcd(m[0][0], m[0][1]), gcd(m[1][0], m[1][1]))
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if g == 0:
        return [0, 0]
    return [g, abs(det) // g]


def group_from_factors(factors):
    """(free_rank, torsion) of Z^n / diag(factors)."""
    torsion = sorted(d for d in factors if d >= 2)
    free = sum(1 for d in factors if d == 0)
    return free, torsion


def check_group(label, group, free_rank, order=None, torsion=None):
    """group is the program's dict {"free_rank", "torsion", ...}."""
    out = []
    if group["free_rank"] != free_rank:
        out.append(f"{label}: free rank {group['free_rank']} != {free_rank}")
    if torsion is not None and list(group["torsion"]) != list(torsion):
        out.append(f"{label}: torsion {group['torsion']} != {torsion}")
    if order is not None:
        prod = 1
        for d in group["torsion"]:
            prod *= d
        if prod != order:
            out.append(f"{label}: torsion order {prod} != {order}")
    return out


def check_smith(label, m, u, d, v):
    """U M V = D, det U = det V = +-1, D diagonal with a divisibility chain."""
    out = []
    if mat_mul(mat_mul(u, m), v) != d:
        out.append(f"{label}: U M V != D")
        return out
    n = min(len(d), len(d[0]) if d else 0)
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            if i != j and x != 0:
                out.append(f"{label}: D has off-diagonal entry at {i},{j}")
                return out
    diag = [d[i][i] for i in range(n)]
    if any(x < 0 for x in diag):
        out.append(f"{label}: negative invariant factor")
    for x, y in zip(diag, diag[1:]):
        if (x == 0 and y != 0) or (x != 0 and y % x != 0):
            out.append(f"{label}: diagonal {x}, {y} breaks the divisibility chain")
            break
    det_m = determinant(m) if len(m) == len(m[0]) else 0
    if det_m != 0:
        # det U * det M * det V = det D with integer det U, det V, so
        # |det D| = |det M| forces |det U| = |det V| = 1
        prod = 1
        for x in diag:
            prod *= x
        if abs(prod) != abs(det_m):
            out.append(f"{label}: |det D| {abs(prod)} != |det M| {abs(det_m)}")
    else:
        for name, w in (("U", u), ("V", v)):
            if abs(determinant(w)) != 1:
                out.append(f"{label}: det {name} is not +-1")
    return out


def sympy_invariant_factors(m):
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form
    s = smith_normal_form(Matrix(m), domain=ZZ)
    return [abs(int(s[i, i])) for i in range(min(s.shape))]


# --- graphs and maps from the document ----------------------------------------


def vertex_matrix(doc):
    ids = [v["id"] for v in doc["vertices"]]
    index = {v: i for i, v in enumerate(ids)}
    a = [[0] * len(ids) for _ in ids]
    for e in doc["edges"]:
        a[index[e["source"]]][index[e["range"]]] += 1
    return a


def graph_conditions(a):
    """(no sinks or sources, irreducible, not a cyclic permutation)."""
    n = len(a)
    clean = all(sum(a[i]) > 0 for i in range(n)) and \
        all(sum(a[i][j] for i in range(n)) > 0 for j in range(n))
    reach = [[a[i][j] > 0 for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    irreducible = all(all(r) for r in reach)
    not_cyclic = any(sum(a[i]) >= 2 for i in range(n))
    return clean, irreducible, not_cyclic


def doc_map(entry, dimension):
    """(matrix, translation) of an edge map, as numpy arrays."""
    kind = entry["kind"]
    if kind == "affine":
        return (np.array(entry["matrix"], dtype=float),
                np.array(entry["translation"], dtype=float))
    if kind == "similarity":
        th = math.radians(entry["rotation_deg"])
        r = entry["ratio"]
        m = r * np.array([[math.cos(th), -math.sin(th)],
                          [math.sin(th), math.cos(th)]])
        if entry.get("reflect", False):
            m = m @ np.diag([1.0, -1.0])
        fp = np.array(entry["fixed_point"], dtype=float)
        return m, fp - m @ fp
    if kind == "pairs":
        p1, q1 = complex(*entry["p1"]), complex(*entry["q1"])
        p2, q2 = complex(*entry["p2"]), complex(*entry["q2"])
        if entry.get("reflect", False):
            # z -> a conj(z) + b
            a = (q2 - q1) / (p2 - p1).conjugate()
            b = q1 - a * p1.conjugate()
            m = np.array([[a.real, a.imag], [a.imag, -a.real]])
        else:
            a = (q2 - q1) / (p2 - p1)
            b = q1 - a * p1
            m = np.array([[a.real, -a.imag], [a.imag, a.real]])
        return m, np.array([b.real, b.imag])
    raise ValueError(f"unknown map kind {kind!r}")


def doc_maps(doc):
    return {e["id"]: doc_map(e["map"], doc["dimension"]) for e in doc["edges"]}


# --- open set condition --------------------------------------------------------


def _inside_convex(points, poly, tol):
    """All points inside a convex polygon (either orientation)."""
    signs = np.array([
        (b[0] - a[0]) * (points[:, 1] - a[1]) - (b[1] - a[1]) * (points[:, 0] - a[0])
        for a, b in zip(poly, np.roll(poly, -1, axis=0))])
    return bool(np.all(signs >= -tol) or np.all(signs <= tol))


def _interiors_disjoint(p, q, tol):
    """Separating axis test for two convex polygons."""
    for poly in (p, q):
        n = len(poly)
        for k in range(n):
            edge = poly[(k + 1) % n] - poly[k]
            axis = np.array([-edge[1], edge[0]])
            axis = axis / np.linalg.norm(axis)
            pa, qa = p @ axis, q @ axis
            if pa.max() <= qa.min() + tol or qa.max() <= pa.min() + tol:
                return True
    return False


def open_set_condition(doc, tol=1e-9):
    """Own verdict on the open-set candidate: None without one.

    Supported candidates: one interval per vertex in dimension 1, one convex
    polygon per vertex in dimension 2 (the bundled systems use these).
    """
    cand = doc.get("open_sets")
    if not cand:
        return None
    maps = doc_maps(doc)
    ok = True
    by_source = {}
    for e in doc["edges"]:
        m, t = maps[e["id"]]
        (piece_r,) = cand[e["range"]]
        (piece_s,) = cand[e["source"]]
        if doc["dimension"] == 1:
            lo, hi = sorted(float(m[0][0]) * x + float(t[0]) for x in piece_r)
            if lo < piece_s[0] - tol or hi > piece_s[1] + tol:
                ok = False
            by_source.setdefault(e["source"], []).append((lo, hi))
        else:
            img = np.array(piece_r, dtype=float) @ m.T + t
            if not _inside_convex(img, np.array(piece_s, dtype=float), tol):
                ok = False
            by_source.setdefault(e["source"], []).append(img)
    for images in by_source.values():
        for i in range(len(images)):
            for j in range(i + 1, len(images)):
                if doc["dimension"] == 1:
                    (a0, a1), (b0, b1) = images[i], images[j]
                    if min(a1, b1) - max(a0, b0) > tol:
                        ok = False
                elif not _interiors_disjoint(images[i], images[j], tol):
                    ok = False
    return ok


def expected_verdict(doc):
    clean, irreducible, not_cyclic = graph_conditions(vertex_matrix(doc))
    osc = open_set_condition(doc)
    if clean and irreducible and not_cyclic:
        if osc is True:
            return "SimplePurelyInfinite"
        if osc is None:
            return "Unknown"
    return "HypothesesNotMet"


def parallel_pairs(doc):
    edges = doc["edges"]
    return [(edges[i], edges[j]) for i in range(len(edges))
            for j in range(i + 1, len(edges))
            if edges[i]["source"] == edges[j]["source"]
            and edges[i]["range"] == edges[j]["range"]]


def check_branch_points(doc, branch, tol=1e-9):
    """Certified witnesses must solve phi_e(y) = phi_f(y) = x exactly (to
    rounding) for their own edge pair; index = number of edges listed."""
    out = []
    maps = doc_maps(doc)
    for bp in branch["branch_points"]:
        y = np.array(bp["y"]["coords"])
        x = np.array(bp["x"]["coords"])
        if bp["index"] != len(bp["edges"]) or bp["index"] < 2:
            out.append(f"branch index {bp['index']} for edges {bp['edges']}")
        if not bp["certified"]:
            continue
        for eid in bp["edges"]:
            m, t = maps[eid]
            if np.linalg.norm(m @ y + t - x) > tol:
                out.append(f"branch witness x={x.tolist()} is not phi_{eid}(y)")
    return out


# --- point clouds --------------------------------------------------------------


def workers():
    return max(1, len(os.sched_getaffinity(0)))


def _tree(points):
    # unbalanced trees build about twice as fast on multi-million-point clouds
    return cKDTree(points, leafsize=64, balanced_tree=False,
                   compact_nodes=False)


def hausdorff(a, b):
    """Hausdorff distance of two finite sets, with a KD-tree built here."""
    a = np.asarray(a, dtype=float).reshape(len(a), -1)
    b = np.asarray(b, dtype=float).reshape(len(b), -1)
    d_ab = _tree(b).query(a, workers=workers())[0].max()
    d_ba = _tree(a).query(b, workers=workers())[0].max()
    return float(max(d_ab, d_ba))


def dist_to_cantor(x):
    """Distance from each x to the middle-thirds Cantor set (vectorized).

    Each point is followed through the ternary digits of its position until
    it falls into a removed middle third; a point never doing so within
    the resolution of a double is taken to lie in the set.
    """
    x = np.asarray(x, dtype=float)
    out = np.where(x < 0, -x, np.where(x > 1, x - 1, 0.0))
    idx = np.nonzero((x >= 0) & (x <= 1))[0]
    y = x[idx]
    scale = 1.0
    while idx.size and scale > 1e-300:
        middle = (y > 1 / 3) & (y < 2 / 3)
        ym = y[middle]
        out[idx[middle]] = scale * np.minimum(ym - 1 / 3, 2 / 3 - ym)
        keep = ~middle
        idx, y = idx[keep], y[keep]
        y = np.where(y <= 1 / 3, 3 * y, 3 * y - 2)
        scale /= 3
    return out


def hausdorff_1d_to_set(cloud, dist_fn, lo, hi):
    """Exact Hausdorff distance from a finite cloud to a compact set S in R,
    given min S = lo, max S = hi (both in S) and a vectorized distance to S."""
    x = np.sort(np.asarray(cloud, dtype=float).ravel())
    to_set = float(dist_fn(x).max())
    worst = max(x[0] - lo, hi - x[-1], 0.0)
    if len(x) > 1:
        gap = np.diff(x)
        mid = (x[:-1] + x[1:]) / 2
        delta = dist_fn(mid)
        inside = delta <= gap / 2
        if inside.any():
            worst = max(worst, float((gap[inside] / 2 - delta[inside]).max()))
    return max(to_set, worst)


def box_distance_upper(cloud, lo, hi, bound):
    """Upper estimate of the Hausdorff distance from a 2-d cloud to the box
    [lo, hi]: exact from cloud to box; from box to cloud through a grid of
    cells of side s with s*sqrt(2) <= bound, where a cell holding a cloud
    point is within its diagonal and an empty cell is measured from its
    center with a KD-tree."""
    pts = np.asarray(cloud, dtype=float)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    excess = np.maximum(lo - pts, 0) + np.maximum(pts - hi, 0)
    to_box = float(np.linalg.norm(excess, axis=1).max())
    width = float((hi - lo).max())
    k = max(0, math.ceil(math.log2(math.sqrt(2) * width / bound)))
    cells = 1 << k
    s = width / cells
    inside = np.all((pts >= lo) & (pts <= hi), axis=1)
    idx = np.minimum(((pts[inside] - lo) / s).astype(np.int64), cells - 1)
    occupied = np.zeros((cells, cells), dtype=bool)
    occupied[idx[:, 0], idx[:, 1]] = True
    worst = s * math.sqrt(2)
    empty = np.argwhere(~occupied)
    if len(empty):
        centers = lo + (empty + 0.5) * s
        d = _tree(pts).query(centers, workers=workers())[0]
        worst = max(worst, float(d.max()) + s / math.sqrt(2))
    return max(to_box, worst)


# Exact invariant sets of the bundled systems that have closed forms.
EXACT_SETS = {
    "binary_ifs": {"v": ("interval", 0.0, 1.0)},
    "cantor_ifs": {"v": ("cantor", 0.0, 1.0)},
    "duplicate_map": {"v": ("point", 0.0, 0.0)},
    "squares_z2": {"v1": ("box", (0.0, 0.0), (1.0, 1.0)),
                   "v2": ("box", (2.0, 0.0), (3.0, 1.0))},
}


def distance_to_exact(name, vertex, cloud, bound):
    kind, lo, hi = EXACT_SETS[name][vertex]
    if kind == "interval":
        return hausdorff_1d_to_set(
            cloud, lambda x: np.maximum(lo - x, 0) + np.maximum(x - hi, 0), lo, hi)
    if kind == "cantor":
        return hausdorff_1d_to_set(cloud, dist_to_cantor, lo, hi)
    if kind == "point":
        return hausdorff_1d_to_set(cloud, lambda x: np.abs(x - lo), lo, hi)
    return box_distance_upper(cloud, lo, hi, bound)


def check_cloud_exact(name, clouds, bound):
    """Every cloud within the certificate of its exact set."""
    out = []
    for v, pts in clouds.items():
        d = distance_to_exact(name, v, pts, bound)
        if not d <= bound:
            out.append(f"{name}/{v}: distance {d!r} to the exact set exceeds "
                       f"the certificate {bound!r}")
    return out


def check_cloud_triangle(name, clouds, bound, shallow, shallow_bound):
    """H(cloud_n, cloud_m) <= bound_n + bound_m for a shallow depth m."""
    out = []
    for v, pts in clouds.items():
        d = hausdorff(pts, shallow[v])
        if not d <= bound + shallow_bound:
            out.append(f"{name}/{v}: H(cloud_n, cloud_m) = {d!r} exceeds "
                       f"{bound!r} + {shallow_bound!r}")
    return out


# --- files ---------------------------------------------------------------------


def parse_csv(text):
    """(header fields, {vertex: points}) of a point-cloud CSV."""
    lines = text.splitlines()
    fields = dict(tok.split("=", 1) for tok in lines[0][2:].split())
    clouds = {}
    for line in lines[2:]:
        vertex, *coords = line.split(",")
        clouds.setdefault(vertex, []).append([float(c) for c in coords])
    return fields, {v: np.array(p) for v, p in clouds.items()}


def png_size_from_boxes(doc, px):
    """(width, height) implied by the union of the seed boxes plus 5%."""
    los = np.array([v["seed_box"][0] for v in doc["vertices"]], dtype=float)
    his = np.array([v["seed_box"][1] for v in doc["vertices"]], dtype=float)
    lo, hi = los.min(axis=0), his.max(axis=0)
    if doc["dimension"] == 1:
        w = hi[0] - lo[0]
        lo, hi = np.array([lo[0], -0.05 * w]), np.array([hi[0], 0.05 * w])
    span = (hi - lo) * 1.1
    return px, max(16, int(round(px * span[1] / span[0])))


def check_png(data, width, height, max_marked):
    out = []
    if data[:8] != b"\x89PNG\r\n\x1a\n":
        return ["PNG signature missing"]
    pos, chunks = 8, []
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos:pos + 4])
        tag = data[pos + 4:pos + 8]
        payload = data[pos + 8:pos + 8 + length]
        (crc,) = struct.unpack(">I", data[pos + 8 + length:pos + 12 + length])
        if zlib.crc32(tag + payload) & 0xFFFFFFFF != crc:
            out.append(f"PNG chunk {tag!r} has a bad CRC")
        chunks.append((tag, payload))
        pos += 12 + length
    tags = [t for t, _ in chunks]
    if out:
        return out
    if tags[0] != b"IHDR" or tags[-1] != b"IEND":
        return out + [f"PNG chunk order {tags}"]
    w, h, depth, color = struct.unpack(">IIBB", chunks[0][1][:10])
    if (w, h) != (width, height) or (depth, color) != (8, 2):
        out.append(f"PNG is {w}x{h} depth {depth} color {color}, "
                   f"expected {width}x{height} RGB8")
        return out
    try:
        raw = zlib.decompress(b"".join(p for t, p in chunks if t == b"IDAT"))
    except zlib.error as exc:
        return out + [f"PNG pixel data does not inflate: {exc}"]
    if len(raw) != h * (1 + 3 * w):
        return out + ["PNG pixel data has the wrong length"]
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(h, 1 + 3 * w)
    if rows[:, 0].any():
        out.append("PNG uses a row filter")
    marked = int(np.any(rows[:, 1:].reshape(h, w, 3) != 255, axis=2).sum())
    if not 0 < marked <= max_marked:
        out.append(f"PNG marks {marked} pixels for {max_marked} points")
    return out


# --- bimodule -------------------------------------------------------------------


def closed_form_values(coeffs, key, x, y, edge):
    """Vectorized value of the closed-form cograph function `key` at arrays
    x, y (N, d) on edge `edge`:  c_e * exp(i k.x) + y_0 / 2."""
    kx = x @ np.array(coeffs[key + "_k"][:x.shape[1]])
    return coeffs[key][edge] * np.exp(1j * kx) + y[:, 0] / 2


def closed_form_scalar(coeffs, key, x, y, edge):
    kx = sum(k * c for k, c in zip(coeffs[key + "_k"], x))
    return coeffs[key][edge] * cmath.exp(1j * kx) + y[0] / 2


def observable_scalar(coeffs, x):
    kx = sum(k * c for k, c in zip(coeffs["obs_k"], x))
    return cmath.exp(1j * (kx + coeffs["obs_phase"])) + 0.25 * x[0]


def inner_products_numpy(doc, coeffs, clouds, order):
    """<xi, eta>(y) for every cloud point, from the edge matrices:
    sum over incoming edges e of conj(xi(phi_e(y), y)) eta(phi_e(y), y)."""
    maps = doc_maps(doc)
    values = []
    for v in order:
        y = clouds[v]
        total = np.zeros(len(y), dtype=complex)
        for e in doc["edges"]:
            if e["range"] != v:
                continue
            m, t = maps[e["id"]]
            x = y @ m.T + t
            total += (np.conj(closed_form_values(coeffs, "xi", x, y, e["id"]))
                      * closed_form_values(coeffs, "eta", x, y, e["id"]))
        values.append(total)
    return np.concatenate(values)


def norms_numpy(doc, coeffs, clouds):
    """(sup_y sqrt(<xi, xi>(y)), sup |xi|) over the clouds."""
    maps = doc_maps(doc)
    n2 = ninf = 0.0
    for v, y in clouds.items():
        sq = np.zeros(len(y))
        for e in doc["edges"]:
            if e["range"] != v:
                continue
            m, t = maps[e["id"]]
            vals = np.abs(closed_form_values(coeffs, "xi", y @ m.T + t, y, e["id"]))
            sq += vals ** 2
            ninf = max(ninf, float(vals.max()))
        n2 = max(n2, float(np.sqrt(sq).max()))
    return n2, ninf

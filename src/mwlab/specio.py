"""Parsing, validation and serialization of system description documents.

A document is a JSON object with fields:

    name       (string, optional)
    dimension  (1 or 2)
    notes      (string, optional)
    vertices   [{"id": ..., "seed_box": [[lo...], [hi...]]}, ...]
    edges      [{"id": ..., "source": ..., "range": ..., "map": {...}}, ...]
    open_sets  {vertex: [piece, ...]}      (optional)
    reference  {...}                       (optional, reported verbatim)

Edge maps come in three kinds:

    {"kind": "affine", "matrix": [[...]], "translation": [...]}
    {"kind": "similarity", "ratio": r, "rotation_deg": d,
     "fixed_point": [x, y], "reflect": false}
    {"kind": "pairs", "p1": [..], "q1": [..], "p2": [..], "q2": [..],
     "reflect": false}

Open-set pieces are [lo, hi] intervals in dimension 1 and counterclockwise
vertex lists in dimension 2. Every coordinate and map parameter is a JSON
number (not a boolean) that converts to a finite float64.
"""

import json
import math
from pathlib import Path

from .attractor import MWGraphSpec, SeedBox
from .errors import GeometryError, SpecValidationError
from .geometry import (
    AffineContraction,
    ConvexPolygon,
    Interval,
    similarity_from_pairs,
    similarity_from_params,
)
from .graph import Graph

__all__ = ["parse_spec", "parse_spec_document", "serialize_spec"]


def _require(doc, key, kind, where):
    if key not in doc:
        raise SpecValidationError(f"missing field {key!r}", field=where)
    value = doc[key]
    # JSON true and false load as bool, a subclass of int
    if kind is not None and (not isinstance(value, kind)
                             or isinstance(value, bool)):
        raise SpecValidationError(
            f"field {key!r} has wrong type {type(value).__name__}", field=where)
    return value


def _numbers(value, where):
    """value, after checking that every entry of it, through nested lists,
    is a number.

    A number is a JSON int or float that converts to a finite float64: a
    bool, a string, NaN, an infinity or an integer literal beyond float64 is
    refused with the path of the entry.
    """
    if isinstance(value, list):
        for k, item in enumerate(value):
            _numbers(item, f"{where}[{k}]")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecValidationError(
            f"expected a number, got {type(value).__name__}", field=where)
    try:
        finite = math.isfinite(float(value))
    except OverflowError:
        finite = False
    if not finite:
        shown = repr(value) if isinstance(value, float) else \
            "an integer beyond the float64 range"
        raise SpecValidationError(
            f"{shown} is not a finite float64 number", field=where)
    return value


def _require_numbers(doc, key, kind, where):
    return _numbers(_require(doc, key, kind, where), f"{where}.{key}")


def _parse_map(entry, dimension, where):
    kind = _require(entry, "kind", str, where)
    try:
        if kind == "affine":
            return AffineContraction(
                _require_numbers(entry, "matrix", list, where),
                _require_numbers(entry, "translation", list, where))
        if kind == "similarity":
            if dimension != 2:
                raise SpecValidationError(
                    "similarity maps need dimension 2", field=where)
            return similarity_from_params(
                _require_numbers(entry, "ratio", (int, float), where),
                _require_numbers(entry, "rotation_deg", (int, float), where),
                _require_numbers(entry, "fixed_point", list, where),
                bool(entry.get("reflect", False)))
        if kind == "pairs":
            if dimension != 2:
                raise SpecValidationError(
                    "pair-defined maps need dimension 2", field=where)
            return similarity_from_pairs(
                _require_numbers(entry, "p1", list, where),
                _require_numbers(entry, "q1", list, where),
                _require_numbers(entry, "p2", list, where),
                _require_numbers(entry, "q2", list, where),
                bool(entry.get("reflect", False)))
    except GeometryError as exc:
        raise SpecValidationError(str(exc), field=where) from exc
    raise SpecValidationError(f"unknown map kind {kind!r}", field=where)


def _parse_open_sets(raw, dimension, vertices):
    out = {}
    for vertex, pieces in raw.items():
        if vertex not in vertices:
            raise SpecValidationError(
                f"open set for unknown vertex {vertex!r}", field="open_sets")
        parsed = []
        for k, piece in enumerate(pieces):
            where = f"open_sets[{vertex}][{k}]"
            _numbers(piece, where)
            try:
                if dimension == 1:
                    if len(piece) != 2:
                        raise SpecValidationError(
                            "interval piece must be [lo, hi]", field=where)
                    parsed.append(Interval(float(piece[0]), float(piece[1])))
                else:
                    parsed.append(ConvexPolygon(piece))
            except GeometryError as exc:
                raise SpecValidationError(str(exc), field=where) from exc
        out[vertex] = parsed
    return out


def parse_spec_document(doc):
    """Validate a parsed JSON object and build the system it describes."""
    if not isinstance(doc, dict):
        raise SpecValidationError("document root must be an object")
    dimension = _require(doc, "dimension", int, "document")
    raw_vertices = _require(doc, "vertices", list, "document")
    raw_edges = _require(doc, "edges", list, "document")

    vertex_ids, seed_boxes = [], {}
    for k, entry in enumerate(raw_vertices):
        where = f"vertices[{k}]"
        vid = str(_require(entry, "id", None, where))
        box = _require_numbers(entry, "seed_box", list, where)
        if len(box) != 2:
            raise SpecValidationError("seed_box must be [[lo...], [hi...]]",
                                      field=where)
        vertex_ids.append(vid)
        seed_boxes[vid] = SeedBox(tuple(box[0]), tuple(box[1]))

    edge_rows, edge_maps, edge_map_params = [], {}, {}
    for k, entry in enumerate(raw_edges):
        where = f"edges[{k}]"
        eid = str(_require(entry, "id", None, where))
        source = str(_require(entry, "source", None, where))
        range_ = str(_require(entry, "range", None, where))
        mp = _require(entry, "map", dict, where)
        edge_rows.append((eid, source, range_))
        edge_maps[eid] = _parse_map(mp, dimension, f"{where}.map (edge {eid})")
        edge_map_params[eid] = mp

    try:
        graph = Graph(vertex_ids, edge_rows)
    except ValueError as exc:
        raise SpecValidationError(str(exc), field="edges") from exc

    open_sets = None
    if doc.get("open_sets"):
        open_sets = _parse_open_sets(doc["open_sets"], dimension, set(vertex_ids))

    return MWGraphSpec(
        graph=graph,
        dimension=dimension,
        seed_boxes=seed_boxes,
        edge_maps=edge_maps,
        open_sets=open_sets,
        name=str(doc.get("name", "")),
        notes=str(doc.get("notes", "")),
        reference=doc.get("reference"),
        edge_map_params=edge_map_params)


def parse_spec(path):
    """Load and validate a system description from a JSON file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecValidationError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            field=str(path)) from exc
    return parse_spec_document(doc)


def serialize_spec(spec):
    """Render a system back to its document form.

    Maps keep their original parameterization when the system was parsed from
    a document; systems built programmatically serialize as affine maps.
    """
    doc = {
        "name": spec.name,
        "dimension": spec.dimension,
    }
    if spec.notes:
        doc["notes"] = spec.notes
    doc["vertices"] = [
        {"id": v, "seed_box": [list(spec.seed_boxes[v].lo),
                               list(spec.seed_boxes[v].hi)]}
        for v in spec.graph.vertices
    ]
    doc["edges"] = []
    for e in spec.graph.edges:
        if spec.edge_map_params and e.id in spec.edge_map_params:
            mp = spec.edge_map_params[e.id]
        else:
            m = spec.edge_maps[e.id]
            mp = {"kind": "affine",
                  "matrix": [[float(x) for x in row] for row in m.matrix],
                  "translation": [float(x) for x in m.translation]}
        doc["edges"].append(
            {"id": e.id, "source": e.source, "range": e.range, "map": mp})
    if spec.open_sets is not None:
        rendered = {}
        for v, pieces in spec.open_sets.items():
            rendered[v] = [
                [piece.lo, piece.hi] if isinstance(piece, Interval)
                else [[float(x) for x in row] for row in piece.vertices]
                for piece in pieces
            ]
        doc["open_sets"] = rendered
    if spec.reference is not None:
        doc["reference"] = spec.reference
    return doc

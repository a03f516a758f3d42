"""Parsing, validation and serialization of system description documents.

A document is a JSON object with fields:

    name       (string, optional)
    dimension  (1 or 2)
    notes      (string, optional)
    vertices   [{"id": "v", "seed_box": [[lo...], [hi...]]}, ...]
    edges      [{"id": "e", "source": "v", "range": "w", "map": {...}}, ...]
    open_sets  {"v": [piece, ...], ...}   (optional)
    reference  {...}                      (optional object, reported verbatim)

An edge map is {"kind": "affine", "matrix": [[...]], "translation": [...]} or,
in dimension 2 only, a similarity: {"kind": "similarity", "ratio": r,
"rotation_deg": a, "fixed_point": [x, y]} or {"kind": "pairs", "p1": [x, y],
"q1", "p2", "q2"} (sending p1 to q1 and p2 to q2), with an optional boolean
"reflect". Open-set pieces are [lo, hi] in dimension 1 and counterclockwise
vertex lists in dimension 2. Every number is a JSON number, not a boolean,
that converts to a finite float64, every array has its field's exact shape,
ids, source, range, name and notes are strings (_DOCUMENT below); the first
entry that breaks a rule is refused by its path (SpecValidationError, exit 2).
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


# The document, field by field. A kind is one of
#   float, int, str, bool, dict: a JSON number (int: an integer), string,
#       boolean or object; a number is never a boolean and converts to a
#       finite float64;
#   a tuple (n, ..., kind): a list of n entries of the kind that follows,
#       "d" standing for the dimension and None for any length;
#   a dict of fields: an object with those fields, each of its own kind; a
#       str key stands for every key, and fields in _OPTIONAL may be absent;
#   _MAPS, _PIECES: an edge map by its "kind", an open-set piece by the
#       dimension, each built by the function beside its fields or shape
#       (a map's fields are its builder's parameters).
_MAPS = {
    "affine": (AffineContraction, {"matrix": ("d", "d", float),
                                   "translation": ("d", float)}),
    "similarity": (similarity_from_params, {
        "ratio": float, "rotation_deg": float, "fixed_point": (2, float),
        "reflect": bool}),
    "pairs": (similarity_from_pairs, {
        "p1": (2, float), "q1": (2, float), "p2": (2, float),
        "q2": (2, float), "reflect": bool}),
}
_PIECES = {1: (lambda piece: Interval(*map(float, piece)), (2, float)),
           2: (ConvexPolygon, (None, 2, float))}
_DOCUMENT = {
    "name": str,
    "notes": str,
    "vertices": (None, {"id": str, "seed_box": (2, "d", float)}),
    "edges": (None, {"id": str, "source": str, "range": str, "map": _MAPS}),
    "open_sets": {str: (None, _PIECES)},
    "reference": dict,
}
_OPTIONAL = {"name", "notes", "open_sets", "reference", "reflect"}
_TYPES = {float: ((int, float), "a number"), int: (int, "an integer"),
          str: (str, "a string"), bool: (bool, "a boolean"),
          dict: (dict, "an object"), tuple: (list, "a list")}


def _type_error(value, kind):
    """The name of kind's JSON type when value is not of that type."""
    types, name = _TYPES[kind if isinstance(kind, type) else type(kind)]
    # JSON true and false load as bool, a subclass of int
    if not isinstance(value, types) or (isinstance(value, bool)
                                        and types is not bool):
        return name


def _refuse(message, path):
    raise SpecValidationError(message, field=path or "document")


def _field_path(path, key, entry):
    where = f"{path}.{key}" if path else key
    # a map is named by its edge too, as the graph's own errors name edges
    return f"{where} (edge {entry['id']})" if key == "map" else where


def _check(value, kind, path, d):
    """Refuse value, or the first entry in it, that is not of the given kind,
    naming the entry by its path from the document root."""
    if kind is _PIECES:
        kind = _PIECES[d][1]
    if wanted := _type_error(value, kind):
        _refuse(f"expected {wanted}, got {type(value).__name__}", path)
    if kind is float:
        try:
            finite = math.isfinite(value)
        except OverflowError:
            finite = False
        if not finite:
            shown = repr(value) if isinstance(value, float) else \
                "an integer beyond the float64 range"
            _refuse(f"{shown} is not a finite float64 number", path)
    elif isinstance(kind, tuple):
        size = d if kind[0] == "d" else kind[0]
        if size is not None and len(value) != size:
            _refuse(f"expected a list of length {size}, got length "
                    f"{len(value)}", path)
        for k, item in enumerate(value):
            _check(item, kind[1:] if len(kind) > 2 else kind[1],
                   f"{path}[{k}]", d)
    elif kind is _MAPS:
        _check(value, {"kind": str}, path, d)
        if value["kind"] not in _MAPS:
            _refuse(f"unknown map kind {value['kind']!r}", path)
        if value["kind"] != "affine" and d != 2:  # similarities are plane maps
            _refuse(f"{value['kind']} maps need dimension 2", path)
        _check(value, _MAPS[value["kind"]][1], path, d)
    elif isinstance(kind, dict):
        for key, sub in kind.items():
            if key is str:
                for name, item in value.items():
                    _check(item, sub, f"{path}[{name}]", d)
            elif key in value:
                if _type_error(value[key], sub):
                    _refuse(f"field {key!r} has wrong type "
                            f"{type(value[key]).__name__}", path)
                _check(value[key], sub, _field_path(path, key, value), d)
            elif key not in _OPTIONAL:
                _refuse(f"missing field {key!r}", path)


def _build(where, make, *args, **kwargs):
    """make(*args, **kwargs), a geometry or seed-box error reported under
    where."""
    try:
        return make(*args, **kwargs)
    except (GeometryError, SpecValidationError) as exc:
        raise SpecValidationError(str(exc), field=where) from exc


def parse_spec_document(doc):
    """Validate a parsed JSON object and build the system it describes."""
    _check(doc, {"dimension": int}, "", None)  # every shape depends on it
    d = doc["dimension"]
    if d not in (1, 2):
        _refuse(f"dimension must be 1 or 2, got {d}", "")
    _check(doc, _DOCUMENT, "", d)

    seed_boxes = {v["id"]: _build(f"vertices[{k}].seed_box", SeedBox,
                                  *v["seed_box"])
                  for k, v in enumerate(doc["vertices"])}
    edge_maps = {}
    for k, e in enumerate(doc["edges"]):
        make, fields = _MAPS[e["map"]["kind"]]
        args = {f: value for f, value in e["map"].items() if f in fields}
        edge_maps[e["id"]] = _build(_field_path(f"edges[{k}]", "map", e), make,
                                    **args)
    try:
        graph = Graph([v["id"] for v in doc["vertices"]],
                      [(e["id"], e["source"], e["range"]) for e in doc["edges"]])
    except ValueError as exc:
        raise SpecValidationError(str(exc), field="edges") from exc

    open_sets = {}
    for vertex, pieces in doc.get("open_sets", {}).items():
        if vertex not in seed_boxes:
            raise SpecValidationError(
                f"open set for unknown vertex {vertex!r}", field="open_sets")
        open_sets[vertex] = [
            _build(f"open_sets[{vertex}][{k}]", _PIECES[d][0], piece)
            for k, piece in enumerate(pieces)]

    return MWGraphSpec(
        graph=graph, dimension=d, seed_boxes=seed_boxes, edge_maps=edge_maps,
        open_sets=open_sets, name=doc.get("name", ""),
        notes=doc.get("notes", ""), reference=doc.get("reference"),
        edge_map_params={e["id"]: e["map"] for e in doc["edges"]})


def parse_spec(path):
    """Load and validate a system description from a JSON file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SpecValidationError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            field=str(path)) from exc
    # text that is not UTF-8, an integer literal too long to read, or
    # nesting deeper than the decoder's recursion limit
    except (ValueError, RecursionError) as exc:
        raise SpecValidationError(f"unreadable JSON: {exc}",
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

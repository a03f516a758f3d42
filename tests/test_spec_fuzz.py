"""Mutated bundled documents: every one is either computed or refused with a
named cause, never ended by a traceback or a numpy warning.

Each example takes one bundled document and changes one node of it: replaces
it with a random JSON value, drops it, wraps it in a list or unwraps a list.
`validate` runs through `cli.main` in-process; a document that validates also
runs `ktheory`, `conditions` and `report` at depth 3.
"""

import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mwlab import cli
from mwlab.datasets import bundled_document, list_bundled

SUBCOMMANDS = [("ktheory",), ("conditions", "--depth", "3"),
               ("report", "--depth", "3", "--format", "json")]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


def _nodes(node, path=()):
    """The path of every node below the root, parents first."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


@st.composite
def mutated_documents(draw):
    doc = bundled_document(draw(st.sampled_from(list_bundled())))
    move = draw(st.sampled_from(["replace", "drop", "wrap", "unwrap"]))
    paths = list(_nodes(doc))
    if move == "unwrap":
        paths = [p for p in paths if isinstance(_at(doc, p), list) and _at(doc, p)]
    path = draw(st.sampled_from(paths))
    parent, key = _at(doc, path[:-1]), path[-1]
    if move == "replace":
        parent[key] = draw(json_values)
    elif move == "drop":
        del parent[key]
    elif move == "wrap":
        parent[key] = [parent[key]]
    else:
        parent[key] = parent[key][0]
    return doc


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _run(*argv):
    err = io.StringIO()
    code = cli.main(list(argv), out=io.StringIO(), err=err)
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    if code:
        assert err.getvalue().startswith(("error: ", "resource error: ")), \
            (argv, err.getvalue())
    return code


def _assert_named_outcome(target):
    if _run("validate", str(target)) == 0:
        for command, *options in SUBCOMMANDS:
            _run(command, str(target), *options)


@pytest.fixture(scope="module")
def target(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutated.json"


@settings(max_examples=200, deadline=2000, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated_documents())
def test_mutated_bundled_documents(target, doc):
    target.write_text(json.dumps(doc))
    _assert_named_outcome(target)


@pytest.mark.parametrize("name,path,value", [
    ("squares_z2", ("edges", 3, "map", "p2"), [1.0, -1e16]),
    ("cantor_ifs", ("edges", 1, "map", "matrix"), [[1e-17]]),
], ids=["open-set-image-collapses-in-plane", "open-set-image-collapses-on-line"])
def test_shrunk_counterexamples(target, name, path, value):
    # a valid map whose ratio is below float64 rounding at its image
    doc = bundled_document(name)
    _at(doc, path[:-1])[path[-1]] = value
    target.write_text(json.dumps(doc))
    _assert_named_outcome(target)

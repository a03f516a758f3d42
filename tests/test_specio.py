import json
import math

import numpy as np
import pytest

from conftest import bundled
from mwlab.datasets import bundled_document, list_bundled, load_bundled
from mwlab.errors import SpecValidationError
from mwlab.specio import parse_spec, parse_spec_document, serialize_spec

TAU = (1 + math.sqrt(5)) / 2


class TestBundled:
    def test_all_present(self):
        assert list_bundled() == [
            "binary_ifs", "cantor_ifs", "duplicate_map",
            "penrose", "squares_z2", "two_part_dust"]

    def test_two_part_dust_shape(self):
        spec = bundled("two_part_dust")
        assert len(spec.graph.vertices) == 2
        assert len(spec.graph.edges) == 4
        assert spec.contraction_upper == pytest.approx(0.75)

    def test_penrose_shape(self):
        spec = bundled("penrose")
        assert len(spec.graph.vertices) == 2
        assert len(spec.graph.edges) == 5
        assert spec.contraction_upper == pytest.approx(1 / TAU, abs=1e-12)
        assert spec.contraction_lower == pytest.approx(1 / TAU, abs=1e-12)

    def test_squares_shape(self):
        spec = bundled("squares_z2")
        assert len(spec.graph.edges) == 8
        assert spec.open_sets is not None
        assert spec.reference["full_algebra"] == {"K0": "Z/2Z", "K1": "0"}

    def test_unknown_name(self):
        with pytest.raises(SpecValidationError):
            load_bundled("no_such_example")


class TestParsing:
    def test_non_contraction_names_edge(self, tmp_path):
        doc = bundled_document("binary_ifs")
        doc["edges"][1]["map"] = {"kind": "affine", "matrix": [[1.1]],
                                  "translation": [0.0]}
        target = tmp_path / "bad.json"
        target.write_text(json.dumps(doc))
        with pytest.raises(SpecValidationError) as err:
            parse_spec(target)
        assert "e2" in str(err.value)
        assert "not a contraction" in str(err.value)

    def test_singular_map_rejected(self):
        doc = bundled_document("binary_ifs")
        doc["edges"][0]["map"] = {"kind": "affine", "matrix": [[0.0]],
                                  "translation": [0.0]}
        with pytest.raises(SpecValidationError) as err:
            parse_spec_document(doc)
        assert "singular" in str(err.value)

    def test_unknown_vertex_reference(self):
        doc = bundled_document("binary_ifs")
        doc["edges"][0]["source"] = "w"
        with pytest.raises(SpecValidationError) as err:
            parse_spec_document(doc)
        assert "unknown" in str(err.value)

    def test_seed_box_invariance_checked(self):
        doc = bundled_document("binary_ifs")
        doc["vertices"][0]["seed_box"] = [[0.0], [0.5]]
        with pytest.raises(SpecValidationError) as err:
            parse_spec_document(doc)
        assert "seed box" in str(err.value)

    def test_json_error_carries_line(self, tmp_path):
        target = tmp_path / "broken.json"
        target.write_text('{"dimension": 2,\n  "vertices": [,]\n}')
        with pytest.raises(SpecValidationError) as err:
            parse_spec(target)
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize("raw", [b"[" * 100_000, b"\xff\xfe{}"],
                             ids=["nested-too-deep", "not-utf8"])
    def test_unreadable_file_named(self, tmp_path, raw):
        target = tmp_path / "unreadable.json"
        target.write_bytes(raw)
        with pytest.raises(SpecValidationError) as err:
            parse_spec(target)
        assert err.value.field == str(target)
        assert str(err.value).startswith(f"{target}: unreadable JSON: ")

    def test_missing_field_reported(self):
        with pytest.raises(SpecValidationError) as err:
            parse_spec_document({"dimension": 2, "vertices": []})
        assert "edges" in str(err.value)


class TestRoundTrip:
    @pytest.mark.parametrize("name", [
        "binary_ifs", "cantor_ifs", "duplicate_map",
        "penrose", "squares_z2", "two_part_dust"])
    def test_parse_serialize_parse(self, name):
        first = bundled(name)
        doc = serialize_spec(first)
        second = parse_spec_document(doc)
        assert second.graph == first.graph
        assert second.dimension == first.dimension
        assert second.seed_boxes == first.seed_boxes
        for eid in first.edge_maps:
            np.testing.assert_array_equal(second.edge_maps[eid].matrix,
                                          first.edge_maps[eid].matrix)
            np.testing.assert_array_equal(second.edge_maps[eid].translation,
                                          first.edge_maps[eid].translation)
        assert (second.open_sets is None) == (first.open_sets is None)
        assert second.reference == first.reference
        # serialization is stable
        assert serialize_spec(second) == doc

    def test_bundled_document_round_trips_exactly(self):
        # documents parse to systems that serialize back to the same document
        for name in list_bundled():
            doc = bundled_document(name)
            assert serialize_spec(parse_spec_document(doc)) == doc

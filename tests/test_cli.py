import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mwlab
from mwlab.cli import main
from mwlab.datasets import bundled_document
from mwlab.graph import vertex_matrix
from mwlab.ktheory import IntMatrix
from mwlab.specio import serialize_spec
from specs_inline import one_loop, thin_cantor

from conftest import bundled


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestValidate:
    def test_bundled_names_resolve(self):
        code, out, _ = run_cli("validate", "two_part_dust")
        assert code == 0
        c_text = next(line for line in out.splitlines() if "c=" in line)
        assert float(c_text.split("c=")[1]) == pytest.approx(0.75, abs=1e-12)

    def test_penrose_contraction(self):
        code, out, _ = run_cli("validate", "penrose")
        assert code == 0
        assert "c=0.6180339887498" in out

    def test_file_path_resolves(self, tmp_path):
        target = tmp_path / "exported.json"
        code, _, _ = run_cli("examples", "export", "binary_ifs",
                             "--out", str(target))
        assert code == 0
        code, out, _ = run_cli("validate", str(target))
        assert code == 0 and "binary_ifs" in out

    def test_unknown_spec_is_input_error(self):
        code, _, err = run_cli("validate", "definitely_missing")
        assert code == 2
        assert "error" in err

    def test_bad_map_is_input_error(self, tmp_path):
        bad = {
            "name": "bad", "dimension": 1,
            "vertices": [{"id": "v", "seed_box": [[0.0], [1.0]]}],
            "edges": [
                {"id": "e1", "source": "v", "range": "v",
                 "map": {"kind": "affine", "matrix": [[1.1]], "translation": [0.0]}},
                {"id": "e2", "source": "v", "range": "v",
                 "map": {"kind": "affine", "matrix": [[0.5]], "translation": [0.5]}},
            ],
        }
        target = tmp_path / "bad.json"
        target.write_text(json.dumps(bad))
        code, _, err = run_cli("validate", str(target))
        assert code == 2
        assert "e1" in err

    @pytest.mark.parametrize("lo,hi", [(-1e308, 1e308), (-math.inf, 1.0),
                                       (math.nan, 1.0)])
    def test_seed_box_without_finite_diameter_is_input_error(self, tmp_path,
                                                             lo, hi):
        # the second map sends [-1e308, 1e308] to [4e307, 1.4e308], outside
        # the box; an infinite diagonal used to make the nesting check's
        # slack infinite, so the spec was accepted. A corner that is not
        # finite itself is refused earlier, at its entry.
        doc = {
            "name": "huge", "dimension": 1,
            "vertices": [{"id": "v", "seed_box": [[lo], [hi]]}],
            "edges": [
                {"id": f"e{k}", "source": "v", "range": "v",
                 "map": {"kind": "affine", "matrix": [[0.5]],
                         "translation": [shift]}}
                for k, shift in enumerate((0.0, 0.9e308))],
        }
        target = tmp_path / "huge.json"
        target.write_text(json.dumps(doc))
        code, out, err = run_cli("validate", str(target))
        assert code == 2
        if math.isfinite(lo):
            assert err.startswith("error:") and "no finite diameter" in err
        else:
            assert err == (f"error: vertices[0].seed_box[0][0]: {lo!r} is not "
                           "a finite float64 number\n")
        assert out == ""


def edit(path, value):
    """An edit of a cantor_ifs document: the entry at path set to value."""
    def apply(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return apply


class TestSpecNumbers:
    """Every number in a document is a JSON int or float that converts to a
    finite float64; anything else is refused at its entry, by path."""

    @pytest.mark.parametrize("change,named", [
        (edit(["vertices", 0, "seed_box", 1, 0], 10 ** 400),
         "vertices[0].seed_box[1][0]: an integer beyond the float64 range"),
        (edit(["edges", 1, "map", "translation", 0], -10 ** 400),
         "edges[1].map (edge e2).translation[0]: an integer beyond the "
         "float64 range"),
        (edit(["edges", 0, "map", "matrix", 0, 0], "0.3"),
         "edges[0].map (edge e1).matrix[0][0]: expected a number, got str"),
        (edit(["edges", 1, "map", "translation", 0], True),
         "edges[1].map (edge e2).translation[0]: expected a number, got bool"),
        (edit(["dimension"], True),
         "document: field 'dimension' has wrong type bool"),
    ], ids=["huge-seed-box", "huge-map-entry", "string-in-matrix",
            "bool-in-translation", "bool-dimension"])
    def test_refused_with_field_path(self, tmp_path, change, named):
        doc = bundled_document("cantor_ifs")
        change(doc)
        target = tmp_path / "edited.json"
        target.write_text(json.dumps(doc))
        code, out, err = run_cli("validate", str(target))
        assert code == 2
        assert err.startswith(f"error: {named}")
        assert out == ""


class TestAttractor:
    def test_binary_csv_row_count(self, tmp_path):
        csv = tmp_path / "binary.csv"
        code, out, _ = run_cli("attractor", "binary_ifs", "--depth", "10",
                               "--csv", str(csv))
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[1] == "vertex,x"
        assert len(lines) == 2 + 1024

    def test_penrose_paths_accounting(self, tmp_path):
        csv = tmp_path / "penrose.csv"
        code, _, _ = run_cli("attractor", "penrose", "--depth", "9",
                             "--csv", str(csv))
        assert code == 0
        header = csv.read_text().splitlines()[0]
        fields = dict(item.split("=") for item in header[2:].split())
        a9 = vertex_matrix(bundled("penrose").graph) ** 9
        expected_paths = sum(sum(a9.row(i)) for i in range(2))
        assert int(fields["paths"]) == expected_paths
        rows = len(csv.read_text().splitlines()) - 2
        assert rows + int(fields["deduplicated"]) == expected_paths

    def test_dust_clusters_disjoint_in_image(self, tmp_path):
        png = tmp_path / "dust.png"
        code, _, _ = run_cli("attractor", "two_part_dust", "--depth", "8",
                             "--png", str(png), "--px", "256")
        assert code == 0
        data = png.read_bytes()
        assert data[:8] == b"\x89PNG\r\n\x1a\n"

    def test_budget_exit_code(self, monkeypatch):
        monkeypatch.setenv("MWLAB_POINT_BUDGET", "100")
        code, _, err = run_cli("attractor", "binary_ifs", "--depth", "12")
        assert code == 3
        assert "resource error" in err

    @pytest.mark.parametrize("depth", [8000, 4_000_000])
    def test_budget_exit_code_at_extreme_depth(self, monkeypatch, depth):
        # the exact path count has thousands of digits at depth 8000
        monkeypatch.delenv("MWLAB_POINT_BUDGET", raising=False)
        start = time.perf_counter()
        code, out, err = run_cli("attractor", "squares_z2", "--depth", str(depth))
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert err.startswith("resource error:") and "point budget" in err
        assert out == ""

    @pytest.mark.parametrize("value", ["abc", "1e6", "0", "-5"])
    def test_invalid_budget_exit_code(self, monkeypatch, value):
        monkeypatch.setenv("MWLAB_POINT_BUDGET", value)
        code, out, err = run_cli("attractor", "binary_ifs", "--depth", "3")
        assert code == 2
        assert err.startswith("error:") and "MWLAB_POINT_BUDGET" in err
        assert "positive integer" in err and repr(value) in err
        assert out == ""

    @pytest.mark.parametrize("maker,depth", [(one_loop, 1100),
                                             (thin_cantor, 9)])
    def test_grid_key_resolution_exit_code(self, tmp_path, maker, depth):
        doc = tmp_path / "system.json"
        doc.write_text(json.dumps(serialize_spec(maker())))
        code, out, err = run_cli("attractor", str(doc), "--depth", str(depth))
        assert code == 3
        assert err.startswith("resource error:") and "grid keys" in err
        assert out == ""

    def test_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        pa, pb = tmp_path / "a.png", tmp_path / "b.png"
        run_cli("attractor", "two_part_dust", "--depth", "7",
                "--csv", str(a), "--png", str(pa))
        run_cli("attractor", "two_part_dust", "--depth", "7",
                "--csv", str(b), "--png", str(pb))
        assert a.read_bytes() == b.read_bytes()
        assert pa.read_bytes() == pb.read_bytes()


class TestConditions:
    def test_squares_text_report(self):
        code, out, _ = run_cli("conditions", "squares_z2", "--depth", "9",
                               "--tol", "1e-6")
        assert code == 0
        assert "branch points: 1" in out
        assert "x=[0.5, 0.5]" in out
        assert "index=2" in out
        assert "verdict: SimplePurelyInfinite" in out
        assert "graph separation: fails" in out

    def test_dust_cites_isomorphism(self):
        code, out, _ = run_cli("conditions", "two_part_dust", "--depth", "8")
        assert code == 0
        assert "graph separation: holds" in out
        assert "isomorphic to the C*-algebra of the underlying graph" in out

    def test_penrose_unknown_osc(self):
        code, out, _ = run_cli("conditions", "penrose", "--depth", "8")
        assert code == 0
        assert "unknown (no candidate supplied)" in out
        assert "verdict: Unknown" in out

    def test_json_format_parses_and_is_deterministic(self):
        code, out1, _ = run_cli("conditions", "squares_z2", "--depth", "8",
                                "--format", "json")
        assert code == 0
        doc = json.loads(out1)
        assert doc["hypothesis"]["verdict"] == "SimplePurelyInfinite"
        assert doc["branch"]["count"] == 1
        assert doc["branch"]["branch_points"][0]["x"]["coords"] == [0.5, 0.5]
        assert doc["separation"]["holds"] is False
        _, out2, _ = run_cli("conditions", "squares_z2", "--depth", "8",
                             "--format", "json")
        assert out1 == out2

    def test_infinite_gap_serialized_as_null(self):
        code, out, _ = run_cli("conditions", "two_part_dust", "--depth", "7",
                               "--format", "json")
        doc = json.loads(out)
        assert doc["branch"]["has_parallel_pairs"] is False
        assert doc["branch"]["min_cograph_gap"] is None

    @pytest.mark.parametrize("tol", ["inf", "nan", "5e-324"])
    def test_unusable_tol_is_input_error(self, tol):
        # inf passed every check (verdict SimplePurelyInfinite), nan and an
        # underflowing tol/4 failed without naming the tolerance
        code, out, err = run_cli("conditions", "duplicate_map", "--depth", "5",
                                 "--tol", tol)
        assert code == 2
        assert out == ""
        assert "tol" in err

    @pytest.mark.parametrize("tol", ["0.5", "1", "1e300"])
    def test_large_tol_keeps_open_set_condition_failing(self, tol):
        # the two maps are identical, so their images overlap at any --tol;
        # the open-set check has its own slack, independent of the branch tol
        code, out, _ = run_cli("conditions", "duplicate_map", "--depth", "5",
                               "--tol", tol, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["open_set_condition"]["holds"] is False
        assert doc["hypothesis"]["open_set_condition"] is False
        assert doc["hypothesis"]["verdict"] == "HypothesesNotMet"

    def test_tiny_tol_suggests_a_depth(self):
        # tol/4 divided by the depth-0 certificate underflows to 0.0 here
        code, out, _ = run_cli("conditions", "two_part_dust", "--depth", "4",
                               "--tol", "2e-323", "--format", "json")
        assert code == 0
        assert json.loads(out)["branch"]["suggested_depth"] == 2591


class TestKTheory:
    def test_matrix_squares(self):
        code, out, _ = run_cli("ktheory", "--matrix", "3,1;1,3")
        assert code == 0
        assert "K0 = Z/3Z" in out and "K1 = 0" in out

    def test_matrix_penrose(self):
        code, out, _ = run_cli("ktheory", "--matrix", "2,1;1,1")
        assert code == 0
        assert "K0 = 0" in out and "K1 = 0" in out

    def test_single_entry_canonicalized(self):
        code, out, _ = run_cli("ktheory", "--matrix", "2")
        assert code == 0
        assert "K0 = 0" in out and "K1 = 0" in out

    def test_spec_reference_labeled(self):
        code, out, _ = run_cli("ktheory", "penrose")
        assert code == 0
        assert "K0 = 0" in out
        assert "stated, not computed" in out
        assert "'K0': 'Z'" in out

    def test_bad_matrix_is_input_error(self):
        code, _, err = run_cli("ktheory", "--matrix", "1,2;3")
        assert code == 2

    def test_nonsquare_rejected(self):
        code, _, _ = run_cli("ktheory", "--matrix", "1,2,3;4,5,6")
        assert code == 2

    @pytest.mark.parametrize("text, named", [
        ("0", "sink vertices [0] (zero rows) and source vertices [0]"),
        ("0,1;0,0", "sink vertices [1] (zero rows) and source vertices [0]"),
    ])
    def test_sinks_and_sources_rejected(self, text, named):
        # both graph algebras have K0 = Z, not the 0 that coker(1 - A^t) gives
        code, out, err = run_cli("ktheory", "--matrix", text)
        assert code == 2 and out == ""
        assert named in err

    @pytest.mark.parametrize("text, k0, k1", [
        ("2", "0", "0"),
        ("3,1;1,3", "Z/3Z", "0"),
        ("1,0;0,1", "Z^2", "Z^2"),
    ])
    def test_matrix_without_sinks_still_accepted(self, text, k0, k1):
        code, out, _ = run_cli("ktheory", "--matrix", text)
        assert code == 0
        assert f"K0 = {k0}\n" in out and f"K1 = {k1}\n" in out

    def test_python_dash_m_runs_without_install(self):
        src = Path(mwlab.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "mwlab", "ktheory", "--matrix", "3,1;1,3"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0
        assert "K0 = Z/3Z" in proc.stdout


class TestReport:
    def test_full_report_squares(self):
        code, out, _ = run_cli("report", "squares_z2", "--depth", "8")
        assert code == 0
        assert "invariance residuals" in out
        assert "verdict: SimplePurelyInfinite" in out
        assert "Z/2Z" in out  # stated reference value surfaced

    def test_dust_report_consistent_with_isomorphism(self):
        code, out, _ = run_cli("report", "two_part_dust", "--depth", "8")
        assert code == 0
        assert "graph separation: holds" in out
        assert "K0 = 0" in out

    def test_penrose_report_json(self):
        code, out, _ = run_cli("report", "penrose", "--depth", "8",
                               "--format", "json")
        doc = json.loads(out)
        assert doc["hypothesis"]["verdict"] == "Unknown"
        assert doc["reference"]["full_algebra"]["K0"] == "Z"
        assert "invariance_residuals" in doc
        assert max(doc["invariance_residuals"].values()) <= 2 * doc["error_bound"]


class TestExamples:
    def test_list(self):
        code, out, _ = run_cli("examples", "list")
        assert code == 0
        assert out.splitlines() == [
            "binary_ifs", "cantor_ifs", "duplicate_map",
            "penrose", "squares_z2", "two_part_dust"]

    def test_export_round_trips(self, tmp_path):
        target = tmp_path / "sq.json"
        code, _, _ = run_cli("examples", "export", "squares_z2",
                             "--out", str(target))
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["name"] == "squares_z2"

    def test_export_needs_name(self):
        code, _, err = run_cli("examples", "export")
        assert code == 2

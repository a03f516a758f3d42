"""Self-tests of the benchmark's checks, and a smoke run of every workload.

Each oracle is shown to accept a real output of mwlab and to reject the
same output with one corruption: a cloud point moved by 10x the
certificate, a K0 of the wrong order, a flipped verdict, an inner product
off by 1e-9.

    python3 -m pytest perfbench/tests -q
"""

import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import mwlab  # noqa: E402
import mwlab.cli  # noqa: E402

import inputs  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402


def bundled_doc(name):
    return json.loads((ROOT / "src" / "mwlab" / "data" / f"{name}.json")
                      .read_text(encoding="utf-8"))


def clouds_at(name, depth):
    approx = mwlab.invariant_list(mwlab.load_bundled(name), depth)
    return ({v: c.points.copy() for v, c in approx.clouds.items()},
            approx.error_bound)


def moved_outward(clouds, bound):
    """Move the point of largest first coordinate by 10x the certificate."""
    out = {v: p.copy() for v, p in clouds.items()}
    v = sorted(out)[0]
    k = int(np.argmax(out[v][:, 0]))
    out[v][k, 0] += 10 * bound
    return out


@pytest.mark.parametrize("name,depth", [("binary_ifs", 8), ("cantor_ifs", 7),
                                        ("duplicate_map", 8),
                                        ("squares_z2", 5)])
def test_exact_set_oracle(name, depth):
    clouds, bound = clouds_at(name, depth)
    assert oracles.check_cloud_exact(name, clouds, bound) == []
    assert oracles.check_cloud_exact(name, moved_outward(clouds, bound), bound)


def test_exact_set_oracle_sees_a_hole():
    clouds, bound = clouds_at("squares_z2", 5)
    inner = {v: p.copy() for v, p in clouds.items()}
    inner["v1"][0] = inner["v1"][0] + 10 * bound * np.array([1.0, 1.0]) \
        * np.sign(0.5 - inner["v1"][0])
    assert oracles.check_cloud_exact("squares_z2", inner, bound)


@pytest.mark.parametrize("name,depth,shallow", [("penrose", 10, 6),
                                                ("two_part_dust", 12, 6)])
def test_triangle_oracle(name, depth, shallow):
    clouds, bound = clouds_at(name, depth)
    ref, ref_bound = clouds_at(name, shallow)
    assert oracles.check_cloud_triangle(name, clouds, bound, ref, ref_bound) == []
    bad = moved_outward(clouds, bound + ref_bound)
    assert oracles.check_cloud_triangle(name, bad, bound, ref, ref_bound)


def test_cantor_distance_is_exact_on_known_points():
    x = np.array([0.0, 1.0, 0.5, 0.25, 1 / 3, 0.4, -0.2, 1.5])
    d = oracles.dist_to_cantor(x)
    expected = [0.0, 0.0, 1 / 6, 0.0, 0.0, 1 / 3 * 0.2, 0.2, 0.5]
    assert np.allclose(d, expected, atol=1e-15)


def test_png_and_csv_oracles(tmp_path):
    doc = bundled_doc("penrose")
    csv, png = tmp_path / "p.csv", tmp_path / "p.png"
    rc = mwlab.cli.main(["attractor", "penrose", "--depth", "6", "--csv",
                         str(csv), "--png", str(png), "--px", "128"],
                        out=io.StringIO())
    assert rc == 0
    fields, clouds = oracles.parse_csv(csv.read_text())
    rows = sum(len(p) for p in clouds.values())
    assert int(fields["paths"]) == oracles.path_count(
        oracles.vertex_matrix(doc), 6)
    width, height = oracles.png_size_from_boxes(doc, 128)
    data = png.read_bytes()
    assert oracles.check_png(data, width, height, rows) == []
    assert oracles.check_png(data, width, height + 1, rows)
    corrupt = bytearray(data)
    corrupt[40] ^= 0xFF
    assert oracles.check_png(bytes(corrupt), width, height, rows)


def report_for(name, depth):
    out = io.StringIO()
    assert mwlab.cli.main(["report", name, "--depth", str(depth),
                           "--format", "json"], out=out) == 0
    return json.loads(out.getvalue())


@pytest.mark.parametrize("name", inputs.BUNDLED)
def test_report_oracle_accepts_real_reports(name):
    assert workloads.check_report(name, bundled_doc(name), 6,
                                  report_for(name, 6)) == []


def test_report_oracle_rejects_a_flipped_verdict():
    rep = report_for("squares_z2", 6)
    bad = copy.deepcopy(rep)
    bad["hypothesis"]["verdict"] = "HypothesesNotMet"
    assert workloads.check_report("squares_z2", bundled_doc("squares_z2"), 6, bad)
    bad = copy.deepcopy(rep)
    bad["open_set_condition"]["holds"] = False
    assert workloads.check_report("squares_z2", bundled_doc("squares_z2"), 6, bad)
    bad = copy.deepcopy(rep)
    bad["invariance_residuals"]["v1"] = 3 * rep["error_bound"]
    assert workloads.check_report("squares_z2", bundled_doc("squares_z2"), 6, bad)


def ktheory_case(tmp_path, a):
    w = workloads.KtheoryMoves(ROOT, 1, tmp_path)
    w.cases = [("case", a)]
    ops = w.load(mwlab)
    return w, [op.collect(op.run()) for op in ops]


def test_ktheory_oracle_rejects_a_wrong_order(tmp_path):
    a = inputs.random_irreducible(inputs.make_rng(3, "test"), 8)
    w, outputs = ktheory_case(tmp_path, a)
    assert w.check(mwlab, outputs) == ([], [])
    det, _ = oracles.expected_ktheory(a)
    bad = copy.deepcopy(outputs)
    bad[0]["K0"]["torsion"] = [det + 1]
    assert w.check(mwlab, bad)[0]


def test_ktheory_oracle_checks_the_moves(tmp_path):
    rng = inputs.make_rng(4, "test")
    a = inputs.random_irreducible(rng, 6)
    for moved in (inputs.out_split(a, 0, rng), inputs.in_split(a, 1, rng)):
        assert oracles.expected_ktheory(moved)[0] == \
            oracles.expected_ktheory(a)[0]
    square = [[1, 1], [1, 1]]
    assert oracles.expected_ktheory(inputs.dual_graph(square))[0] == \
        oracles.expected_ktheory(square)[0]


def test_smith_oracle_rejects_a_wrong_decomposition():
    m = [[2, 4], [6, 8]]
    snf = mwlab.smith_normal_form(mwlab.IntMatrix(m))
    u, d, v = snf.U.to_lists(), snf.D.to_lists(), snf.V.to_lists()
    assert oracles.check_smith("m", m, u, d, v) == []
    d_bad = [row[:] for row in d]
    d_bad[1][1] *= 2
    assert oracles.check_smith("m", m, u, d_bad, v)
    u_bad = [[2 * x for x in row] for row in u]
    assert oracles.check_smith("m", m, u_bad, [[2 * x for x in row] for row in d], v)


def test_bimodule_oracle_rejects_an_inner_product_off_by_1e9(tmp_path):
    w = workloads.BimoduleIdentities(ROOT, 1, tmp_path)
    w.depths = (("two_part_dust", 4),)
    w.prepare()
    ops = w.load(mwlab)
    outputs = [op.collect(op.run()) for op in ops]
    assert w.check(mwlab, outputs) == ([], [])
    labels = [op.label for op in ops]
    for key in ("two_part_dust/closed", "two_part_dust/unit"):
        bad = copy.deepcopy(outputs)
        bad[labels.index(key)][3] += 1e-9
        assert w.check(mwlab, bad)[0], key


def test_attractor_probes_fail_as_described(tmp_path):
    w = workloads.AttractorSweep(ROOT, 1, tmp_path)
    w.prepare()
    ops = w.load(mwlab)
    for op in ops:
        if op.probe:
            assert not w._probe_passes(mwlab, op.label, op.collect(op.run()))


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke(workload):
    proc = run_bench(ROOT, "--workload", workload, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    expected_failed = 2 if workload == "attractor-sweep" else 0
    assert result["failed"] == expected_failed


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "report-json", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

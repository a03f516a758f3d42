"""Only KD-tree builds need scipy, and only `report` (through the invariance
residual) makes them. This runs every other subcommand in a fresh
interpreter, where an earlier test cannot have loaded scipy, and checks that
scipy stays unloaded until `report` runs."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RUN = """
import io, json, sys
sys.path.insert(0, sys.argv[1])
out_dir = sys.argv[2]
import mwlab
import mwlab.cli


def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


def run(*argv):
    return mwlab.cli.main(list(argv), out=io.StringIO(), err=io.StringIO())


codes = {
    "import": 0,
    "validate": run("validate", "penrose"),
    "attractor": run("attractor", "two_part_dust", "--depth", "6",
                     "--csv", f"{out_dir}/dust.csv",
                     "--png", f"{out_dir}/dust.png", "--px", "64"),
    "conditions": run("conditions", "squares_z2", "--depth", "6",
                      "--format", "json"),
    "ktheory": run("ktheory", "penrose"),
    "ktheory --matrix": run("ktheory", "--matrix", "3,1;1,3"),
    "examples": run("examples", "list"),
}
before = scipy_loaded()
codes["report"] = run("report", "squares_z2", "--depth", "6")
print(json.dumps({"codes": codes, "before": before, "after": scipy_loaded()}))
"""


def test_only_report_loads_scipy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", RUN, str(ROOT / "src"), str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert set(result["codes"].values()) == {0}, result["codes"]
    assert (tmp_path / "dust.csv").is_file() and (tmp_path / "dust.png").is_file()
    assert result["before"] == []
    assert "scipy.spatial" in result["after"]

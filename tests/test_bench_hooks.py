"""The benchmark's traced mode (`perfbench/run.py --trace 1`) wraps library
functions by name and counts KD-tree builds through each module's `cKDTree`.
Deleting or renaming one of those names breaks the traced run only, so this
installs the hooks in a fresh interpreter the way the traced run does."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import mwlab.cli
import spans
spans.install(spans.Tracer())
"""


def test_trace_hooks_install():
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL, str(ROOT / "src"),
         str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

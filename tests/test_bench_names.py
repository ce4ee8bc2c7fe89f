"""The names the bench's tracer wraps must exist in langselect.

``bench/phase.py::install_tracing`` replaces production names (for example
``pipeline.missing_cells``, ``pipeline.evaluate`` and
``store.ResponseMatrix.subset``) with timed wrappers. Installing it in a fresh
interpreter fails on the first name a refactor deleted or renamed.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import phase, spans
phase.install_tracing(spans.Tracer())
"""


def test_bench_tracing_installs_on_the_current_names():
    result = subprocess.run(
        [sys.executable, "-c", INSTALL, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr

"""The benchmark's self-test, run as part of the required suite.

``perfbench/tracer.py`` wraps ``Scalar`` methods and other public functions
by name; renaming or moving one of them fails this test, not only the
benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    # -B: leave no bytecode cache behind in perfbench/
    proc = subprocess.run(
        [sys.executable, "-B", str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]

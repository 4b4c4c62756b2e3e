"""The benchmark's self-test, run as part of the required suite.

``perfbench/tracer.py`` wraps ``Scalar`` methods and other public functions
by name; renaming or moving one of them fails these tests, not only the
benchmark run.  The self-test runs the benchmark in smoke mode; the quick
check below names the metric and the function a rename would lose.
"""

import importlib
import json
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    # -B: leave no bytecode cache behind in perfbench/
    proc = subprocess.run(
        [sys.executable, "-B", str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]


def _load_tracer():
    # compiled from its source: perfbench/ joins no import path and gets no
    # bytecode cache
    path = ROOT / "perfbench" / "tracer.py"
    module = sys.modules.setdefault("perfbench_tracer", types.ModuleType("perfbench_tracer"))
    exec(compile(path.read_text(), str(path), "exec"), vars(module))
    return module


def test_every_per_layer_metric_has_its_targets():
    # a per-layer metric of BENCHMARK.json is derived from tracer targets;
    # each of them must name a function or method that exists in the package
    tracer = _load_tracer()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    targets = {t.name: t for t in tracer.TARGETS}
    missing = []
    for metric in spec["per_layer"]:
        # trace.wall_s and trace.overhead_ratio are timed by run.py itself
        name = metric["name"]
        needs = tracer.PER_LAYER[name][2] if name in tracer.PER_LAYER else ()
        for span in needs:
            target = targets[span]
            module_name, _, class_name = target.owner.partition(":")
            owner = importlib.import_module(f"dinfnichols.{module_name}")
            if class_name:
                owner = getattr(owner, class_name, None)
            for attr in target.attrs:
                if owner is None or attr not in vars(owner):
                    missing.append(f"{name} needs {target.owner}.{attr}")
    assert not missing, "; ".join(missing)

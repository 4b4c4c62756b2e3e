"""Benchmark of the dinfnichols command-line pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads are defined in ``workloads.py``.  One client drives
``dinfnichols.cli.main`` in-process, one operation after the other, and
checks every output with ``oracles.py``.

``--trace 0`` measures the end-to-end metrics:

* setup_s      median over fresh interpreters of the time from start to the
               first operation being ready (import, inputs, field caches)
* wall_s       median time of one pass over the workload's operations
* op_s_max     median over passes of the slowest operation in the pass
* peak_rss_mb  peak resident memory of the process running the workload

``--trace 1`` runs one untraced pass, then traced passes, and reports the
per-layer metrics of ``tracer.py`` (low medians over the traced passes)
plus ``trace.overhead_ratio`` = traced wall time / untraced wall time.  The
traced spans are written to ``.bench_build/perfbench/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same metrics for people, with ``error_rate`` (failed / attempted).
The exit code is nonzero, with no result line, when the program cannot be
imported or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 5

clock = time.perf_counter


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="low-degree inputs and one pass, for the self-test")
    p.add_argument("--setup-probe", action="store_true",
                   help="prepare the workload and exit (measures setup_s)")
    return p.parse_args(argv)


def prepare(workload: str, seed: int, smoke: bool):
    """Everything before the first operation: import the program, build the
    inputs from the seed, and fill the field caches their scalars need."""
    import dinfnichols.cli  # noqa: F401  (every operation calls it)
    from dinfnichols.field import DEFAULT_ORDER, Scalar

    ops = workloads.build(workload, seed, WORKDIR, smoke)
    for op in ops:
        for text in op.scalars:
            Scalar.parse(text, DEFAULT_ORDER)
    return ops


def measure_setup(workload: str, seed: int, smoke: bool) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)] + (["--smoke"] * smoke)
    times = []
    for _ in range(SETUP_PROBES):
        t0 = clock()
        # no timeout: Popen.wait polls every 50 ms when given one
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(clock() - t0)
    return statistics.median(times)


def run_op(op):
    """One call of the CLI entry point; returns (seconds, exit code, stdout)."""
    from dinfnichols import cli

    out = io.StringIO()
    t0 = clock()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(op.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc(file=sys.stderr)
        code = -1
    return clock() - t0, code, out.getvalue()


class Loop:
    """Closed loop over a workload's operations, pass after pass."""

    def __init__(self, ops):
        self.ops = ops
        self.passes = []         # per pass: seconds of each operation
        self.attempted = 0
        self.failed = 0

    def one_pass(self, before_op=None):
        times = []
        for i, op in enumerate(self.ops):
            # each CLI call is a fresh process for a user; start every
            # operation without garbage left by the previous one
            gc.collect()
            if before_op:
                before_op(i)
            seconds, code, out = run_op(op)
            times.append(seconds)
            problems = op.check(code, out)
            self.attempted += 1
            if problems:
                self.failed += 1
                print(f"FAILED {op.label}: " + "; ".join(problems), file=sys.stderr)
        self.passes.append(times)
        return sum(times)

    def run(self, seconds: float, before_op=None, after_pass=None):
        """Passes until the next one would end after ``seconds``; at least one."""
        start = clock()
        while True:
            took = self.one_pass(before_op)
            if after_pass:
                after_pass()
            if clock() - start + took > seconds:
                return

    def wall_s(self) -> float:
        return statistics.median(sum(p) for p in self.passes)

    def op_s_max(self) -> float:
        return statistics.median(max(p) for p in self.passes)


def end_to_end(ops, args) -> tuple[Loop, dict]:
    setup_s = measure_setup(args.workload, args.seed, args.smoke)
    loop = Loop(ops)
    loop.run(0 if args.smoke else args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return loop, {
        "setup_s": (setup_s, "s"),
        "wall_s": (loop.wall_s(), "s"),
        "op_s_max": (loop.op_s_max(), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(ops, args) -> tuple[Loop, dict]:
    import tracer as tracing

    loop = Loop(ops)
    start = clock()
    loop.one_pass()
    untraced = loop.wall_s()

    traced = Loop(ops)
    tracer = tracing.Tracer()
    snapshots = []

    def snapshot():
        snapshots.append(tracing.layer_metrics(tracer))
        tracer.reset()

    def mark(i):
        tracer.op_id = len(traced.passes) * len(ops) + i

    tracer.install()
    try:
        traced.run(0 if args.smoke else args.seconds - (clock() - start),
                   before_op=mark, after_pass=snapshot)
    finally:
        tracer.uninstall()
    _write_spans(tracer, args, start)

    # median_low keeps counts whole: with two traced passes it picks one
    metrics = {name: (statistics.median_low(s[name][0] for s in snapshots), unit)
               for name, (_, unit) in snapshots[0].items()}
    metrics["trace.wall_s"] = (traced.wall_s(), "s")
    metrics["trace.overhead_ratio"] = (traced.wall_s() / untraced, "ratio")
    absent = sorted(set(tracing.PER_LAYER) - set(metrics))
    if absent:
        print("absent (the traced function no longer exists): "
              + ", ".join(absent), file=sys.stderr)
    loop.attempted += traced.attempted
    loop.failed += traced.failed
    return loop, metrics


def _write_spans(tracer, args, start):
    WORKDIR.mkdir(parents=True, exist_ok=True)
    path = WORKDIR / f"spans-{args.workload}-seed{args.seed}.json"
    fields = ("id", "parent", "op", "name", "start_s", "end_s")
    spans = [dict(zip(fields, (i, parent, op, name, t0 - start, t1 - start)))
             for i, parent, op, name, t0, t1 in tracer.records]
    path.write_text(json.dumps(spans))


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "dinfnichols").is_dir():
        print(f"no dinfnichols sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    try:
        ops = prepare(args.workload, args.seed, args.smoke)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.setup_probe:
        return 0

    loop, metrics = (per_layer if args.trace else end_to_end)(ops, args)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops/pass={len(ops)} untraced passes (s): "
          + " ".join(f"{sum(p):.3f}" for p in loop.passes))
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    print(f"  {'error_rate':36s} {loop.failed / loop.attempted:.6g} ratio "
          f"({loop.failed} of {loop.attempted} ops failed their oracle)")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer tracing of dinfnichols from outside the package.

The tracer replaces public functions and methods of the dinfnichols modules
with timing wrappers, and puts the originals back on ``uninstall``.  Nothing
inside ``src/`` is edited.

A function is patched at every place it is looked up: each module global and
each value of a module-level dict (``verify.SUITES``) that is bound to the
function object.  Binding sites matter because ``from .x import f`` copies the
reference: ``classify`` calls its own ``graded_dims`` name, so wrapping only
``nichols.graded_dims`` would miss the classifier's calls.

Every wrapped call is a span on a stack.  A span's self time is its duration
minus the durations of its child spans, so the self times of all spans under
a root span add up to the root's duration.  Hot leaf functions (field
arithmetic, one braiding, one group product) are only aggregated; the
coarser spans are also kept as records in memory and written out by the
caller when the run ends.

A target whose function no longer exists in the package is *absent*: it is
not patched, and every metric derived from it is left out of the results
instead of being reported as zero.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time
from dataclasses import dataclass
from typing import Callable, Optional

PACKAGE = "dinfnichols"
MODULES = ("cli", "classify", "verify", "nichols", "linalg", "ydmod", "tables",
           "repn", "group", "field")
LAYERS = MODULES + ("trace",)      # trace: the tracer's own argument inspection


@dataclass(frozen=True)
class Target:
    """One function or method to wrap.

    ``owner`` is ``module`` or ``module:Class``; ``attrs`` are the attribute
    names there that share one span name (``__mul__`` and ``__rmul__``, which
    must be wrapped together).
    ``sites`` limits patching to the globals of the named modules; by default
    every binding in the package is patched.  ``inspect(tracer, args)`` runs
    before the call to record argument statistics; its time is charged to the
    ``trace`` layer.
    """

    name: str
    owner: str
    attrs: tuple[str, ...]
    record: bool = True
    sites: Optional[tuple[str, ...]] = None
    inspect: Optional[Callable] = None


def _inspect_mul(tracer, args):
    # rational operands take the scalar-times-vector fast path in Scalar.__mul__
    a, b = args[0], args[1]
    if a.is_rational() or not hasattr(b, "is_rational") or b.is_rational():
        tracer.count("field.mul.rational")


def _inspect_rank(tracer, args):
    mat = args[0]
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    tracer.count("linalg.exact_rank.cells", rows * cols)
    tracer.count("linalg.exact_rank.nnz",
                 sum(1 for row in mat for c in row if not c.is_zero()))
    tracer.maximum("linalg.exact_rank.max_dim", max(rows, cols))


def _inspect_graded_dims(tracer, args):
    if tracer.inside("classify.classify"):
        tracer.count("classify.evidence_computed")


def _inspect_classify(tracer, args):
    # R2 and R3 attach Hilbert-prefix evidence to every finite-dimensional
    # instance; R1 (infinite support) needs none
    if args[0].module.dim is not None:
        tracer.count("classify.evidence_requests")


TARGETS = (
    Target("cli.main", "cli", ("main",)),
    Target("classify.theorem_table", "classify", ("theorem_table",)),
    Target("classify.classify", "classify", ("classify",), inspect=_inspect_classify),
    Target("classify.report_json", "classify", ("report_json",)),
    Target("verify.braid_suite", "verify", ("braid_suite",)),
    Target("verify.yd_suite", "verify", ("yd_suite",)),
    Target("verify.tables_suite", "verify", ("tables_suite",)),
    Target("verify.alambda_suite", "verify", ("alambda_suite",)),
    Target("verify.record", "verify:SuiteResult", ("record",), record=False),
    Target("nichols.graded_dims", "nichols", ("graded_dims",),
           inspect=_inspect_graded_dims),
    # the word-level braid lift; planned to leave the library
    Target("nichols.braid_word_at", "ydmod", ("braid_word_at",), record=False,
           sites=("nichols",)),
    Target("linalg.exact_rank", "linalg", ("exact_rank",), inspect=_inspect_rank),
    Target("linalg.mat_mul", "linalg", ("mat_mul",), record=False),
    Target("linalg.mat_inverse", "linalg", ("mat_inverse",)),
    Target("linalg.nullspace", "linalg", ("nullspace",)),
    Target("ydmod.braid_equation_check", "ydmod", ("braid_equation_check",)),
    Target("ydmod.yd_compat_check", "ydmod", ("yd_compat_check",), record=False),
    Target("ydmod.diagonal_type", "ydmod", ("diagonal_type",)),
    Target("ydmod.braid", "ydmod:YDModule", ("braid",), record=False),
    Target("tables.braiding_table_check", "tables", ("braiding_table_check",)),
    Target("repn.simple_modules", "repn", ("simple_modules",)),
    Target("repn.rep_iso_check", "repn", ("rep_iso_check",)),
    Target("repn.is_irreducible", "repn", ("is_irreducible",)),
    Target("repn.reduce_word", "repn", ("reduce_word",), record=False),
    Target("group.mul", "group:GroupElement", ("__mul__",), record=False),
    Target("field.mul", "field:Scalar", ("__mul__", "__rmul__"), record=False,
           inspect=_inspect_mul),
    Target("field.addsub", "field:Scalar",
           ("__add__", "__radd__", "__sub__", "__rsub__"), record=False),
    Target("field.inverse", "field:Scalar", ("inverse",), record=False),
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(f"{PACKAGE}.{module_name}")
    return getattr(obj, class_name) if class_name else obj


class Tracer:
    """Wraps the package's public functions and aggregates spans."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stack = []          # open frames: [name, start, child_seconds, span id]
        self.calls = {}          # span name -> calls
        self.self_s = {}         # span name -> self seconds
        self.total_s = {}        # span name -> inclusive seconds
        self.counters = {}
        self.records = []        # (span id, parent id, op id, name, start, end)
        self.op_id = 0
        self._ids = itertools.count()
        self.present = set()     # names of targets that could be patched
        self._undo = []

    # -- counters used by the inspect hooks --------------------------------

    def count(self, key: str, n: int = 1):
        self.counters[key] = self.counters.get(key, 0) + n

    def maximum(self, key: str, value):
        self.counters[key] = max(self.counters.get(key, value), value)

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def reset(self):
        """Forget what was aggregated so far (patches stay in place)."""
        self.calls.clear()
        self.self_s.clear()
        self.total_s.clear()
        self.counters.clear()

    # -- patching ------------------------------------------------------------

    def install(self):
        modules = []
        for name in MODULES:
            try:
                modules.append(importlib.import_module(f"{PACKAGE}.{name}"))
            except ImportError:
                continue
        for target in self.targets:
            try:
                owner = _resolve(target.owner)
                originals = [owner.__dict__[a] for a in target.attrs]
            except (ImportError, AttributeError, KeyError):
                continue
            self.present.add(target.name)
            wrappers = {}
            for original in originals:
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(target, original)
            if ":" in target.owner:
                for attr, original in zip(target.attrs, originals):
                    self._patch(owner, attr, original, wrappers[id(original)])
                continue
            sites = [m for m in modules
                     if target.sites is None or m.__name__.rsplit(".", 1)[1] in target.sites]
            for original in originals:
                wrapper = wrappers[id(original)]
                for module in sites:
                    self._rebind(module, original, wrapper)

    def _rebind(self, module, original, wrapper):
        for name, value in list(vars(module).items()):
            if value is original:
                self._patch(module, name, original, wrapper)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapper
                        self._undo.append((value.__setitem__, key, original))

    def _patch(self, holder, name, original, wrapper):
        setattr(holder, name, wrapper)
        self._undo.append((functools.partial(setattr, holder), name, original))

    def uninstall(self):
        while self._undo:
            setter, name, original = self._undo.pop()
            setter(name, original)

    def _wrap(self, target: Target, fn):
        name, record, inspect = target.name, target.record, target.inspect
        stack, clock = self.stack, time.perf_counter
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        tracer, ids = self, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if inspect is not None:
                t0 = clock()
                inspect(tracer, args)
                tracer.charge_inspect(clock() - t0)
            frame = [name, clock(), 0.0, next(ids)]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                calls[name] = calls.get(name, 0) + 1
                self_s[name] = self_s.get(name, 0.0) + duration - frame[2]
                total_s[name] = total_s.get(name, 0.0) + duration
                if stack:
                    stack[-1][2] += duration
                if record:
                    tracer.records.append(
                        (frame[3], stack[-1][3] if stack else None,
                         tracer.op_id, name, frame[1], end))

        return wrapper

    def charge_inspect(self, seconds: float):
        # the inspect hooks run inside the caller's span; move their time
        # out of the caller's self time into the trace layer
        name = "trace.inspect"
        self.self_s[name] = self.self_s.get(name, 0.0) + seconds
        self.total_s[name] = self.total_s.get(name, 0.0) + seconds
        if self.stack:
            self.stack[-1][2] += seconds

    # -- results -------------------------------------------------------------

    def layer_self_seconds(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_s.items():
            out[name.split(".", 1)[0]] += seconds
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def _hit_ratio(t):
    # 1 - symmetrizer computations / instances that need Hilbert evidence
    requests = t.counters.get("classify.evidence_requests", 0)
    return _ratio(requests - t.counters.get("classify.evidence_computed", 0),
                  requests)


def _calls(span):
    return (lambda t: t.calls.get(span, 0)), "count", (span,)


def _self(span):
    return (lambda t: t.self_s.get(span, 0.0)), "s", (span,)


def _total(span):
    return (lambda t: t.total_s.get(span, 0.0)), "s", (span,)


def _counter(key, span, unit="count"):
    return (lambda t: t.counters.get(key, 0)), unit, (span,)


# per-layer metric name -> (value from a Tracer, unit, targets it needs);
# a metric is absent when one of its targets is
PER_LAYER = {
    "field.mul.calls": _calls("field.mul"),
    "field.mul.self_s": _self("field.mul"),
    "field.mul.rational_frac": (
        lambda t: _ratio(t.counters.get("field.mul.rational", 0),
                         t.calls.get("field.mul", 0)), "ratio", ("field.mul",)),
    "field.addsub.calls": _calls("field.addsub"),
    "field.addsub.self_s": _self("field.addsub"),
    "field.inverse.calls": _calls("field.inverse"),
    "field.inverse.self_s": _self("field.inverse"),
    "linalg.exact_rank.calls": _calls("linalg.exact_rank"),
    "linalg.exact_rank.self_s": _self("linalg.exact_rank"),
    "linalg.exact_rank.total_s": _total("linalg.exact_rank"),
    "linalg.exact_rank.cells": _counter("linalg.exact_rank.cells", "linalg.exact_rank"),
    "linalg.exact_rank.max_dim": _counter("linalg.exact_rank.max_dim",
                                          "linalg.exact_rank", "rows"),
    "linalg.exact_rank.nnz_frac": (
        lambda t: _ratio(t.counters.get("linalg.exact_rank.nnz", 0),
                         t.counters.get("linalg.exact_rank.cells", 0)),
        "ratio", ("linalg.exact_rank",)),
    "nichols.graded_dims.calls": _calls("nichols.graded_dims"),
    "nichols.graded_dims.self_s": _self("nichols.graded_dims"),
    "nichols.braid_evals": _calls("nichols.braid_word_at"),
    "ydmod.braid.calls": _calls("ydmod.braid"),
    "ydmod.braid.self_s": _self("ydmod.braid"),
    "ydmod.braid_equation_check.self_s": _self("ydmod.braid_equation_check"),
    "ydmod.yd_compat_check.self_s": _self("ydmod.yd_compat_check"),
    "ydmod.diagonal_type.calls": _calls("ydmod.diagonal_type"),
    "group.mul.calls": _calls("group.mul"),
    "group.mul.self_s": _self("group.mul"),
    "tables.braiding_table_check.self_s": _self("tables.braiding_table_check"),
    "repn.simple_modules.self_s": _self("repn.simple_modules"),
    "repn.rep_iso_check.self_s": _self("repn.rep_iso_check"),
    "repn.is_irreducible.self_s": _self("repn.is_irreducible"),
    "repn.reduce_word.calls": _calls("repn.reduce_word"),
    "repn.reduce_word.self_s": _self("repn.reduce_word"),
    "classify.classify.calls": _calls("classify.classify"),
    "classify.evidence_hit_ratio": (_hit_ratio, "ratio",
                                    ("classify.classify", "nichols.graded_dims")),
    "classify.theorem_table.self_s": _self("classify.theorem_table"),
    "classify.report_json.self_s": _self("classify.report_json"),
    "verify.suite.braid_s": _total("verify.braid_suite"),
    "verify.suite.yd_s": _total("verify.yd_suite"),
    "verify.suite.tables_s": _total("verify.tables_suite"),
    "verify.suite.alambda_s": _total("verify.alambda_suite"),
    "verify.checks": _calls("verify.record"),
}
# self time of each layer: the self times of its spans; these add up to the
# traced wall time (cli is the root span of every operation)
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = (
        (lambda t, layer=_layer: t.layer_self_seconds()[layer]), "s", ())


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric name -> (value, unit) from what the tracer has
    aggregated; absent metrics are left out."""
    return {name: (value(tracer), unit)
            for name, (value, unit, needs) in PER_LAYER.items()
            if all(n in tracer.present for n in needs)}

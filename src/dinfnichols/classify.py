"""The finite-GK-dimension decision engine and report generator.

Three rules, each verified against computed structure before use:

* R1  infinite support: a module supported on an infinite conjugacy class
      has infinite GK-dimension (encoded citation); the evidence is a list
      of distinct coaction degrees witnessing the infinite support.
* R2  h-class trichotomy on the braiding parameter a: a = 1 gives a
      symmetric algebra (GK-dim 2), a = -1 terminates (GK-dim 0), and
      a^2 != 1 is infinite by cited classification results, with truncated
      Hilbert data attached as supporting evidence.
* R3  trivial braiding (one-class): the Nichols algebra is a polynomial
      algebra, GK-dim = dim V.

R2 and R3 first require the computed braiding to pass
``tables.braiding_table_check`` against the closed form
``tables.closed_form_q``; the Hilbert evidence is cached on that matrix.
Finite verdicts must be consistent with the computed growth estimate; any
mismatch raises EvidenceError instead of silently overriding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .field import DEFAULT_ORDER, Scalar
from .group import class_is_infinite
from .nichols import POLYNOMIAL, TERMINATES, GrowthFit, graded_dims, growth_fit
from .repn import rep_iso_check, simple_modules
from .tables import braiding_table_check, closed_form_q
from .ydmod import (
    EPS,
    REFLECTION_FAMILIES,
    SIGN,
    HClassModule,
    OneClassModule,
    YDModule,
)

EVIDENCE_DEGREE = 6


class EvidenceError(RuntimeError):
    """Computed evidence contradicts the rule verdict (transcription bug)."""


@dataclass(frozen=True)
class ParamGrid:
    """Finite parameter sample: class indices n, braiding parameters a,
    central values lambda."""

    ns: tuple[int, ...]
    a_values: tuple[Scalar, ...]
    lambdas: tuple[Scalar, ...]

    @classmethod
    def from_strings(cls, ns, a_values, lambdas, order) -> "ParamGrid":
        return cls(tuple(ns),
                   tuple(Scalar.parse(s, order) for s in a_values),
                   tuple(Scalar.parse(s, order) for s in lambdas))

    def as_json(self):
        return {
            "n": list(self.ns),
            "a": [str(a) for a in self.a_values],
            "lambda": [str(l) for l in self.lambdas],
        }


def default_grid(order: int = DEFAULT_ORDER) -> ParamGrid:
    return ParamGrid.from_strings(
        ns=[1, 2, 3], a_values=["1", "-1", "2"],
        lambdas=["0", "2", "-2", "3"], order=order)


@dataclass(frozen=True)
class FamilyInstance:
    module: YDModule
    family: str                       # "h-class" | "g-class" | "gh-class" | "one-class"
    params: dict

    def key(self):
        return (self.family, self.params.get("n", 0),
                str(self.params.get("a", "")), self.params.get("rep", ""),
                str(self.params.get("lambda", "")))

    def describe(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.family}({inner})"


@dataclass(frozen=True)
class Verdict:
    finite: bool
    gk: Optional[int]                 # value when finite
    rule: str                         # "R1_InfiniteSupport" | "R2_Diagonal" | "R3_TrivialBraiding"
    evidence: dict

    def as_json(self):
        v = {"kind": "finite", "gk": self.gk} if self.finite else {"kind": "infinite"}
        return {"verdict": v, "rule": self.rule, "evidence": self.evidence}


def enumerate_families(grid: ParamGrid, order: int = DEFAULT_ORDER,
                       simples=None) -> list[FamilyInstance]:
    """One instance per (conjugacy class, centralizer character) pair on the grid.

    One-class instances are built only from axiom-passing simple-module
    candidates; failing candidates are reported by the theorem table, not
    silently turned into modules.  ``simples`` holds ``simple_modules`` of
    each lambda of the grid, in grid order; by default it is computed here.
    """
    out = []
    for n in grid.ns:
        for a in grid.a_values:
            out.append(FamilyInstance(
                HClassModule(n, a), "h-class", {"n": n, "a": str(a)}))
    for family, module_class in REFLECTION_FAMILIES.items():
        for rep in (SIGN, EPS):
            out.append(FamilyInstance(module_class(rep, order), family, {"rep": rep}))
    if simples is None:
        simples = [simple_modules(lam) for lam in grid.lambdas]
    for lam, cands in zip(grid.lambdas, simples):
        for cand in cands:
            if cand.axiom.ok:
                out.append(FamilyInstance(
                    OneClassModule(cand.rep, cand.label), "one-class",
                    {"rep": cand.label, "lambda": str(lam)}))
    return out


def _hilbert_evidence(module, matrix, cache):
    # the Hilbert series depends only on the braiding matrix
    key = tuple(map(tuple, matrix))
    if key not in cache:
        prefix = graded_dims(module, EVIDENCE_DEGREE)
        cache[key] = (list(prefix.dims), growth_fit(prefix))
    return cache[key]


def _strings(matrix):
    return [[str(c) for c in row] for row in matrix]


def classify(instance: FamilyInstance, cache: Optional[dict] = None) -> Verdict:
    """Apply the classification rules to one family instance."""
    if cache is None:
        cache = {}
    module = instance.module
    if class_is_infinite(module.support):
        degrees = []
        seen = set()
        for v in module.basis_window(12):
            d = module.coact(v)
            if d not in seen:
                seen.add(d)
                degrees.append(str(d))
            if len(degrees) == 10:
                break
        return Verdict(False, None, "R1_InfiniteSupport",
                       {"support": str(module.support),
                        "distinct_degrees": degrees})

    try:
        matrix = closed_form_q(module)
    except TypeError:
        raise EvidenceError(
            f"no classification rule applies to {instance.describe()}") from None
    check = braiding_table_check(module)
    if not check.ok:
        w = check.witness
        raise EvidenceError(
            f"{instance.describe()}: computed braiding {w.computed} on {w.pair} "
            f"is not the closed form {w.expected}")

    one = Scalar.one(module.order)
    if isinstance(module, OneClassModule):
        rule, gk = "R3_TrivialBraiding", module.dim
    else:
        rule, gk = "R2_Diagonal", {one: 2, -one: 0}.get(module.a)
    dims, fit = _hilbert_evidence(module, matrix, cache)
    evidence = {
        "braiding_matrix": _strings(matrix),
        "hilbert_prefix": dims,
        "growth": fit.as_json(),
    }
    if gk is None:
        evidence["note"] = ("a^2 != 1: infinite by cited rule; truncated "
                            "growth attached as supporting evidence")
        return Verdict(False, None, rule, evidence)
    _require_consistent(instance, gk, dims, fit)
    return Verdict(True, gk, rule, evidence)


def _require_consistent(instance, gk, dims, fit: GrowthFit):
    ok = (fit.kind == POLYNOMIAL and fit.value == gk) or \
         (fit.kind == TERMINATES and gk == 0)
    if not ok:
        raise EvidenceError(
            f"{instance.describe()}: verdict Finite({gk}) contradicts computed "
            f"growth {fit} on prefix {dims}")


# -- the theorem table ---------------------------------------------------------

_ENTRY_LABELS = {
    1: "h-class with braiding parameter +1 or -1 (any n)",
    2: "one-class, 2-dim module s0+ (lambda = 0)",
    3: "one-class, 2-dim module s0- (lambda = 0)",
    4: "one-class, 1-dim module slam+ (lambda = +-2)",
    5: "one-class, 1-dim module slam- (lambda = +-2)",
}


def _entry_of(instance: FamilyInstance) -> Optional[int]:
    if instance.family == "h-class":
        return 1
    if instance.family == "one-class":
        return {"s0+": 2, "s0-": 3, "slam+": 4, "slam-": 5}[instance.params["rep"]]
    return None


def theorem_table(grid: ParamGrid, order: int = DEFAULT_ORDER) -> dict:
    """Classify every family on the grid and compare with the five-entry
    reference list; returns the full JSON-ready report."""
    one = Scalar.one(order)
    annotations = []
    if not {one, -one} <= set(grid.a_values):
        annotations.append("grid does not cover a in {1,-1}; entry 1 may be empty")
    if not any(a != one and a != -one for a in grid.a_values):
        annotations.append("grid has no a with a^2 != 1; no infinite h-class witness")

    # one candidate list per lambda feeds the families and both kinds of note
    simples = [simple_modules(lam) for lam in grid.lambdas]
    instances = enumerate_families(grid, order, simples)
    instances.sort(key=lambda i: (_FAMILY_ORDER[i.family],) + i.key())
    cache: dict = {}
    rows = []
    finite_by_entry: dict[int, list[str]] = {k: [] for k in _ENTRY_LABELS}
    infinite_names = []
    for inst in instances:
        verdict = classify(inst, cache)
        rows.append({
            "family": inst.family,
            "params": inst.params,
            "support": str(inst.module.support),
            **verdict.as_json(),
        })
        name = inst.describe()
        if verdict.finite:
            entry = _entry_of(inst)
            if entry is not None:
                finite_by_entry[entry].append(name)
            else:
                annotations.append(f"finite verdict outside the reference list: {name}")
        else:
            infinite_names.append(name)

    # axiom failures on the lambda grid are reported, not dropped silently
    for lam, cands in zip(grid.lambdas, simples):
        for cand in cands:
            if not cand.axiom.ok:
                annotations.append(
                    f"lambda={lam}: candidate {cand.label} fails module axioms "
                    f"({cand.axiom.witness}); excluded from one-class families")

    annotations.extend(_iso_annotations(grid.lambdas, simples))

    entries = []
    for k in sorted(_ENTRY_LABELS):
        members = sorted(finite_by_entry[k])
        entries.append({
            "entry": k,
            "label": _ENTRY_LABELS[k],
            "matched": bool(members),
            "members": members,
        })
        if not members:
            annotations.append(f"entry {k} has no members under this grid")

    return {
        "grid": grid.as_json(),
        "zeta_order": order,
        "families": rows,
        "theorem_comparison": {
            "paper_entries": 5,
            "entries": entries,
            "annotations": annotations,
        },
    }


_FAMILY_ORDER = {"h-class": 0, "g-class": 1, "gh-class": 2, "one-class": 3}


def _iso_annotations(lambdas, simples) -> list[str]:
    out = []
    zero = next((cands for lam, cands in zip(lambdas, simples) if lam.is_zero()), None)
    if zero is not None:
        cands = {c.label: c for c in zero}
        iso = rep_iso_check(cands["s0+"].rep, cands["s0-"].rep)
        out.append(f"s0+ isomorphic to s0-: {iso}"
                   + (" (entries 2 and 3 describe the same braided vector space)"
                      if iso else ""))
    for lam, simple in zip(lambdas, simples):
        if lam.is_zero():
            continue
        cands = {c.label: c for c in simple if c.axiom.ok}
        if {"slam+", "slam-"} <= set(cands):
            iso = rep_iso_check(cands["slam+"].rep, cands["slam-"].rep)
            out.append(f"lambda={lam}: slam+ isomorphic to slam-: {iso}")
    return out


# -- serialization -------------------------------------------------------------

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["grid", "zeta_order", "families", "theorem_comparison"],
    "additionalProperties": False,
    "properties": {
        "grid": {
            "type": "object",
            "required": ["n", "a", "lambda"],
            "properties": {
                "n": {"type": "array", "items": {"type": "integer", "minimum": 1}},
                "a": {"type": "array", "items": {"type": "string"}},
                "lambda": {"type": "array", "items": {"type": "string"}},
            },
        },
        "zeta_order": {"type": "integer", "minimum": 1},
        "families": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["family", "params", "support", "verdict", "rule",
                             "evidence"],
                "properties": {
                    "family": {"enum": ["h-class", "g-class", "gh-class",
                                        "one-class"]},
                    "params": {"type": "object"},
                    "support": {"type": "string"},
                    "verdict": {
                        "oneOf": [
                            {
                                "type": "object",
                                "properties": {
                                    "kind": {"const": "finite"},
                                    "gk": {"type": "integer", "minimum": 0},
                                },
                                "required": ["kind", "gk"],
                            },
                            {
                                "type": "object",
                                "properties": {"kind": {"const": "infinite"}},
                                "required": ["kind"],
                            },
                        ]
                    },
                    "rule": {"enum": ["R1_InfiniteSupport", "R2_Diagonal",
                                      "R3_TrivialBraiding"]},
                    "evidence": {"type": "object"},
                },
            },
        },
        "theorem_comparison": {
            "type": "object",
            "required": ["paper_entries", "entries", "annotations"],
            "properties": {
                "paper_entries": {"const": 5},
                "entries": {
                    "type": "array",
                    "minItems": 5,
                    "maxItems": 5,
                    "items": {
                        "type": "object",
                        "required": ["entry", "label", "matched", "members"],
                        "properties": {
                            "entry": {"type": "integer", "minimum": 1, "maximum": 5},
                            "label": {"type": "string"},
                            "matched": {"type": "boolean"},
                            "members": {"type": "array",
                                        "items": {"type": "string"}},
                        },
                    },
                },
                "annotations": {"type": "array", "items": {"type": "string"}},
            },
        },
    },
}


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def report_text(report: dict) -> str:
    lines = []
    lines.append(f"parameter grid: {report['grid']}")
    lines.append("")
    for row in report["families"]:
        v = row["verdict"]
        verdict = f"Finite(gk={v['gk']})" if v["kind"] == "finite" else "Infinite"
        params = ", ".join(f"{k}={val}" for k, val in row["params"].items())
        lines.append(f"{row['family']}({params})  support={row['support']}  "
                     f"{verdict}  via {row['rule']}")
    lines.append("")
    comp = report["theorem_comparison"]
    lines.append(f"reference entries: {comp['paper_entries']}")
    for e in comp["entries"]:
        mark = "ok " if e["matched"] else "MISSING"
        lines.append(f"  [{mark}] entry {e['entry']}: {e['label']}")
        for m in e["members"]:
            lines.append(f"          {m}")
    for note in comp["annotations"]:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def report_csv(report: dict) -> str:
    lines = ["family,params,support,verdict,gk,rule"]
    for row in report["families"]:
        v = row["verdict"]
        params = ";".join(f"{k}={val}" for k, val in row["params"].items())
        gk = v.get("gk", "")
        lines.append(f"{row['family']},{params},{row['support']},"
                     f"{v['kind']},{gk},{row['rule']}")
    return "\n".join(lines)

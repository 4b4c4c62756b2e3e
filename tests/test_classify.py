import importlib
import json

import jsonschema
import pytest

from dinfnichols import cli

from dinfnichols.classify import (
    EvidenceError,
    FamilyInstance,
    ParamGrid,
    REPORT_SCHEMA,
    classify,
    default_grid,
    enumerate_families,
    report_csv,
    report_json,
    report_text,
    theorem_table,
)
from dinfnichols.field import Scalar
from dinfnichols.group import conj_class_of, parse_element
from dinfnichols.tables import braiding_table_check
from dinfnichols.ydmod import X1, X2, HClassModule, SignedVector


def grid_of(ns, a_values, lambdas):
    return ParamGrid.from_strings(ns, a_values, lambdas, 12)


def test_enumerate_counts():
    grid = grid_of([1, 2, 3], ["1", "-1", "2"], ["0", "2", "-2"])
    fams = enumerate_families(grid)
    by_family = {}
    for f in fams:
        by_family.setdefault(f.family, []).append(f)
    assert len(by_family["h-class"]) == 9
    assert len(by_family["g-class"]) == 2
    assert len(by_family["gh-class"]) == 2
    # lambda = 0 contributes s0+ and s0-; each of +-2 contributes slam+/-
    assert len(by_family["one-class"]) == 6
    labels = {f.params["rep"] for f in by_family["one-class"]}
    assert labels == {"s0+", "s0-", "slam+", "slam-"}


def test_enumerate_empty_grid():
    grid = grid_of([], [], [])
    fams = enumerate_families(grid)
    assert [f.family for f in fams] == ["g-class", "g-class",
                                        "gh-class", "gh-class"]


def test_enumerate_rejects_zero_a():
    grid = grid_of([1], ["0"], [])
    with pytest.raises(ValueError):
        enumerate_families(grid)


def _classify_single(family_filter, grid):
    out = []
    cache = {}
    for inst in enumerate_families(grid):
        if family_filter(inst):
            out.append((inst, classify(inst, cache)))
    return out


def test_classify_infinite_support():
    grid = grid_of([], [], [])
    for inst, verdict in _classify_single(lambda i: True, grid):
        assert not verdict.finite
        assert verdict.rule == "R1_InfiniteSupport"
        degrees = verdict.evidence["distinct_degrees"]
        assert len(degrees) == 10
        assert len(set(degrees)) == 10
        support = inst.module.support
        for d in degrees:
            assert conj_class_of(parse_element(d)) == support


def test_classify_h_class_trichotomy():
    zeta3 = str(Scalar.parse("z^4", 12))   # canonical form z^2-1
    grid = grid_of([1, 2, 3, 4, 5], ["1", "-1", "2", "z^4"], [])
    verdicts = {}
    for inst, verdict in _classify_single(lambda i: i.family == "h-class", grid):
        key = (inst.params["a"], inst.params["n"])
        verdicts[key] = verdict
    for n in range(1, 6):
        assert verdicts[("1", n)].finite and verdicts[("1", n)].gk == 2
        assert verdicts[("-1", n)].finite and verdicts[("-1", n)].gk == 0
        assert not verdicts[("2", n)].finite
        assert not verdicts[(zeta3, n)].finite
        # verdict depends only on a, not on n
        for a in ("1", "-1", "2", zeta3):
            assert verdicts[(a, n)].finite == verdicts[(a, 1)].finite
            assert verdicts[(a, n)].gk == verdicts[(a, 1)].gk
            assert verdicts[(a, n)].rule == "R2_Diagonal"


def test_classify_finite_evidence_consistency():
    grid = grid_of([1], ["-1"], ["2"])
    for inst, verdict in _classify_single(lambda i: i.family != "g-class"
                                          and i.family != "gh-class", grid):
        if not verdict.finite:
            continue
        dims = verdict.evidence["hilbert_prefix"]
        growth = verdict.evidence["growth"]
        if growth["kind"] == "PolynomialDegree":
            assert growth["value"] == verdict.gk
        else:
            assert growth["kind"] == "TerminatesAt" and verdict.gk == 0
        assert len(dims) == 7


def test_classify_one_class():
    grid = grid_of([], [], ["0", "2"])
    got = {}
    for inst, verdict in _classify_single(lambda i: i.family == "one-class", grid):
        got[(inst.params["rep"], inst.params["lambda"])] = verdict
    assert got[("s0+", "0")].gk == 2
    assert got[("s0-", "0")].gk == 2
    assert got[("slam+", "2")].gk == 1
    assert got[("slam-", "2")].gk == 1
    for v in got.values():
        assert v.rule == "R3_TrivialBraiding"


def test_classify_infinite_h_class_attaches_growth_evidence():
    grid = grid_of([1], ["2"], [])
    (inst, verdict), = _classify_single(lambda i: i.family == "h-class", grid)
    assert not verdict.finite
    ev = verdict.evidence
    assert ev["hilbert_prefix"][2] == 4
    assert any(d > n + 1 for n, d in enumerate(ev["hilbert_prefix"]))
    assert "cited rule" in ev["note"]


def test_theorem_table_default_grid():
    report = theorem_table(default_grid())
    comp = report["theorem_comparison"]
    assert comp["paper_entries"] == 5
    assert all(e["matched"] for e in comp["entries"])
    finite = [r for r in report["families"] if r["verdict"]["kind"] == "finite"]
    infinite = [r for r in report["families"] if r["verdict"]["kind"] == "infinite"]
    assert {r["family"] for r in infinite} == {"h-class", "g-class", "gh-class"}
    for r in infinite:
        if r["family"] == "h-class":
            assert r["params"]["a"] == "2"
    assert {r["family"] for r in finite} == {"h-class", "one-class"}
    # the iso annotations are present and deterministic
    notes = "\n".join(comp["annotations"])
    assert "s0+ isomorphic to s0-: True" in notes
    assert "slam+ isomorphic to slam-: False" in notes


def test_theorem_table_grid_without_pm2_flags_entries():
    report = theorem_table(grid_of([1], ["1", "-1", "2"], ["0", "3"]))
    comp = report["theorem_comparison"]
    matched = {e["entry"]: e["matched"] for e in comp["entries"]}
    assert matched[1] and matched[2] and matched[3]
    assert not matched[4] and not matched[5]
    notes = "\n".join(comp["annotations"])
    assert "entry 4 has no members" in notes
    assert "entry 5 has no members" in notes
    assert "fails module axioms" in notes


def test_report_validates_against_schema():
    report = theorem_table(default_grid())
    jsonschema.validate(report, REPORT_SCHEMA)


def test_report_byte_stable():
    grid = default_grid()
    s1 = report_json(theorem_table(grid))
    s2 = report_json(theorem_table(grid))
    assert s1 == s2
    assert json.loads(s1) == json.loads(s2)


def test_report_text_and_csv_render():
    report = theorem_table(grid_of([1], ["1", "-1", "2"], ["0", "2"]))
    text = report_text(report)
    assert "entry 1" in text and "Infinite" in text
    csv = report_csv(report)
    lines = csv.splitlines()
    assert lines[0] == "family,params,support,verdict,gk,rule"
    assert len(lines) == len(report["families"]) + 1


def test_grid_serialization():
    grid = default_grid()
    js = grid.as_json()
    assert js["n"] == [1, 2, 3]
    assert js["a"] == ["1", "-1", "2"]
    assert js["lambda"] == ["0", "2", "-2", "3"]


class CorruptedHClass(HClassModule):
    """Test-only h-class module whose h-power action is altered by ``corrupt``."""

    def __init__(self, n, a, corrupt):
        super().__init__(n, a)
        self.corrupt = corrupt

    def act(self, x, v):
        (t,) = super().act(x, v)
        if x.reflection or x.exponent == 0:
            return (t,)
        return (self.corrupt(v, t),)


def _scale_x2(v, t):
    # still diagonal, but q_12 = 2a^-1 instead of a^-1
    return SignedVector(t.coeff * 2, t.vec) if v == X2 else t


def _move_x1(v, t):
    # h^n sends x1 to a multiple of x2: the braiding is no longer diagonal
    return SignedVector(t.coeff, X2) if v == X1 else t


@pytest.mark.parametrize("corrupt,pair", [(_scale_x2, ("x1", "x2")),
                                          (_move_x1, ("x1", "x1"))])
@pytest.mark.parametrize("a_str", ["1", "2"])
def test_corrupted_finite_family_is_caught(corrupt, pair, a_str):
    a = Scalar.parse(a_str, 12)
    m = CorruptedHClass(1, a, corrupt)
    check = braiding_table_check(m)
    assert not check.ok
    assert check.witness.pair == pair
    assert check.witness.computed != check.witness.expected
    inst = FamilyInstance(m, "h-class", {"n": 1, "a": a_str})
    with pytest.raises(EvidenceError, match="is not the closed form"):
        classify(inst)


def _count_calls(monkeypatch):
    # calls per key, counted at every site that looks the function up
    modules = {n: importlib.import_module(f"dinfnichols.{n}")
               for n in ("classify", "verify", "repn", "linalg", "ydmod")}
    sites = {"simple_modules": [("classify", "simple_modules"), ("verify", "simple_modules")],
             "axioms": [("repn", "_module_axioms")],
             "repn mat_mul": [("linalg", "mat_mul")],
             "ydmod mat_mul": [("ydmod", "mat_mul")],
             "exact_rank": [("linalg", "exact_rank")]}
    counts = dict.fromkeys(sites, 0)

    def counted(key, f):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return f(*args, **kwargs)
        return wrapper

    for key, places in sites.items():
        for module, name in places:
            monkeypatch.setattr(modules[module], name,
                                counted(key, getattr(modules[module], name)))
    return counts


def test_one_report_decides_each_candidate_once(monkeypatch, capsys):
    # one candidate list per lambda, one axiom verdict per rep, no product
    # with the identity; the same counts on a second call, so nothing
    # computed in one call serves the next
    counts = _count_calls(monkeypatch)
    for _ in range(2):
        counts.update(dict.fromkeys(counts, 0))
        theorem_table(default_grid())
        assert counts == {"simple_modules": 4, "axioms": 8, "repn mat_mul": 24,
                          "ydmod mat_mul": 18, "exact_rank": 0}
    for _ in range(2):
        counts.update(dict.fromkeys(counts, 0))
        assert cli.main(["verify", "--suite", "alambda"]) == 0
        assert counts == {"simple_modules": 4, "axioms": 8, "repn mat_mul": 28,
                          "ydmod mat_mul": 0, "exact_rank": 0}
    capsys.readouterr()


def test_one_verify_run_builds_its_sample_once(monkeypatch, capsys):
    # the braid, yd and tables suites of one run share one sample (2
    # candidate lists, 4 axiom verdicts), the yd suite decides the 8 h-class
    # reps and the alambda suite adds 4 lists and 8 verdicts; a single suite
    # builds the sample once too; the same counts on a second call, so no
    # sample outlives its run
    counts = _count_calls(monkeypatch)
    for suite, simple, axioms in (["all", 6, 20], ["all", 6, 20], ["braid", 2, 4],
                                  ["yd", 2, 12], ["tables", 2, 4]):
        counts.update(dict.fromkeys(counts, 0))
        assert cli.main(["verify", "--suite", suite]) == 0
        assert (counts["simple_modules"], counts["axioms"]) == (simple, axioms)
    capsys.readouterr()

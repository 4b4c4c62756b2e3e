"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import jsonschema
import pytest

from dinfnichols.classify import (
    REPORT_SCHEMA,
    default_grid,
    report_json,
    theorem_table,
)
from dinfnichols.field import Scalar
from dinfnichols.linalg import numeric_rank
from dinfnichols.nichols import GrowthFit, HilbertPrefix, growth_fit, quantum_symmetrizer
from dinfnichols.repn import (
    corner_power_identity,
    idempotent_pair,
    is_irreducible,
    corner_data,
    reduce_word,
    rep_iso_check,
    simple_modules,
)
from dinfnichols.tables import braiding_table_check
from dinfnichols.ydmod import (
    GClassModule,
    GhClassModule,
    HClassModule,
    OneClassModule,
    braid_equation_check,
    diagonal_type,
)
from reference import exact_rank

ORDER = 12


def rat(q):
    return Scalar.from_rational(Fraction(q), ORDER)


A_VALUES = [rat(1), rat(-1), rat(2), Scalar.zeta(ORDER, 4)]


def one_class_module(label, lam):
    rep = simple_modules(lam)[label]
    assert rep.axiom.ok
    return OneClassModule(rep, label)


@pytest.fixture(scope="module")
def nichols_results():
    """Symmetrizer matrices, exact ranks and timings for criterion 3/7."""
    cases = {
        "h-class a=1": HClassModule(1, rat(1)),
        "h-class a=-1": HClassModule(1, rat(-1)),
        "h-class a=2": HClassModule(1, rat(2)),
        "one-class slam+ lambda=2": one_class_module("slam+", rat(2)),
    }
    results = {}
    for name, m in cases.items():
        t0 = time.monotonic()
        matrices = {n: quantum_symmetrizer(m, n) for n in range(2, 7)}
        ranks = {n: exact_rank(mat) for n, mat in matrices.items()}
        elapsed = time.monotonic() - t0
        dims = [1, m.dim] + [ranks[n] for n in range(2, 7)]
        results[name] = {
            "module": m, "matrices": matrices, "ranks": ranks,
            "dims": dims, "elapsed": elapsed,
        }
    return results


def test_criterion_1_braid_equation_suite():
    t0 = time.monotonic()
    for n in (1, 2):
        for a in A_VALUES:
            m = HClassModule(n, a)
            triples = itertools.product(m.basis(), repeat=3)
            check = braid_equation_check(m, triples)
            assert check.ok, check.witness
    for m in (GClassModule("sign"), GClassModule("eps"), GhClassModule("sign"), GhClassModule("eps")):
        basis = m.basis_window(8)
        assert len(basis) ** 3 >= 17 ** 3
        check = braid_equation_check(m, itertools.product(basis, repeat=3))
        assert check.ok, check.witness
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"PASS criterion 1: braid equation exact on all windows "
          f"({elapsed:.2f}s < 10s)")


def test_criterion_2_braiding_table_fidelity():
    for m in (GClassModule("sign"), GClassModule("eps"), GhClassModule("sign"), GhClassModule("eps")):
        check = braiding_table_check(m)
        assert check.ok, f"table mismatch witness: {check.witness}"
    for n in (1, 2):
        for a in A_VALUES:
            m = HClassModule(n, a)
            assert braiding_table_check(m).ok
            assert diagonal_type(m) == [[a, a ** -1], [a ** -1, a]]
    one = Scalar.one(ORDER)
    for label in ("s0+", "s0-"):
        m = one_class_module(label, rat(0))
        assert braiding_table_check(m).ok
        assert diagonal_type(m) == [[one, one], [one, one]]
    print("PASS criterion 2: closed-form tables match act/coact composition "
          "on window 8; braiding matrices as stated")


def test_criterion_3_nichols_graded_dimensions(nichols_results):
    r = nichols_results["h-class a=1"]
    assert r["dims"] == [1, 2, 3, 4, 5, 6, 7]
    assert growth_fit(r["dims"]) == GrowthFit("PolynomialDegree", 2)
    assert r["elapsed"] < 60.0

    r = nichols_results["h-class a=-1"]
    assert r["dims"] == [1, 2, 1, 0, 0, 0, 0]
    assert sum(r["dims"]) == 4
    assert growth_fit(r["dims"]).kind == "TerminatesAt"
    assert r["elapsed"] < 60.0

    r = nichols_results["h-class a=2"]
    assert r["dims"][2] == 4
    assert any(d > n + 1 for n, d in enumerate(r["dims"]))
    assert r["elapsed"] < 60.0

    r = nichols_results["one-class slam+ lambda=2"]
    assert r["dims"] == [1, 1, 1, 1, 1, 1, 1]
    assert growth_fit(r["dims"]) == GrowthFit("PolynomialDegree", 1)
    assert r["elapsed"] < 60.0

    times = {k: f"{v['elapsed']:.2f}s" for k, v in nichols_results.items()}
    print(f"PASS criterion 3: graded dimensions exact to degree 6 {times}")


def test_criterion_4_alambda_suite():
    t0 = time.monotonic()
    rng = random.Random(0)
    lambdas = [rat(0), rat(2), rat(-2), rat("3/2"), Scalar.zeta(ORDER, 4)]
    letters = ["g", "h", "h^-1"]
    for lam in lambdas:
        for _ in range(200):
            word = [rng.choice(letters) for _ in range(rng.randint(1, 8))]
            elt = reduce_word(lam, word)
            assert len(elt.coeffs) == 4
            split = rng.randrange(len(word) + 1)
            assert reduce_word(lam, word[:split]) * reduce_word(lam, word[split:]) == elt
        pair = e1, e2 = idempotent_pair(lam)
        assert e1 * e1 == e1 and (e1 * e2).is_zero()
        assert e1 + e2 == reduce_word(lam, [])
        for side in ("plus", "minus"):
            assert (corner_data(pair, side).radical_line ** 2).is_zero()
    for _ in range(100):
        lam = rng.choice(lambdas)
        x1 = rat(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        x2 = rat(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        assert corner_power_identity(x1, x2, lam, rng.randint(1, 5),
                                     rng.choice(["plus", "minus"]))
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"PASS criterion 4: A_lambda reduction/idempotent/corner/radical "
          f"suite exact ({elapsed:.2f}s < 5s)")


def test_criterion_5_simple_module_suite():
    for lam_val in (0, 2, -2):
        for label, rep in simple_modules(rat(lam_val)).items():
            assert rep.axiom.ok, (lam_val, label)
            assert is_irreducible(rep)
    witnesses = []
    for rep in simple_modules(rat(3)).values():
        assert rep.dim == 1
        assert not rep.axiom.ok
        assert rep.axiom.witness == "g h g != h^-1"
        witnesses.append(rep.axiom.witness)
    zero = simple_modules(rat(0))
    verdict1 = rep_iso_check(zero["s0+"], zero["s0-"])
    verdict2 = rep_iso_check(zero["s0+"], zero["s0-"])
    assert verdict1 == verdict2    # deterministic
    print(f"PASS criterion 5: simple modules verified; lambda=3 candidates "
          f"fail with witnesses {witnesses}; s0+ isomorphic to s0-: {verdict1}")


def test_criterion_6_theorem_reproduction():
    grid = default_grid()
    report = theorem_table(grid)
    jsonschema.validate(report, REPORT_SCHEMA)

    comp = report["theorem_comparison"]
    assert comp["paper_entries"] == 5
    assert all(e["matched"] for e in comp["entries"])

    finite = {r["family"]: [] for r in report["families"]}
    for r in report["families"]:
        if r["verdict"]["kind"] == "finite":
            finite[r["family"]].append(r)
    assert len(finite["h-class"]) == 6          # n in {1,2,3} x a in {1,-1}
    assert len(finite["one-class"]) == 6        # s0+- and slam+- at +-2
    assert not finite["g-class"] and not finite["gh-class"]

    for r in report["families"]:
        if r["family"] in ("g-class", "gh-class"):
            assert r["verdict"]["kind"] == "infinite"
            assert r["rule"] == "R1_InfiniteSupport"
        if r["family"] == "h-class" and r["params"]["a"] == "2":
            assert r["verdict"]["kind"] == "infinite"
            assert r["rule"] == "R2_Diagonal"

    text1 = report_json(report)
    text2 = report_json(theorem_table(grid))
    assert text1 == text2
    print("PASS criterion 6: five finite entries reproduced with annotations; "
          "report byte-stable and schema-valid")


def test_criterion_7_exact_vs_float_rank(nichols_results):
    checked = 0
    for name, r in nichols_results.items():
        for n, mat in r["matrices"].items():
            assert exact_rank(mat) == numeric_rank(mat), (name, n)
            checked += 1
    print(f"PASS criterion 7: exact rank equals SVD rank on all {checked} "
          f"acceptance matrices")

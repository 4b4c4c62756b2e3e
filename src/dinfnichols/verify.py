"""Property suites behind the `verify` CLI subcommand.

Each suite runs a batch of exhaustive-window or seeded-random checks and
reports one line per check; the CLI exits nonzero if anything fails.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product as iter_product

from .classify import ParamGrid, enumerate_families
from .field import DEFAULT_ORDER, Scalar
from .group import GroupElement
from .repn import (
    ALambdaElement,
    corner_power_identity,
    idempotent_pair,
    is_irreducible,
    radical_line,
    corner_data,
    reduce_word,
    simple_modules,
)
from .tables import braiding_table_check
from .ydmod import braid_equation_check, diagonal_type, yd_compat_check


class SuiteResult:
    def __init__(self):
        self.lines = []
        self.failed = 0

    def record(self, name: str, ok: bool, detail: str = ""):
        mark = "PASS" if ok else "FAIL"
        suffix = f"  {detail}" if detail else ""
        self.lines.append(f"[{mark}] {name}{suffix}")
        if not ok:
            self.failed += 1

    def extend(self, other: "SuiteResult"):
        self.lines.extend(other.lines)
        self.failed += other.failed


def _sample_modules(order: int = DEFAULT_ORDER):
    a_values = (Scalar.one(order), -Scalar.one(order),
                Scalar.from_rational(2, order), Scalar.zeta(order, order // 3))
    lambdas = (Scalar.zero(order), Scalar.from_rational(2, order))
    grid = ParamGrid((1, 2), a_values, lambdas)
    return [i.module for i in enumerate_families(grid, order)]


def braid_suite(window: int = 8, seed: int = 0,
                order: int = DEFAULT_ORDER) -> SuiteResult:
    res = SuiteResult()
    for m in _sample_modules(order):
        check = braid_equation_check(m, iter_product(m.basis_window(window), repeat=3))
        res.record(f"braid equation: {m!r} window={window}", check.ok,
                   "" if check.ok else str(check.witness))
    return res


def yd_suite(window: int = 20, seed: int = 0, order: int = DEFAULT_ORDER) -> SuiteResult:
    res = SuiteResult()
    g = GroupElement.g()
    for m in _sample_modules(order):
        basis = m.basis_window(window)
        # h-class modules act through <g, h^n>
        rot = GroupElement.h(getattr(m, "n", 1))
        ok = all(yd_compat_check(m, x, v) for x in (g, rot) for v in basis)
        res.record(f"yd compatibility: {m!r}", ok)
        ident = GroupElement.identity()
        rel_ok = True
        for v in basis:
            gv = m.act(g, v)
            ggv = [t2 for t1 in gv for t2 in _scaled_act(m, g, t1)]
            # compare in canonical form: B(1) aliases a multiple of A(0)
            # on the gh-class, and the identity action canonicalizes
            if not _same_comb(ggv, [(t.coeff, t.vec) for t in m.act(ident, v)]):
                rel_ok = False
            ghgv = [t3
                    for t1 in gv
                    for t2 in _scaled_act(m, rot, t1)
                    for t3 in _scaled_act(m, g, t2)]
            hinv = [(t.coeff, t.vec) for t in m.act(rot.inverse(), v)]
            if not _same_comb(ghgv, hinv):
                rel_ok = False
        res.record(f"relations g.(g.v)=v, g.(h.(g.v))=h^-1.v: {m!r}", rel_ok)
        degs = {m.coact(v) for v in basis}
        in_class = all(m.support.contains(d) for d in degs)
        if m.dim is None:
            expected = 2 * window + 1 if m.twist == 0 else 2 * window
            count_ok = len(degs) == expected
        else:
            count_ok = len(degs) == (2 if m.dim == 2 and m.support.tag == "HPower" else 1)
        res.record(f"coaction degrees lie in support and cover: {m!r}",
                   in_class and count_ok, f"distinct={len(degs)}")
    return res


def _scaled_act(m, x, term):
    coeff, vec = term if isinstance(term, tuple) else (term.coeff, term.vec)
    return [(coeff * t.coeff, t.vec) for t in m.act(x, vec)]


def _same_comb(terms_a, terms_b) -> bool:
    def collapse(terms):
        acc = {}
        for coeff, vec in terms:
            acc[vec] = acc.get(vec, Scalar.zero(coeff.order)) + coeff
        return {v: c for v, c in acc.items() if not c.is_zero()}

    return collapse(terms_a) == collapse(terms_b)


def tables_suite(window: int = 8, seed: int = 0,
                 order: int = DEFAULT_ORDER) -> SuiteResult:
    res = SuiteResult()
    mods = _sample_modules(order)
    for m in mods:
        check = braiding_table_check(m, window)
        res.record(f"closed-form table: {m!r} window={window}", check.ok,
                   "" if check.ok else str(check.witness))
    for m in mods:
        if m.dim is not None:
            res.record(f"diagonal type exists: {m!r}", diagonal_type(m) is not None)
    return res


def alambda_suite(window: int = 8, seed: int = 0,
                  order: int = DEFAULT_ORDER) -> SuiteResult:
    res = SuiteResult()
    rng = random.Random(seed)
    lambdas = [Scalar.zero(order), Scalar.from_rational(2, order),
               Scalar.from_rational(-2, order), Scalar.from_rational(Fraction(3, 2), order),
               Scalar.zeta(order, order // 3)]
    letters = ["g", "h", "h^-1"]
    for lam in lambdas:
        ok = True
        for _ in range(200):
            word = [rng.choice(letters) for _ in range(rng.randint(1, 8))]
            left = reduce_word(lam, word)
            right = ALambdaElement.one(lam)
            for letter in reversed(word):
                right = reduce_word(lam, [letter]) * right
            if left != right:
                ok = False
                break
        res.record(f"word reduction closed and associative: lambda={lam}", ok)
        e1, e2 = idempotent_pair(lam)
        res.record(f"idempotents verified: lambda={lam}", True)
        powers_ok = True
        for _ in range(20):
            x1 = Scalar.from_rational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), order)
            x2 = Scalar.from_rational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), order)
            n = rng.randint(1, 5)
            side = rng.choice(["plus", "minus"])
            if not corner_power_identity(x1, x2, lam, n, side):
                powers_ok = False
                break
        res.record(f"corner power identity: lambda={lam}", powers_ok)
        for side in ("plus", "minus"):
            c = corner_data(lam, side)
            r = radical_line(c, lam)
            res.record(f"radical line squares to zero: lambda={lam} {side}",
                       (r * r).is_zero())
    for lam in lambdas[:3] + [Scalar.from_rational(3, order)]:
        for cand in simple_modules(lam):
            if cand.axiom.ok:
                res.record(f"simple module irreducible: lambda={lam} {cand.label}",
                           is_irreducible(cand.rep))
            else:
                res.record(
                    f"candidate flagged (expected for lambda not 0,+-2): "
                    f"lambda={lam} {cand.label}",
                    not cand.axiom.ok, f"witness: {cand.axiom.witness}")
    return res


SUITES = {
    "braid": braid_suite,
    "yd": yd_suite,
    "tables": tables_suite,
    "alambda": alambda_suite,
}


def run_suites(names, window: int = 8, seed: int = 0,
               order: int = DEFAULT_ORDER) -> SuiteResult:
    res = SuiteResult()
    for name in names:
        res.extend(SUITES[name](window=window, seed=seed, order=order))
    return res

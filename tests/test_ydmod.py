import itertools
from fractions import Fraction

import pytest

from dinfnichols.field import Scalar
from dinfnichols.group import GroupElement, conj_class_of
from dinfnichols.repn import simple_modules
from dinfnichols.tables import braiding_table_check, reflection_table
from dinfnichols.ydmod import (
    A,
    B,
    BasisVector,
    GClassModule,
    GhClassModule,
    HClassModule,
    OneClassModule,
    V1,
    V2,
    X1,
    X2,
    braid_equation_check,
    diagonal_type,
    yd_compat_check,
)

ORDER = 12
g = GroupElement.g()
h = GroupElement.h()


def rat(q):
    return Scalar.from_rational(Fraction(q), ORDER)


def one_class_module(label, lam):
    cand = {c.label: c for c in simple_modules(lam)}[label]
    assert cand.axiom.ok
    return OneClassModule(cand.rep, label)


def all_finite_modules():
    mods = [HClassModule(n, a) for n in (1, 2) for a in (rat(1), rat(-1), rat(2),
                                                    Scalar.zeta(12, 4))]
    mods += [one_class_module("s0+", rat(0)), one_class_module("s0-", rat(0)),
             one_class_module("slam+", rat(2)), one_class_module("slam-", rat(-2))]
    return mods


def all_infinite_modules():
    return [GClassModule("sign"), GClassModule("eps"), GhClassModule("sign"), GhClassModule("eps")]


def test_basis_vector_validation():
    with pytest.raises(ValueError):
        B(0)
    with pytest.raises(ValueError):
        A(-1)
    with pytest.raises(ValueError):
        BasisVector("q", 1)
    assert str(A(3)) == "a3" and str(X1) == "x1"


def test_act_examples():
    mg = GClassModule("sign")
    assert [str(t) for t in mg.act(h, B(1))] == ["(-1)*a0"]
    mh = HClassModule(2, rat(2))
    (t,) = mh.act(GroupElement.h(2), X1)
    assert t.coeff == rat(2) and t.vec == X1
    for m in all_finite_modules() + all_infinite_modules():
        v = m.basis()[0] if m.dim is not None else A(0)
        assert [ (t.coeff, t.vec) for t in m.act(GroupElement.identity(), v) ] \
            == [(Scalar.one(ORDER), v)]


def test_act_rejects_foreign_vectors_and_bad_exponents():
    mh = HClassModule(2, rat(2))
    with pytest.raises(ValueError):
        mh.act(h, A(0))
    with pytest.raises(ValueError):
        mh.act(h, X1)  # h^1 needs a square root of a = 2
    mg = GClassModule("sign")
    with pytest.raises(ValueError):
        mg.act(h, X1)


def test_action_generator_tables_g_class():
    # sign: g.a0 = -a0, g.an = bn, g.bn = an, h.an = a_{n+1},
    #       h.bn = b_{n-1} (n >= 2), h.b1 = -a0
    m = GClassModule("sign")
    assert [str(t) for t in m.act(g, A(0))] == ["(-1)*a0"]
    assert [str(t) for t in m.act(g, A(3))] == ["(1)*b3"]
    assert [str(t) for t in m.act(g, B(3))] == ["(1)*a3"]
    assert [str(t) for t in m.act(h, A(3))] == ["(1)*a4"]
    assert [str(t) for t in m.act(h, B(3))] == ["(1)*b2"]
    m = GClassModule("eps")
    assert [str(t) for t in m.act(g, A(0))] == ["(1)*a0"]
    assert [str(t) for t in m.act(h, B(1))] == ["(1)*a0"]


def test_action_generator_tables_gh_class():
    # sign: g.a0 = -a1, h.b1 = -a1
    m = GhClassModule("sign")
    assert [str(t) for t in m.act(g, A(0))] == ["(-1)*a1"]
    assert [str(t) for t in m.act(h, B(1))] == ["(-1)*a1"]
    assert [str(t) for t in m.act(g, A(2))] == ["(1)*b2"]
    assert [str(t) for t in m.act(h, B(3))] == ["(1)*b2"]
    m = GhClassModule("eps")
    assert [str(t) for t in m.act(g, A(0))] == ["(1)*a1"]
    assert [str(t) for t in m.act(h, B(1))] == ["(1)*a1"]


def test_coact_examples():
    mg = GClassModule("sign")
    assert mg.coact(A(0)) == g
    assert mg.coact(A(3)) == GroupElement(1, -6)     # h^6 g in normal form
    assert mg.coact(B(2)) == GroupElement(1, 4)      # g h^4
    mgh = GhClassModule("eps")
    assert mgh.coact(A(3)) == GroupElement(1, -5)    # h^5 g
    assert mgh.coact(A(0)) == g * h
    assert mgh.coact(B(1)) == g * h                  # alias of a0's degree
    mh = HClassModule(2, rat(1))
    assert mh.coact(X1) == GroupElement.h(2)
    assert mh.coact(X2) == GroupElement.h(-2)
    m1 = one_class_module("s0+", rat(0))
    assert m1.coact(V1) == GroupElement.identity()


def test_braid_examples():
    mg = GClassModule("sign")
    t = mg.braid(A(2), B(3))
    assert (str(t.coeff), str(t.left), str(t.right)) == ("1", "a7", "a2")
    mgh = GhClassModule("sign")
    t = mgh.braid(A(0), A(0))
    # equals b1 (x) a0 under the alias b1 = -a0; canonical form -a0 (x) a0
    assert (str(t.coeff), str(t.left), str(t.right)) == ("-1", "a0", "a0")
    mh = HClassModule(1, rat(2))
    t = mh.braid(X1, X2)
    assert t.coeff == rat("1/2") and t.left == X2 and t.right == X1
    m1 = one_class_module("s0+", rat(0))
    t = m1.braid(V1, V2)
    assert t.coeff == Scalar.one(ORDER) and t.left == V2 and t.right == V1


def test_yd_compat():
    mg = GClassModule("sign")
    assert yd_compat_check(mg, h, A(0))
    mh = HClassModule(1, rat(2))
    assert yd_compat_check(mh, g, X1)
    for m in all_infinite_modules():
        for x in (g, h):
            for v in m.basis_window(20):
                assert yd_compat_check(m, x, v)
    for m in all_finite_modules():
        rot = GroupElement.h(getattr(m, "n", 1))
        for x in (g, rot):
            for v in m.basis():
                assert yd_compat_check(m, x, v)


def test_action_respects_relations_window():
    ident = GroupElement.identity()
    for m in all_infinite_modules():
        for v in m.basis_window(20):
            (gv,) = m.act(g, v)
            (ggv,) = m.act(g, gv.vec)
            (canon,) = m.act(ident, v)
            assert gv.coeff * ggv.coeff == canon.coeff and ggv.vec == canon.vec
            (hgv,) = m.act(h, gv.vec)
            (ghgv,) = m.act(g, hgv.vec)
            (hinv,) = m.act(h.inverse(), v)
            assert gv.coeff * hgv.coeff * ghgv.coeff == hinv.coeff
            assert ghgv.vec == hinv.vec


def test_action_respects_relations_finite_families():
    # rotations act through h^n on the h-class families
    for m in all_finite_modules():
        rot = GroupElement.h(getattr(m, "n", 1))
        for v in m.basis():
            terms = {v: Scalar.one(ORDER)}
            for x in (g, g):
                terms = _apply(m, x, terms)
            assert terms == {v: Scalar.one(ORDER)}
            terms = {v: Scalar.one(ORDER)}
            for x in (g, rot, g):   # applied left to right
                terms = _apply(m, x, terms)
            expected = _apply(m, rot.inverse(), {v: Scalar.one(ORDER)})
            assert terms == expected


def _apply(m, x, terms):
    out = {}
    for vec, coeff in terms.items():
        for t in m.act(x, vec):
            c = out.get(t.vec, Scalar.zero(ORDER)) + coeff * t.coeff
            out[t.vec] = c
    return {v: c for v, c in out.items() if not c.is_zero()}


def test_braid_equation_finite_families_exhaustive():
    for m in all_finite_modules():
        triples = itertools.product(m.basis(), repeat=3)
        assert braid_equation_check(m, triples).ok


def test_braid_equation_infinite_families_window():
    for m in all_infinite_modules():
        basis = m.basis_window(8)
        assert len(basis) == 17
        check = braid_equation_check(m, itertools.product(basis, repeat=3))
        assert check.ok, check.witness


def test_braid_equation_far_from_the_window():
    # stress the index arithmetic away from the acceptance window
    import random
    rng = random.Random(424242)
    for m in all_infinite_modules():
        labels = [A(rng.randint(0, 40)) for _ in range(6)]
        labels += [B(rng.randint(1, 40)) for _ in range(6)]
        triples = [tuple(rng.choice(labels) for _ in range(3)) for _ in range(200)]
        check = braid_equation_check(m, triples)
        assert check.ok, check.witness


def test_coaction_covers_support():
    # distinct coaction degrees witness the infinite support; the gh-class
    # window covers one fewer because b1 shares a0's degree
    w = 12
    mg = GClassModule("sign")
    degs = {mg.coact(v) for v in mg.basis_window(w)}
    assert len(degs) == 2 * w + 1
    assert all(conj_class_of(d) == mg.support for d in degs)
    mgh = GhClassModule("eps")
    degs = {mgh.coact(v) for v in mgh.basis_window(w)}
    assert len(degs) == 2 * w
    assert all(conj_class_of(d) == mgh.support for d in degs)
    mh = HClassModule(3, rat(1))
    assert len({mh.coact(v) for v in mh.basis()}) == 2


def test_diagonal_type():
    a = Scalar.zeta(12, 4)
    for n in range(1, 6):
        m = HClassModule(n, a)
        mtx = diagonal_type(m)
        assert mtx == [[a, a ** -1], [a ** -1, a]]
    m1 = one_class_module("s0+", rat(0))
    one = Scalar.one(ORDER)
    assert diagonal_type(m1) == [[one, one], [one, one]]
    m2 = one_class_module("slam+", rat(2))
    assert diagonal_type(m2) == [[one]]
    with pytest.raises(ValueError):
        diagonal_type(GClassModule("sign"))


def test_braiding_tables_window8():
    for m in all_infinite_modules():
        check = braiding_table_check(m, 8)
        assert check.ok, check.witness


def test_braiding_tables_finite():
    for m in all_finite_modules():
        assert braiding_table_check(m, 1).ok


def test_table_check_reports_perturbed_table():
    # shift the second bb-branch index by +1; the checker must catch it
    m = GhClassModule("sign")
    good = reflection_table(1, -1)

    def perturbed(v, w):
        sign, kind, index = good(v, w)
        if v.kind == "b" and w.kind == "b" and w.index <= 2 * v.index - 1:
            return (sign, kind, index + 1)
        return (sign, kind, index)

    check = braiding_table_check(m, 8, table=perturbed)
    assert not check.ok
    assert check.witness is not None
    assert check.witness.computed != check.witness.expected


def test_one_class_requires_axiom_pass():
    bad = {c.label: c for c in simple_modules(rat(3))}["slam+"]
    with pytest.raises(ValueError):
        OneClassModule(bad.rep)

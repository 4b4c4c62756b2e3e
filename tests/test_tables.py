"""Spot checks of the closed-form tables, entry by literal entry.

The general closed forms are exercised by braiding_table_check; here the
individual special rows (a0/b1 columns, boundary aliases, the h-class and
one-class action tables) are transcribed verbatim as data and compared
with the coaction-then-action composition.
"""

from fractions import Fraction

import pytest

from dinfnichols.field import Scalar
from dinfnichols.group import GroupElement, parse_element
from dinfnichols.repn import simple_modules
from dinfnichols.tables import braiding_table_check, canonicalize, closed_form_q
from dinfnichols.ydmod import (
    A,
    B,
    GClassModule,
    GhClassModule,
    HClassModule,
    OneClassModule,
    V1,
    V2,
    X1,
    X2,
)

ORDER = 12


def rat(q):
    return Scalar.from_rational(Fraction(q), ORDER)


def check_entry(m, v, w, raw):
    computed = m.braid(v, w)
    coeff, vec = canonicalize(m, raw)
    assert computed.coeff == coeff and computed.left == vec, (
        str(v), str(w), str(computed), str(coeff), str(vec))


# (v, w) -> (sign, kind, index), parameterized by the rep sign s
GH_CLASS_SPECIALS = [
    # rows with a_m, m >= 1
    (lambda m, n, s: ((A(m), B(1)), (1, "a", 2 * m)), range(1, 7), [0]),
    (lambda m, n, s: ((A(m), A(0)), (s, "a", 2 * m)), range(1, 7), [0]),
    # rows with b_m, m >= 1
    (lambda m, n, s: ((B(m), A(n)), (1, "b", n + 2 * m - 1)), range(1, 7), range(1, 7)),
    (lambda m, n, s: ((B(m), A(0)), (1, "b", 2 * m - 1)), range(1, 7), [0]),
    (lambda m, n, s: ((B(m), B(1)), (s, "b", 2 * m - 1)), range(1, 7), [0]),
    # a0 rows
    (lambda m, n, s: ((A(0), A(0)), (1, "b", 1)), [0], [0]),
    (lambda m, n, s: ((A(0), A(n)), (1, "b", n + 1)), [0], range(1, 7)),
    (lambda m, n, s: ((A(0), B(n)), (1, "a", n - 1)), [0], range(2, 7)),
    (lambda m, n, s: ((A(0), B(1)), (s, "b", 1)), [0], [0]),
    # b1 rows
    (lambda m, n, s: ((B(1), A(0)), (1, "b", 1)), [0], [0]),
    (lambda m, n, s: ((B(1), A(n)), (1, "b", n + 1)), [0], range(1, 7)),
    (lambda m, n, s: ((B(1), B(n)), (1, "a", n - 1)), [0], range(2, 7)),
    (lambda m, n, s: ((B(1), B(1)), (s, "b", 1)), [0], [0]),
]


@pytest.mark.parametrize("rep,s", [("sign", -1), ("eps", 1)])
def test_gh_class_special_entries(rep, s):
    m = GhClassModule(rep)
    for entry, m_range, n_range in GH_CLASS_SPECIALS:
        for mi in m_range:
            for ni in n_range:
                (v, w), raw = entry(mi, ni, s)
                check_entry(m, v, w, raw)


G_CLASS_SPECIALS = [
    (lambda m, n, s: ((B(m), B(1)), (s, "b", 2 * m - 1)), range(1, 7), [0]),
    (lambda m, n, s: ((B(m), A(n)), (1, "b", 2 * m + n)), range(1, 7), range(0, 7)),
    (lambda m, n, s: ((A(m), B(n)), (1, "a", 2 * m + n)), range(0, 7), range(1, 7)),
    (lambda m, n, s: ((A(m), A(0)), (s, "a", 2 * m)), range(0, 7), [0]),
    # boundary alias: b_0 stands for rho * a_0
    (lambda m, n, s: ((B(m), B(2 * m)), (s, "b", 0)), range(1, 4), [0]),
]


@pytest.mark.parametrize("rep,s", [("sign", -1), ("eps", 1)])
def test_g_class_special_entries(rep, s):
    m = GClassModule(rep)
    for entry, m_range, n_range in G_CLASS_SPECIALS:
        for mi in m_range:
            for ni in n_range:
                (v, w), raw = entry(mi, ni, s)
                check_entry(m, v, w, raw)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("a_str", ["1", "-1", "2", "z^4"])
def test_h_class_action_table(n, a_str):
    a = Scalar.parse(a_str, ORDER)
    a_inv = a.inverse()
    m = HClassModule(n, a)
    one = Scalar.one(ORDER)
    hn = GroupElement.h(n)
    ghn = GroupElement.g() * hn
    hng = hn * GroupElement.g()
    ghng = GroupElement.g() * hn * GroupElement.g()
    expected = {
        (GroupElement.g(), X1): (one, X2),
        (hn, X1): (a, X1),
        (ghn, X1): (a, X2),
        (hng, X1): (a_inv, X2),
        (ghng, X1): (a_inv, X1),
        (GroupElement.g(), X2): (one, X1),
        (hn, X2): (a_inv, X2),
        (ghn, X2): (a_inv, X1),
        (hng, X2): (a, X1),
        (ghng, X2): (a, X2),
    }
    for (x, v), (coeff, vec) in expected.items():
        (t,) = m.act(x, v)
        assert (t.coeff, t.vec) == (coeff, vec), (str(x), str(v))
    # comodule: deg x1 = h^n, deg x2 = h^-n
    assert m.coact(X1) == hn and m.coact(X2) == hn.inverse()


def test_closed_form_q_reads_the_stored_inverse(monkeypatch):
    # the module computes a^-1 once; the closed form and the table check
    # of a finite family reuse it
    a = Scalar.zeta(ORDER)
    m = HClassModule(1, a)
    assert m.a_inv == a.inverse() and m.a * m.a_inv == Scalar.one(ORDER)

    def no_inverse(self):
        raise AssertionError("closed form recomputed an inverse")

    monkeypatch.setattr(Scalar, "inverse", no_inverse)
    assert closed_form_q(m) == [[a, m.a_inv], [m.a_inv, a]]
    assert braiding_table_check(m).ok


def test_one_class_action_tables():
    one = Scalar.one(ORDER)
    g, h = GroupElement.g(), GroupElement.h()
    cands = simple_modules(rat(0))
    plus = OneClassModule(cands["s0+"], "s0+")
    expected = {
        (g, V1): (one, V1), (g, V2): (-one, V2),
        (h, V1): (-one, V2), (h, V2): (one, V1),
    }
    for (x, v), out in expected.items():
        (t,) = plus.act(x, v)
        assert (t.coeff, t.vec) == out
    minus = OneClassModule(cands["s0-"], "s0-")
    expected = {
        (g, V1): (-one, V1), (g, V2): (one, V2),
        (h, V1): (-one, V2), (h, V2): (one, V1),
    }
    for (x, v), out in expected.items():
        (t,) = minus.act(x, v)
        assert (t.coeff, t.vec) == out
    for lam_val, gsign in ((2, 1), (-2, 1)):
        cands = simple_modules(rat(lam_val))
        mod_plus = OneClassModule(cands["slam+"], "slam+")
        (t,) = mod_plus.act(g, V1)
        assert t.coeff == one and t.vec == V1
        (t,) = mod_plus.act(h, V1)
        assert t.coeff == rat(Fraction(lam_val, 2))
        mod_minus = OneClassModule(cands["slam-"], "slam-")
        (t,) = mod_minus.act(g, V1)
        assert t.coeff == -one
        (t,) = mod_minus.act(h, V1)
        assert t.coeff == rat(Fraction(lam_val, 2))


def test_one_class_grading_is_trivial():
    m = OneClassModule(simple_modules(rat(0))["s0+"], "s0+")
    for v in m.basis():
        assert m.coact(v) == parse_element("1")


def test_canonicalize_aliases():
    mg = GClassModule("sign")
    coeff, vec = canonicalize(mg, (1, "b", 0))
    assert vec == A(0) and coeff == -Scalar.one(ORDER)
    mgh = GhClassModule("eps")
    coeff, vec = canonicalize(mgh, (-1, "b", 1))
    assert vec == A(0) and coeff == -Scalar.one(ORDER)
    with pytest.raises(ValueError):
        canonicalize(mg, (1, "a", -2))

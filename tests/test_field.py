import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

from dinfnichols.field import (
    Scalar,
    cyclotomic_polynomial,
    parse_scalar,
    root_of_unity_order,
)


def rat(q, order=12):
    return Scalar.from_rational(Fraction(q), order)


def test_add_examples():
    assert rat("1/2") + rat("1/2") == rat(1)
    # zeta_4 + zeta_4^3 = 0 after reduction mod x^2+1
    assert Scalar.zeta(4) + Scalar.zeta(4, 3) == Scalar.zero(4)
    assert Scalar.one(3) + Scalar.zeta(3) + Scalar.zeta(3, 2) == Scalar.zero(3)


def test_mul_inv_examples():
    assert Scalar.zeta(4) * Scalar.zeta(4) == -Scalar.one(4)
    assert rat(2).inverse() == rat("1/2")
    z12 = Scalar.zeta(12)
    assert z12.inverse() * z12 == Scalar.one(12)


def test_mismatched_order_rejected():
    with pytest.raises(ValueError):
        Scalar.one(4) + Scalar.one(12)
    with pytest.raises(ValueError):
        Scalar.zeta(4) * Scalar.zeta(8)


def test_inv_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        Scalar.zero(12).inverse()


def test_root_of_unity_order():
    assert root_of_unity_order(-Scalar.one(12)) == 2
    assert root_of_unity_order(rat(2)) is None
    assert root_of_unity_order(Scalar.zeta(12, 2)) == 6
    assert root_of_unity_order(Scalar.zeta(12)) == 12
    # -zeta_3 has order 6 = lcm(2, 3); the bound lcm(2, N) is needed
    assert root_of_unity_order(-Scalar.zeta(3)) == 6
    with pytest.raises(ZeroDivisionError):
        root_of_unity_order(Scalar.zero(12))


@pytest.mark.parametrize("order", list(range(1, 25)))
def test_zeta_relations_every_order(order):
    z = Scalar.zeta(order)
    assert z ** order == Scalar.one(order)
    phi = cyclotomic_polynomial(order)
    acc = Scalar.zero(order)
    for k, c in enumerate(phi):
        acc = acc + rat(c, order) * z ** k
    assert acc == Scalar.zero(order)


def test_cyclotomic_degrees():
    # phi(N) spot checks
    assert len(cyclotomic_polynomial(12)) - 1 == 4
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert len(cyclotomic_polynomial(1)) - 1 == 1
    assert len(cyclotomic_polynomial(7)) - 1 == 6


def _random_scalar(rng, order=12):
    coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4)]
    return Scalar(order, coeffs)


def test_field_axioms_random_triples():
    rng = random.Random(20240)
    for _ in range(200):
        x, y, z = (_random_scalar(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x and x * y == y * x
        if not x.is_zero():
            assert x * x.inverse() == Scalar.one(12)
            assert x.inverse().inverse() == x


def test_double_inverse_on_roots():
    for k in range(1, 12):
        x = Scalar.zeta(12, k) + Scalar.one(12)
        if not x.is_zero():
            assert x.inverse().inverse() == x


def test_string_roundtrip():
    rng = random.Random(7)
    for _ in range(50):
        x = _random_scalar(rng)
        assert parse_scalar(str(x)) == x
    assert str(rat("3/2")) == "3/2"
    assert str(-Scalar.one(12)) == "-1"
    assert str(Scalar.zeta(12, 2) + rat("1/3")) == "z^2+1/3"
    assert parse_scalar("z^2 + 1/3") == Scalar.zeta(12, 2) + rat("1/3")
    assert parse_scalar("2*z") == parse_scalar("2z")
    with pytest.raises(ValueError):
        parse_scalar("")
    with pytest.raises(ValueError):
        parse_scalar("q^2")
    with pytest.raises(ValueError, match="zero denominator"):
        parse_scalar("1/0")
    with pytest.raises(ValueError, match="zero denominator"):
        parse_scalar("z+3/0")
    # one sign per term, and "*" only after a coefficient
    for bad in ("--1", "z--2", "+-3", "*z", "1+*z"):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_scalar(bad)


def test_numeric_embedding_cross_check():
    rng = random.Random(99)
    for _ in range(40):
        x, y = _random_scalar(rng), _random_scalar(rng)
        exact = (x * y).to_complex()
        approx = x.to_complex() * y.to_complex()
        assert abs(exact - approx) < 1e-9


def test_int_coercion():
    x = Scalar.zeta(12)
    assert 1 + x == x + 1 == Scalar.one(12) + x
    assert 2 * x == x * 2
    assert (x - 1) + (1 - x) == Scalar.zero(12)


def test_copy_and_pickle_roundtrip():
    for x in (rat("-7/3"), Scalar.zeta(12) + 1, rat("1/2", 15) * Scalar.zeta(15, 4)):
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert y == x and hash(y) == hash(x)
            assert (y.order, y.nums, y.den) == (x.order, x.nums, x.den)


def test_hash_consistency():
    a = Scalar.zeta(12, 3) * Scalar.zeta(12, 9)
    b = Scalar.one(12)
    assert a == b and hash(a) == hash(b)


# -- independent oracle: one Fraction per coefficient ------------------------
#
# The library stores integer numerators over one denominator and reduces with
# an integer table.  The reference below is the plain textbook version: a
# list of Fractions, schoolbook product, reduction by repeated substitution
# of x^deg = -(Phi_N - x^deg), inverse by solving the multiplication matrix.

# 15: (Z/15)^* is C2 x C4, a non-cyclic Galois group of degree 8
ORACLE_ORDERS = (1, 2, 3, 4, 5, 7, 8, 9, 12, 15)


def value(x):
    return [Fraction(n, x.den) for n in x.nums]


def ref_reduce(order, coeffs):
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    cs = [Fraction(c) for c in coeffs]
    for top in range(len(cs) - 1, deg - 1, -1):
        c, cs[top] = cs[top], Fraction(0)
        for j in range(deg):
            cs[top - deg + j] -= c * phi[j]
    return (cs + [Fraction(0)] * deg)[:deg]


def ref_mul(order, a, b):
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    return ref_reduce(order, prod)


def ref_inverse(order, a):
    # solve (a * s) = 1: column j of the matrix is a * z^j
    deg = len(a)
    cols = [ref_mul(order, a, [Fraction(0)] * j + [Fraction(1)]) for j in range(deg)]
    rows = [[cols[j][i] for j in range(deg)] + [Fraction(int(i == 0))]
            for i in range(deg)]
    for c in range(deg):
        p = next(r for r in range(c, deg) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(deg):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
    return [rows[i][deg] for i in range(deg)]


def ref_pow(order, a, n):
    if n < 0:
        a, n = ref_inverse(order, a), -n
    out = ref_reduce(order, [1])
    for _ in range(n):
        out = ref_mul(order, out, a)
    return out


def assert_canonical(x):
    deg = len(cyclotomic_polynomial(x.order)) - 1
    assert len(x.nums) == deg and all(type(n) is int for n in x.nums)
    assert type(x.den) is int and x.den > 0
    assert math.gcd(x.den, *x.nums) == 1
    if not any(x.nums):
        assert x.den == 1


def _oracle_operand(rng, order, big):
    deg = len(cyclotomic_polynomial(order)) - 1
    bound = 10 ** 30 if big else 9
    kind = rng.choice(("zero", "unit", "rational", "cyclotomic", "cyclotomic"))
    if kind == "zero":
        coeffs = [0]
    elif kind == "unit":
        coeffs = [rng.choice((1, -1))]
    else:
        width = 1 if kind == "rational" else deg
        coeffs = [Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
                  for _ in range(width)]
    return Scalar(order, coeffs)


@pytest.mark.parametrize("big", [False, True])
@pytest.mark.parametrize("order", ORACLE_ORDERS)
def test_kernel_matches_fraction_oracle(order, big):
    rng = random.Random(1000 * order + big)
    for _ in range(20 if big else 50):
        x = _oracle_operand(rng, order, big)
        y = _oracle_operand(rng, order, big)
        vx, vy = value(x), value(y)
        for got, want in (
                (x + y, [a + b for a, b in zip(vx, vy)]),
                (x - y, [a - b for a, b in zip(vx, vy)]),
                (x * y, ref_mul(order, vx, vy)),
                (-x, [-a for a in vx])):
            assert_canonical(got)
            assert value(got) == want
        if not x.is_zero():
            inv = x.inverse()
            assert_canonical(inv)
            assert value(inv) == ref_inverse(order, vx)
        for n in (0, 1, 3, -2):
            if n < 0 and x.is_zero():
                continue
            assert value(x ** n) == ref_pow(order, vx, n)


@pytest.mark.parametrize("order", ORACLE_ORDERS)
def test_constructor_reduces_like_oracle(order):
    rng = random.Random(order)
    deg = len(cyclotomic_polynomial(order)) - 1
    for _ in range(30):
        length = rng.randint(0, max(deg, order) + 1)
        coeffs = [Fraction(rng.randint(-50, 50), rng.randint(1, 12))
                  for _ in range(length)]
        x = Scalar(order, coeffs)
        assert_canonical(x)
        assert value(x) == ref_reduce(order, coeffs)
    for k in range(2 * order):
        z = Scalar.zeta(order, k)
        assert_canonical(z)
        assert value(z) == ref_reduce(order, [0] * (k % order) + [1])


def test_scalar_holds_only_order_nums_den():
    assert Scalar.__slots__ == ("order", "nums", "den")
    assert not hasattr(Scalar.one(12), "__dict__")
    zero = Scalar.zero(7)
    assert zero.nums == (0,) * 6 and zero.den == 1
    assert (Scalar.zeta(7) - Scalar.zeta(7)).nums == zero.nums
    assert (rat("1/3") - rat("1/3")).den == 1


def test_same_value_by_every_route_is_identical():
    x, y = rat("1/2"), Scalar.zeta(12, 5) + rat("7/3")
    routes = [
        Scalar(12, [Fraction(2, 4)]),
        Scalar(12, [Fraction(1, 2), 0, 0, 0]),
        parse_scalar("1/2"),
        parse_scalar("2/4"),
        1 / Scalar.from_rational(2),
        Scalar.from_rational(2).inverse(),
        (x + y) - y,
        x * (y * y.inverse()),
        rat(3) * rat("1/6"),
    ]
    for r in routes:
        assert r == x
        assert (r.order, r.nums, r.den) == (12, (1, 0, 0, 0), 2)
        assert hash(r) == hash(x) == hash(Fraction(1, 2))
    # a cyclotomic value: a+b-b and the product with an inverse pair
    w = Scalar.zeta(12, 5) * rat("3/4") + rat("1/6")
    for r in (w + y - y, w * y * y.inverse(), parse_scalar(str(w))):
        assert (r.nums, r.den) == (w.nums, w.den) and hash(r) == hash(w)


def test_hash_of_rational_matches_fraction():
    for q in (1, -2, Fraction(1, 2), 0, Fraction(-7, 3)):
        s = Scalar.from_rational(q)
        assert s == q and hash(s) == hash(q) == hash(Fraction(q))
    assert hash(Scalar.one()) == hash(1)
    assert hash(Scalar.from_rational(-2)) == hash(-2)
    assert hash(rat("1/2")) == hash(Fraction(1, 2))
    assert {1: "one"}[Scalar.one()] == "one"
    assert Scalar.one() in {1, 2}


def test_floats_refused():
    for bad in (0.1, 0.5, 1.0, 1j, complex(1, 0)):
        with pytest.raises(TypeError):
            Scalar.from_rational(bad)
        with pytest.raises(TypeError):
            Scalar(12, [bad])
        with pytest.raises(TypeError):
            Scalar(12, [1, 0, bad])
    with pytest.raises(TypeError):
        Scalar.one(12) + 0.5
    with pytest.raises(TypeError):
        0.5 * Scalar.one(12)
    # exact integer types keep working, bool included
    assert Scalar.from_rational(True) == Scalar.one(12)
    assert Scalar(12, [Fraction(3, 1), 2]) == 3 + 2 * Scalar.zeta(12)

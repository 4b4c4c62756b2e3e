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


def test_hash_consistency():
    a = Scalar.zeta(12, 3) * Scalar.zeta(12, 9)
    b = Scalar.one(12)
    assert a == b and hash(a) == hash(b)

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

from dinfnichols import field
from dinfnichols.field import (
    INTEGERS,
    Scalar,
    conjugate_product,
    cyclotomic_polynomial,
    cyclotomic_ring,
    mul_nums,
    parse_scalar,
    real_parts,
    real_ring,
    root_of_unity_order,
)
from reference import format_scalar as reference_format


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


@pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 12])
def test_format_matches_the_fraction_formatter(order):
    # zero, +-1 coefficients, negative leading terms and 1/2 z^k among
    # seeded scalars; each string parses back to its scalar
    rng = random.Random(order)
    half = Fraction(1, 2)
    samples = [Scalar.zero(order), Scalar.one(order), -Scalar.one(order)]
    samples += [Scalar.zeta(order, k) * c for k in range(order) for c in (1, -1, half, -half)]
    for _ in range(60):
        coeffs = [rng.choice((0, 0, 1, -1, half, -half,
                              Fraction(rng.randint(-9, 9), rng.randint(1, 6))))
                  for _ in range(order)]
        samples.append(Scalar(order, coeffs))
    for x in samples:
        text = str(x)
        assert text == reference_format(x), x.nums
        assert parse_scalar(text, order) == x
    assert str(Scalar.zeta(12, 3) * half) == "1/2z^3"
    assert str(Scalar.zeta(12, 3) * -half - Scalar.zeta(12)) == "-1/2z^3-z"


def test_parse_errors_point_into_the_given_text():
    # positions count the spaces the parser skips
    for text, message in (("z + q", "cannot parse scalar term at 4"),
                          (" z +", "cannot parse scalar term at 4"),
                          ("z  z^2", "expected \\+ or - at 3"),
                          ("z + 3/0", "zero denominator at 4"),
                          ("1 / 0", "zero denominator at 0")):
        with pytest.raises(ValueError, match=message):
            parse_scalar(text)


def test_parse_refuses_a_space_between_digits():
    # spaces are dropped before parsing, so "1 2" would read as 12
    for bad in ("1 2", "z^1 2", "1/2 3", "-1  2z"):
        with pytest.raises(ValueError, match="space between digits"):
            parse_scalar(bad)
    assert parse_scalar("z ^ 2") == Scalar.zeta(12, 2)
    assert parse_scalar("3/2 + z") == rat("3/2") + Scalar.zeta(12)
    assert parse_scalar(" 1 / 2 z ") == rat("1/2") * Scalar.zeta(12)


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
# The library stores integer numerators over one denominator and reduces in
# integers, folding z^phi back into lower powers.  The reference below is the
# plain textbook version: a list of Fractions, schoolbook product, reduction
# by repeated substitution of x^deg = -(Phi_N - x^deg), inverse by solving
# the multiplication matrix.

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
    # integers hash without a Fraction; -1 hashes to -2 like the int
    for q in [Fraction(n, d) for n in range(-50, 51) for d in (1, 2, 3, 7)]:
        s = Scalar.from_rational(q)
        assert s == q and hash(s) == hash(q) == hash(Fraction(q))
        if q.denominator == 1:
            assert hash(s) == hash(int(q))
    assert hash(Scalar.from_rational(-1)) == hash(-1) == -2
    keyed = {Scalar.from_rational(n): n for n in range(-50, 51)}
    assert all(keyed[n] == n for n in range(-50, 51))
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


@pytest.mark.parametrize("order", ORACLE_ORDERS)
def test_conjugate_product_gives_the_norm(order):
    # x times the product of its other conjugates is a nonzero rational
    # integer; for x = z it is N(z) = +-1, the conjugate product is then
    # +-z^-1, and both kernels agree with the Fraction oracle
    rng = random.Random(order)
    deg = len(cyclotomic_polynomial(order)) - 1
    for _ in range(20):
        nums = [rng.randint(-5, 5) for _ in range(deg)]
        if not any(nums):
            continue
        conj = conjugate_product(order, nums)
        assert all(type(c) is int for c in conj)
        norm = mul_nums(order, conj, nums)
        assert norm[0] != 0 and not any(norm[1:])
        assert mul_nums(order, conj, nums) == [int(c) for c in ref_mul(order, conj, nums)]
    z = Scalar.zeta(order)
    conj = Scalar(order, conjugate_product(order, z.nums))
    assert conj in (z.inverse(), -z.inverse())


@pytest.mark.parametrize("order", (1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 24))
def test_zeta_phi_is_the_reduced_power(order):
    # the pairs that fold z^phi back into the power basis of Z[zeta_N] are
    # z^phi reduced by the Fraction oracle
    ring = cyclotomic_ring(order)
    phi = len(cyclotomic_polynomial(order)) - 1
    power = ref_reduce(order, [0] * phi + [1])
    assert ring.degree == phi
    assert ring.wrap == tuple((j, int(c)) for j, c in enumerate(power) if c)
    assert Scalar.zeta(order, phi) == Scalar(order, power)


def test_large_order_matches_the_oracle():
    # N = 3000, phi = 800: Phi_N = Phi_30(x^100) has seven terms, so a
    # parse and a product fold back through a sparse wrap hundreds of
    # powers long; the oracle gets operands cut after their last nonzero
    # coefficient, which keeps its Fraction loops short
    order = 3000
    x = Scalar.parse("z^850-3/2z^799+z^5+2", order)
    coeffs = [Fraction(0)] * 851
    for e, c in ((850, 1), (799, Fraction(-3, 2)), (5, 1), (0, 2)):
        coeffs[e] = Fraction(c)
    assert_canonical(x)
    assert value(x) == ref_reduce(order, coeffs)
    y = Scalar.parse("3z^7+z^2-5", order)
    xy = x * y

    def cut(v):
        return v[:max(i for i, c in enumerate(v) if c) + 1]

    assert_canonical(xy)
    assert value(xy) == ref_mul(order, cut(value(x)), cut(value(y)))


def test_inverse_checks_the_norm(monkeypatch):
    # a wrong conjugate product gives a norm that is not rational, and the
    # inverse refuses it with an exception, which python -O keeps
    x = Scalar.parse("z^3+2z-1", 12)
    expect = x.inverse()
    monkeypatch.setattr(field, "conjugate_product", lambda order, nums: [1, 1, 0, 0])
    with pytest.raises(ArithmeticError, match="Galois norm"):
        x.inverse()
    monkeypatch.undo()
    assert x.inverse() == expect


@pytest.mark.parametrize("order", (3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 20, 24, 60, 210, 600))
def test_real_ring_is_the_real_subfield(order):
    # w = z + z^-1 satisfies w^m = sum c w^j over wrap, m = phi(N)/2; its
    # conjugate product times x is a nonzero rational; real_parts(x) = (x0, x1)
    # gives x = x0(w) + z x1(w) back; all checked in Scalar arithmetic
    phi = len(cyclotomic_polynomial(order)) - 1
    ring = real_ring(order)
    assert ring.degree == phi // 2 and (ring == INTEGERS) == (phi == 2)
    z = Scalar.zeta(order)
    powers = [Scalar.one(order)]  # w^t for t <= m, w = z + z^-1
    for _ in range(ring.degree):
        powers.append(powers[-1] * (z + Scalar.zeta(order, -1)))

    def over_w(coeffs):
        return sum((c * p for c, p in zip(coeffs, powers) if c), Scalar.zero(order))

    if ring != INTEGERS:
        assert powers[-1] == over_w(dict(ring.wrap).get(j, 0) for j in range(ring.degree))
    rng = random.Random(order)
    # one conjugate product at N = 600 (phi = 160) already takes most of a second
    norms = 10 if phi < 100 else 1
    for trial in range(10):
        x = [rng.randint(-4, 4) for _ in range(ring.degree)]
        if any(x) and ring.conj is not None and trial < norms:
            norm = over_w(x) * over_w(ring.conj(x))
            assert norm.is_rational() and norm != 0
        nums = [rng.randint(-4, 4) for _ in range(phi)]
        x0, x1 = real_parts(order, nums)
        assert len(x0) == len(x1) == ring.degree
        assert over_w(x0) + z * over_w(x1) == Scalar(order, nums)
        assert over_w(x0).conjugate() == over_w(x0)
    with pytest.raises(ValueError):
        real_ring(2)


def test_conjugate_is_complex_conjugation():
    for text in ("z", "1/2+z", "z^3-2z+1/3", "5"):
        x = Scalar.parse(text, 12)
        assert x.conjugate().to_complex() == pytest.approx(x.to_complex().conjugate())
        assert x.conjugate().conjugate() == x


def test_exact_division_raises_under_optimize():
    # the checks of the exact division by x^d - 1 are exceptions, not
    # assert statements, so python -O keeps them
    assert field._divide_binomial([-1, 0, 1], 1) == [1, 1]
    assert field._divide_binomial([-1, 0, 0, 0, 0, 0, 1], 3) == [1, 0, 0, 1]
    with pytest.raises(ArithmeticError):
        field._divide_binomial([1, 0, 1], 1)
    with pytest.raises(ArithmeticError):
        field._divide_binomial([-1, 1, 1], 2)
    with pytest.raises(ArithmeticError):
        field._divide_binomial([1, 1], 2)


def test_cyclotomic_polynomials_multiply_to_x_n_minus_1():
    # prod_(d | n) Phi_d = x^n - 1, by plain polynomial products
    for n in range(1, 201):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = cyclotomic_polynomial(d)
                out = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                prod = out
        assert prod == [-1] + [0] * (n - 1) + [1], n

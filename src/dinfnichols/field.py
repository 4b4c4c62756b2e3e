"""Exact arithmetic in the cyclotomic field Q(zeta_N).

Every coefficient in this package (braiding entries, representation
parameters, matrix entries) is a ``Scalar``: a polynomial in z = zeta_N
with rational coefficients, reduced modulo the N-th cyclotomic polynomial.
N is fixed per value ("order"); values of different orders never mix.
The default order 12 contains +-1, +-i, zeta_3 and zeta_6, which covers
every concrete parameter used by the verification suites.

A value is stored as integer numerators over one common denominator
(Cohen, *A Course in Computational Algebraic Number Theory*, 1993, 4.2):
``nums`` holds phi(N) Python ints, ``den`` is a positive int, and
``gcd(den, *nums) == 1``; zero is all zeros over 1.  Phi_N is monic with
integer coefficients, so products reduce modulo Phi_N in integers; each
operation ends with one gcd.  The form is canonical, so equality is tuple
equality.  An inverse is the product of the other Galois conjugates over
the norm (4.2-4.3), so it too runs on these integer products.

Scalars are immutable and hashable; all operations are pure functions, so
values can be shared freely between threads.
"""

from __future__ import annotations

import cmath
import math
import numbers
import re
from fractions import Fraction
from functools import lru_cache

DEFAULT_ORDER = 12


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (constant term first) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("cyclotomic order must be >= 1")
    # Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d, by exact division in Z[x].
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _poly_divexact(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        q, r = divmod(num[i + len(den) - 1], den[-1])
        assert r == 0
        out[i] = q
        for j, c in enumerate(den):
            num[i + j] -= q * c
    assert all(c == 0 for c in num)
    return out


@lru_cache(maxsize=None)
def _reduction_rows(order: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    # Row k is x^(deg+k) mod Phi_order as its nonzero (index, int) pairs;
    # enough rows for any product of two reduced polynomials and for zeta
    # powers / parsed exponents below order.
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    count = max(deg - 1, order, 1)
    rows = []
    cur = [-c for c in phi[:-1]]  # x^deg = -(lower part), Phi monic
    for _ in range(count):
        rows.append(tuple((j, c) for j, c in enumerate(cur) if c))
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            for j in range(deg):
                cur[j] -= top * phi[j]
    return tuple(rows)


def _degree(order: int) -> int:
    return len(cyclotomic_polynomial(order)) - 1


@lru_cache(maxsize=None)
def _zero_tail(order: int) -> tuple[int, ...]:
    # the numerators of z^1 .. z^(deg-1) of a rational value
    return (0,) * (_degree(order) - 1)


def _reduce(order: int, nums: list[int]) -> list[int]:
    """Reduce integer numerators of any length below order + deg mod Phi."""
    deg = _degree(order)
    if len(nums) <= deg:
        return nums + [0] * (deg - len(nums))
    rows = _reduction_rows(order)
    out = nums[:deg]
    for k in range(deg, len(nums)):
        c = nums[k]
        if c:
            for j, r in rows[k - deg]:
                out[j] += c * r
    return out


def _rational_parts(q) -> tuple[int, int]:
    """(numerator, positive denominator) of an exact rational."""
    if type(q) is int:
        return q, 1
    if isinstance(q, Fraction):
        return q.numerator, q.denominator
    if isinstance(q, numbers.Rational):
        return int(q.numerator), int(q.denominator)
    raise TypeError(f"exact scalars take int or Fraction values, "
                    f"not {type(q).__name__}")


class Scalar:
    """An element of Q(zeta_N): integer numerators over one denominator.

    ``nums`` has length deg Phi_N = phi(N) and holds the coefficients of
    1, z, ..., z^(deg-1) times ``den``; ``den > 0`` and
    ``gcd(den, *nums) == 1``, zero being all zeros over 1, so two scalars
    are equal iff their ``(order, nums, den)`` are equal.  Construct via
    :meth:`from_rational`, :meth:`zeta`, :meth:`parse`, ``Scalar(order,
    coeffs)`` with int/Fraction coefficients, or arithmetic.  Plain
    ``int``/``Fraction`` operands are coerced to the same order; ``float``
    and ``complex`` are refused with ``TypeError``.
    """

    __slots__ = ("order", "nums", "den")

    def __new__(cls, order: int, coeffs):
        parts = [_rational_parts(c) for c in coeffs]
        den = math.lcm(*(d for _, d in parts))
        nums = _reduce(order, [n * (den // d) for n, d in parts])
        return _canonical(order, nums, den)

    def __setattr__(self, *_):
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):
        # copy and pickle rebuild the canonical form as it is
        return _new, (self.order, self.nums, self.den)

    @classmethod
    def from_rational(cls, q, order: int = DEFAULT_ORDER) -> "Scalar":
        n, d = _rational_parts(q)
        return _new(order, (n,) + _zero_tail(order), d)

    @classmethod
    def zero(cls, order: int = DEFAULT_ORDER) -> "Scalar":
        return _cached_const(order, 0)

    @classmethod
    def one(cls, order: int = DEFAULT_ORDER) -> "Scalar":
        return _cached_const(order, 1)

    @classmethod
    def zeta(cls, order: int = DEFAULT_ORDER, power: int = 1) -> "Scalar":
        """zeta_N^power as a Scalar of the given order."""
        power %= order
        return cls(order, [0] * power + [1])

    # -- basic predicates ------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.order != self.order:
                raise ValueError(
                    f"mismatched cyclotomic order: {self.order} vs {other.order}")
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar.from_rational(other, self.order)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            return _canonical(self.order,
                              [x + y for x, y in zip(self.nums, o.nums)], da)
        return _canonical(
            self.order,
            [x * db + y * da for x, y in zip(self.nums, o.nums)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.order, tuple([-x for x in self.nums]), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            return _canonical(self.order,
                              [x - y for x, y in zip(self.nums, o.nums)], da)
        return _canonical(
            self.order,
            [x * db - y * da for x, y in zip(self.nums, o.nums)], da * db)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.nums, o.nums
        if not any(a[1:]):
            return _scale(a[0], self.den, o)
        if not any(b[1:]):
            return _scale(b[0], o.den, self)
        deg = len(a)
        prod = [0] * (2 * deg - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        return _canonical(self.order, _reduce(self.order, prod), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        """Multiplicative inverse by the Galois norm (Cohen 1993, 4.2-4.3).

        With P the product of the conjugates sigma_k(x), 1 < k < N and
        gcd(k, N) = 1, where sigma_k sends z to z^k, the norm P*x is
        rational and x^-1 = P / (P*x): kernel products and one scaling.
        """
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero scalar")
        if self.is_rational():
            return Scalar.from_rational(Fraction(self.den, self.nums[0]), self.order)
        order = self.order
        conj = None
        for k in range(2, order):
            if math.gcd(k, order) == 1:
                moved = [0] * order
                for i, c in enumerate(self.nums):
                    moved[i * k % order] = c
                # sigma_k maps Z[z] onto itself, so the gcd with den stays 1
                sigma = _new(order, tuple(_reduce(order, moved)), self.den)
                conj = sigma if conj is None else conj * sigma
        norm = conj * self
        assert norm.is_rational(), "the Galois norm must be rational"
        n, d = norm.nums[0], norm.den
        return _scale(d if n > 0 else -d, abs(n), conj)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return self.inverse() ** (-n)
        result = Scalar.one(self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparison and hashing -------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other) if not isinstance(other, Scalar) else other
        if not isinstance(o, Scalar):
            return NotImplemented
        return self.order == o.order and self.den == o.den and self.nums == o.nums

    def __hash__(self):
        # a rational value hashes like the int/Fraction it equals
        nums = self.nums
        if not any(nums[1:]):
            return hash(Fraction(nums[0], self.den))
        return hash((self.order, nums, self.den))

    # -- conversions -------------------------------------------------------

    def to_complex(self) -> complex:
        """Numeric embedding zeta_N -> exp(2*pi*i/N)."""
        z = cmath.exp(2j * cmath.pi / self.order)
        val = 0j
        for c in reversed(self.nums):
            val = val * z + complex(c / self.den)
        return val

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"Scalar({self.order}, {format_scalar(self)!r})"

    @classmethod
    def parse(cls, text: str, order: int = DEFAULT_ORDER) -> "Scalar":
        return parse_scalar(text, order)


_set_order = Scalar.order.__set__
_set_nums = Scalar.nums.__set__
_set_den = Scalar.den.__set__
_object_new = object.__new__


def _new(order: int, nums: tuple, den: int) -> Scalar:
    # nums/den already canonical
    obj = _object_new(Scalar)
    _set_order(obj, order)
    _set_nums(obj, nums)
    _set_den(obj, den)
    return obj


def _canonical(order: int, nums: list, den: int) -> Scalar:
    # nums/den (den > 0) divided by their gcd
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [x // g for x in nums]
            den //= g
    return _new(order, tuple(nums), den)


def _scale(q: int, d: int, x: Scalar) -> Scalar:
    """(q/d) * x for a canonical rational q/d."""
    if not q:
        return _cached_const(x.order, 0)
    if d == 1:
        if q == 1:
            return x
        if q == -1:
            return -x
    return _canonical(x.order, [q * c for c in x.nums], d * x.den)


@lru_cache(maxsize=None)
def _cached_const(order: int, value: int) -> Scalar:
    return Scalar.from_rational(value, order)


# -- string form ------------------------------------------------------------

def format_scalar(x: Scalar) -> str:
    """Serialize as e.g. "3/2", "-1", "z^2+1/3" (z = zeta_N)."""
    terms = []
    for k in range(len(x.nums) - 1, -1, -1):
        if x.nums[k] == 0:
            continue
        c = Fraction(x.nums[k], x.den)
        if k == 0:
            body = str(abs(c))
        else:
            zpart = "z" if k == 1 else f"z^{k}"
            body = zpart if abs(c) == 1 else f"{abs(c)}{zpart}"
        sign = "-" if c < 0 else "+"
        terms.append((sign, body))
    if not terms:
        return "0"
    first_sign, first_body = terms[0]
    out = (first_sign if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        out += sign + body
    return out


_TERM_RE = re.compile(
    r"(?P<coeff>\d+(?:/\d+)?)?(?:(?(coeff)\*?)(?P<z>z)(?:\^(?P<exp>-?\d+))?)?")


def parse_scalar(text: str, order: int = DEFAULT_ORDER) -> Scalar:
    """Parse the grammar produced by :func:`format_scalar`.

    Accepts "3/2", "-1", "z^2+1/3", "2*z", "2z^3-z+1/2"; whitespace ignored.
    Each term takes at most one sign, and "*" only after a coefficient.
    """
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty scalar string")
    deg_bound = max(_degree(order), order)
    coeffs = [0] * (deg_bound + 1)
    pos = 0
    first = True
    while pos < len(s):
        sign = 1
        if s[pos] in "+-":
            if s[pos] == "-":
                sign = -1
            pos += 1
        elif not first:
            raise ValueError(f"expected + or - at {pos} in {text!r}")
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos or (m.group("coeff") is None and m.group("z") is None):
            raise ValueError(f"cannot parse scalar term at {pos} in {text!r}")
        try:
            coeff = Fraction(m.group("coeff")) if m.group("coeff") else 1
        except ZeroDivisionError:
            raise ValueError(f"zero denominator at {pos} in {text!r}") from None
        if m.group("z"):
            exp = int(m.group("exp")) if m.group("exp") else 1
            exp %= order
        else:
            exp = 0
        coeffs[exp] += sign * coeff
        pos = m.end()
        first = False
    return Scalar(order, coeffs)


def root_of_unity_order(x: Scalar):
    """Smallest m with x^m = 1, or None if x is not a root of unity.

    Every root of unity in Q(zeta_N) has order dividing lcm(2, N), so the
    search below is complete.
    """
    if x.is_zero():
        raise ZeroDivisionError("zero scalar is not a root of unity")
    one = Scalar.one(x.order)
    bound = math.lcm(2, x.order)
    power = one
    for m in range(1, bound + 1):
        power = power * x
        if power == one:
            return m
    return None

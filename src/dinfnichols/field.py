"""Exact arithmetic in the cyclotomic field Q(zeta_N).

Every coefficient in this package (braiding entries, representation
parameters, matrix entries) is a ``Scalar``: a polynomial in z = zeta_N
with rational coefficients, reduced modulo the N-th cyclotomic polynomial.
N is fixed per value ("order"); values of different orders never mix.
The default order 12 contains +-1, +-i, zeta_3 and zeta_6, which covers
every concrete parameter used by the verification suites.

Scalars are immutable and hashable; all operations are pure functions, so
values can be shared freely between threads.
"""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction
from functools import lru_cache

DEFAULT_ORDER = 12

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
def _reduction_rows(order: int) -> tuple[tuple[Fraction, ...], ...]:
    # Row k is x^(deg+k) mod Phi_order; enough rows for any product of two
    # reduced polynomials and for zeta powers / parsed exponents below order.
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    count = max(deg - 1, order, 1)
    rows = []
    cur = [Fraction(-c) for c in phi[:-1]]  # x^deg = -(lower part), Phi monic
    for _ in range(count):
        rows.append(tuple(cur))
        top = cur[-1]
        cur = [_ZERO] + cur[:-1]
        if top:
            for j in range(deg):
                cur[j] -= top * phi[j]
    return tuple(rows)


def _degree(order: int) -> int:
    return len(cyclotomic_polynomial(order)) - 1


class Scalar:
    """An element of Q(zeta_N), stored as a dense coefficient vector.

    The vector has length deg Phi_N = phi(N); two scalars are equal iff
    their reduced coefficient vectors are equal.  Construct via
    :meth:`from_rational`, :meth:`zeta`, :meth:`parse`, or arithmetic.
    Plain ``int``/``Fraction`` operands are coerced to the same order.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        deg = _degree(order)
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > deg:
            cs = _reduce(order, cs)
        cs += [_ZERO] * (deg - len(cs))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *_):
        raise AttributeError("Scalar is immutable")

    @classmethod
    def _unsafe(cls, order: int, coeffs: tuple) -> "Scalar":
        # internal fast path: coeffs already a reduced tuple of Fractions
        obj = object.__new__(cls)
        object.__setattr__(obj, "order", order)
        object.__setattr__(obj, "coeffs", coeffs)
        return obj

    @classmethod
    def from_rational(cls, q, order: int = DEFAULT_ORDER) -> "Scalar":
        return cls(order, [Fraction(q)])

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
        coeffs = [_ZERO] * power + [_ONE]
        return cls(order, coeffs)

    # -- basic predicates ------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

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
        return Scalar._unsafe(
            self.order, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Scalar._unsafe(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar._unsafe(
            self.order, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if self.is_rational():
            q = a[0]
            if q == 0:
                return _cached_const(self.order, 0)
            return Scalar._unsafe(self.order, tuple(q * c for c in b))
        if o.is_rational():
            q = b[0]
            if q == 0:
                return _cached_const(self.order, 0)
            return Scalar._unsafe(self.order, tuple(q * c for c in a))
        deg = len(a)
        prod = [_ZERO] * (2 * deg - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        return Scalar._unsafe(self.order, tuple(_reduce(self.order, prod)))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero scalar")
        if self.is_rational():
            return Scalar.from_rational(1 / self.coeffs[0], self.order)
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        # Bezout: s*self + t*Phi = gcd = const, so inverse = s / const.
        r0, r1 = phi, _trim(list(self.coeffs))
        s0, s1 = [_ZERO], [_ONE]
        while len(r1) > 1 or r1[0] != 0:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        const = r0[0]
        assert len(r0) == 1 and const != 0, "Phi_N must be irreducible over Q"
        return Scalar(self.order, [c / const for c in s0])

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
        return self.order == o.order and self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    # -- conversions -------------------------------------------------------

    def to_complex(self) -> complex:
        """Numeric embedding zeta_N -> exp(2*pi*i/N)."""
        z = cmath.exp(2j * cmath.pi / self.order)
        val = 0j
        for c in reversed(self.coeffs):
            val = val * z + complex(c)
        return val

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"Scalar({self.order}, {format_scalar(self)!r})"

    @classmethod
    def parse(cls, text: str, order: int = DEFAULT_ORDER) -> "Scalar":
        return parse_scalar(text, order)


@lru_cache(maxsize=None)
def _cached_const(order: int, value: int) -> Scalar:
    return Scalar(order, [Fraction(value)])


def _reduce(order: int, coeffs: list[Fraction]) -> list[Fraction]:
    deg = _degree(order)
    if len(coeffs) <= deg:
        return coeffs
    rows = _reduction_rows(order)
    out = list(coeffs[:deg])
    for k, c in enumerate(coeffs[deg:]):
        if c:
            row = rows[k]
            for j in range(deg):
                out[j] += c * row[j]
    return out


# -- small dense polynomial helpers over Fraction (constant term first) ----

def _trim(p):
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a, b):
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim(out)


def _poly_sub(a, b):
    out = [_ZERO] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return _trim(out)


def _poly_divmod(a, b):
    a = list(a)
    q = [_ZERO] * max(len(a) - len(b) + 1, 1)
    for i in range(len(a) - len(b), -1, -1):
        f = a[i + len(b) - 1] / b[-1]
        q[i] = f
        if f:
            for j, c in enumerate(b):
                a[i + j] -= f * c
    return _trim(q), _trim(a)


# -- string form ------------------------------------------------------------

def format_scalar(x: Scalar) -> str:
    """Serialize as e.g. "3/2", "-1", "z^2+1/3" (z = zeta_N)."""
    terms = []
    for k in range(len(x.coeffs) - 1, -1, -1):
        c = x.coeffs[k]
        if c == 0:
            continue
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
    r"(?P<coeff>-?\d+(?:/\d+)?)?(?:\*?(?P<z>z)(?:\^(?P<exp>-?\d+))?)?")


def parse_scalar(text: str, order: int = DEFAULT_ORDER) -> Scalar:
    """Parse the grammar produced by :func:`format_scalar`.

    Accepts "3/2", "-1", "z^2+1/3", "2*z", "2z^3-z+1/2"; whitespace ignored.
    """
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty scalar string")
    deg_bound = max(_degree(order), order)
    coeffs = [_ZERO] * (deg_bound + 1)
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
            coeff = Fraction(m.group("coeff")) if m.group("coeff") else _ONE
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

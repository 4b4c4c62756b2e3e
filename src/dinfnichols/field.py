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
``gcd(den, *nums) == 1``; zero is all zeros over 1.  The form is
canonical, so equality is tuple equality.

Every integer ring here is data (``Ring``): its degree, the power of its
generator that folds back into lower powers, and its conjugate product.
Z[zeta_N] (``cyclotomic_ring``) is one of them: Phi_N is monic with integer
coefficients, so z^phi(N) folds back in integers.  One reduction
(_ring_reduce) and one product loop (_ring_mul) serve every ring, so a
``Scalar`` operation is an integer product in Z[zeta_N] (mul_nums) and
one gcd.  An inverse is the product of the other Galois conjugates
(conjugate_product) over the norm (4.2-4.3), on the same integer
products.  Both are functions on plain int lists, so the Nichols layer's
integer elimination shares them without building Scalars; it runs over
Z, Z[zeta_N] or the ring of integers Z[zeta_N + zeta_N^-1] of the real
subfield (``real_ring``), with ``real_parts`` splitting an element of
Z[zeta_N] into its two coordinates over it.

Scalars are immutable and hashable; all operations are pure functions, so
values can be shared freely between threads.
"""

from __future__ import annotations

import cmath
import math
import numbers
import re
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations
from typing import Callable, NamedTuple, Optional

DEFAULT_ORDER = 12


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (constant term first) of the n-th cyclotomic polynomial.

    Phi_n = prod_(d | n) (x^d - 1)^mu(n/d) (Moebius inversion of
    x^n - 1 = prod_(d | n) Phi_d), where mu(n/d) = (-1)^k when n/d is a
    product of k distinct primes and 0 otherwise: the factors with mu = 1
    are multiplied, then each factor with mu = -1 is divided out exactly.
    """
    if n < 1:
        raise ValueError("cyclotomic order must be >= 1")
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
    factors = [(n // math.prod(s), len(s) % 2)
               for k in range(len(primes) + 1) for s in combinations(primes, k)]
    poly = [1]
    for d, odd in factors:
        if not odd:  # poly (x^d - 1)
            poly = [a - b for a, b in zip([0] * d + poly, poly + [0] * d)]
    for d, odd in factors:
        if odd:
            poly = _divide_binomial(poly, d)
    return tuple(poly)


def _divide_binomial(poly: list[int], d: int) -> list[int]:
    """poly / (x^d - 1) in Z[x]; ArithmeticError unless the division is exact.

    poly = q (x^d - 1) reads poly[i] = q[i - d] - q[i] coefficient by
    coefficient, so q[i] = q[i - d] - poly[i] from the bottom up, and the
    top d coefficients of poly must be the top d of q shifted by d.
    """
    q = [-c for c in poly[:len(poly) - d]]
    for i in range(d, len(q)):
        q[i] += q[i - d]
    if poly[len(q):] != ([0] * d + q)[len(q):]:
        raise ArithmeticError(f"x^{d} - 1 does not divide {poly} in Z[x]")
    return q


# -- integer rings ----------------------------------------------------------

class Ring(NamedTuple):
    """An integer ring as ``Scalar``, ``linalg.primitive_echelon_rows`` and
    the Nichols recursion see it.  An element is ``degree`` ints, its
    coefficients over 1, g, ..., g^(degree-1) for the ring's generator g;
    g^degree is sum_j c g^j over the (j, c) pairs of ``wrap``; ``conj(x)``
    is the product of the Galois conjugates of x other than x itself, so
    that x conj(x) is the norm of x, a rational integer, nonzero for x != 0
    (None when the degree is 1, where nothing needs it)."""

    degree: int
    wrap: tuple
    conj: Optional[Callable]


INTEGERS = Ring(1, ((0, 1),), None)


@lru_cache(maxsize=None)
def cyclotomic_ring(order: int) -> Ring:
    """Z[zeta_N], generated by z, of degree phi(N): z^phi is minus Phi_N
    less its top term (Phi_N is monic), so z = 1 for N = 1 (Z itself,
    equal to INTEGERS) and z = -1 for N = 2."""
    phi = cyclotomic_polynomial(order)
    degree = len(phi) - 1
    wrap = tuple((j, -c) for j, c in enumerate(phi[:-1]) if c)
    return Ring(degree, wrap, partial(conjugate_product, order) if degree > 1 else None)


def _ring_reduce(degree: int, wrap, poly: list) -> list[int]:
    """The int list poly, coefficients over powers of g of any length,
    reduced in place to ``degree`` ints by g^degree = wrap, highest power
    first, and returned."""
    for e in range(len(poly) - 1, degree - 1, -1):
        c = poly[e]
        if c:
            base = e - degree
            for j, r in wrap:
                poly[base + j] += c * r
    del poly[degree:]
    poly += [0] * (degree - len(poly))
    return poly


def _ring_mul(degree: int, wrap, a, b) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                if y:
                    prod[j] += x * y
    return _ring_reduce(degree, wrap, prod)


@lru_cache(maxsize=None)
def _zero_tail(order: int) -> tuple[int, ...]:
    # the numerators of z^1 .. z^(deg-1) of a rational value
    return (0,) * (cyclotomic_ring(order).degree - 1)


def mul_nums(order: int, a, b) -> list[int]:
    """Product in Z[zeta_N] of two integer polynomials in z, usually the
    phi(N) coefficients (of 1, z, ..., z^(phi-1)) of two elements; the
    result is reduced modulo Phi_N to phi(N) ints."""
    degree, wrap, _ = cyclotomic_ring(order)
    return _ring_mul(degree, wrap, a, b)


def _galois(order: int, nums, k: int) -> list[int]:
    """sigma_k(x), z -> z^k for gcd(k, N) = 1, of x in Z[zeta_N] given by
    its phi(N) integer coefficients."""
    moved = [0] * order
    for i, c in enumerate(nums):
        moved[i * k % order] = c
    degree, wrap, _ = cyclotomic_ring(order)
    return _ring_reduce(degree, wrap, moved)


def conjugate_product(order: int, nums) -> list[int]:
    """The product of the Galois conjugates sigma_k(x), 1 < k < N and
    gcd(k, N) = 1, of x in Z[zeta_N] given by its phi(N) integer
    coefficients; sigma_k sends z to z^k (Cohen 1993, 4.2).

    Each sigma_k maps Z[z] onto itself, so the product lies in Z[z], and
    times x it is the norm N(x), a rational integer, nonzero for x != 0.
    ``Scalar.inverse`` divides by it; the Nichols layer's integer
    elimination (``linalg.primitive_echelon_rows``) multiplies a pivot row
    by it to make the pivot a rational integer.
    """
    return _galois_product(order, nums, order)


def _galois_product(order: int, nums, stop: int) -> list[int]:
    """The product of sigma_k(x) over 1 < k < stop, gcd(k, N) = 1 (1 when
    there is no such k)."""
    conj = None
    for k in range(2, stop):
        if math.gcd(k, order) == 1:
            sigma = _galois(order, nums, k)
            conj = sigma if conj is None else mul_nums(order, conj, sigma)
    return [1] + list(_zero_tail(order)) if conj is None else conj


@lru_cache(maxsize=None)
def _real_subfield(order: int):
    """(Z[w], rows) for w = z + z^-1, N > 2, the ring of integers of the
    real subfield Q(zeta_N)^+ of degree m = phi(N)/2 (Z when m = 1).

    With C_0 = 2, C_1 = w and C_(k+1) = w C_k - C_(k-1), x^k + x^-k = C_k(w)
    for x = z.  Phi_N is palindromic of degree 2m, so x^-m Phi_N(x) =
    a_m + sum_(k=1..m) a_(m+k) C_k(w) is the monic minimal polynomial of w,
    which gives ``wrap``.  z^2 = w z - 1, so Z[z] = Z[w] + z Z[w];
    rows[t] = (A_t, B_t) with z^t = A_t + z B_t, by A_(t+1) = -B_t and
    B_(t+1) = A_t + w B_t.

    ``conj`` uses the Galois action of Z[z]: x = sum_t c_t w^t is lifted to
    Z[z] by the binomial expansion of w^t = (z + z^-1)^t, and the product
    of sigma_k(x) over 1 < k < N/2, gcd(k, N) = 1 (sigma_-k agrees with
    sigma_k on Z[w]) is real, so real_parts reads it back over Z[w].
    """
    if order < 3:
        raise ValueError(f"Q(zeta_{order}) is its own real subfield")
    phi = cyclotomic_polynomial(order)
    m = (len(phi) - 1) // 2
    cheb = [[2], [0, 1]]
    for _ in range(m - 1):
        cheb.append([a - b for a, b in zip([0] + cheb[-1], cheb[-2] + [0, 0])])
    minpoly = [phi[m]] + [0] * m
    for k in range(1, m + 1):
        for j, c in enumerate(cheb[k]):
            minpoly[j] += phi[m + k] * c
    wrap = tuple((j, -c) for j, c in enumerate(minpoly[:m]) if c)
    one = [1] + [0] * (m - 1)
    degree, zwrap, _ = cyclotomic_ring(order)
    lift = []
    for t in range(m):
        poly = [0] * order
        for j in range(t + 1):
            poly[(t - 2 * j) % order] += math.comb(t, j)
        lift.append(_ring_reduce(degree, zwrap, poly))

    def conj(x):
        nums = [sum(c * p[i] for c, p in zip(x, lift) if c) for i in range(degree)]
        return real_parts(order, _galois_product(order, nums, (order + 1) // 2))[0]

    rows = [(one, [0] * m)]
    for _ in range(len(phi) - 2):
        a, b = rows[-1]
        wb = _ring_mul(m, wrap, [0, 1], b)
        rows.append(([-c for c in b], [x + y for x, y in zip(a, wb)]))
    return (INTEGERS if m == 1 else Ring(m, wrap, conj)), tuple(rows)


def real_ring(order: int) -> Ring:
    """Z[w], w = zeta_N + zeta_N^-1 (N > 2): the ring of integers of the
    real subfield Q(zeta_N)^+, of degree phi(N)/2; Z for N = 3, 4, 6."""
    return _real_subfield(order)[0]


def real_parts(order: int, nums) -> tuple[list[int], list[int]]:
    """(x0, x1) over Z[w] with x = x0 + z x1, for x in Z[zeta_N] given by
    its phi(N) integer coefficients (N > 2)."""
    ring, rows = _real_subfield(order)
    x0, x1 = [0] * ring.degree, [0] * ring.degree
    for c, (a, b) in zip(nums, rows):
        if c:
            for t in range(ring.degree):
                x0[t] += c * a[t]
                x1[t] += c * b[t]
    return x0, x1


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
        degree, wrap, _ = cyclotomic_ring(order)
        nums = _ring_reduce(degree, wrap, [n * (den // d) for n, d in parts])
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

    def conjugate(self) -> "Scalar":
        """The complex conjugate: the Galois automorphism z -> z^-1."""
        return _canonical(self.order, _galois(self.order, self.nums, -1), self.den)

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
        return _canonical(self.order, mul_nums(self.order, a, b), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        """Multiplicative inverse by the Galois norm (Cohen 1993, 4.2-4.3).

        x = nums / den with nums in Z[z].  P = conjugate_product(nums) lies
        in Z[z] and P * nums is the rational integer n = N(nums), so
        x^-1 = den * P / n: integer products and one scaling.
        """
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero scalar")
        if self.is_rational():
            return Scalar.from_rational(Fraction(self.den, self.nums[0]), self.order)
        order = self.order
        conj = conjugate_product(order, self.nums)
        n, *rest = mul_nums(order, conj, self.nums)
        if any(rest) or not n:
            raise ArithmeticError(f"the Galois norm of {self} is not a nonzero rational")
        d = self.den if n > 0 else -self.den
        return _canonical(order, [d * c for c in conj], abs(n))

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
            if self.den == 1:
                return hash(nums[0])
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
    """Serialize as e.g. "3/2", "-1", "z^2+1/3" (z = zeta_N): each
    coefficient nums[k]/den in lowest terms, highest power first."""
    den = x.den
    out = ""
    for k in range(len(x.nums) - 1, -1, -1):
        num = x.nums[k]
        if not num:
            continue
        g = math.gcd(num, den)
        p, q = abs(num) // g, den // g
        body = str(p) if q == 1 else f"{p}/{q}"
        if k:
            zpart = "z" if k == 1 else f"z^{k}"
            body = zpart if body == "1" else body + zpart
        if num < 0:
            out += "-" + body
        else:
            out += "+" + body if out else body
    return out or "0"


_TERM_RE = re.compile(
    r"(?P<coeff>\d+(?:/\d+)?)?(?:(?(coeff)\*?)(?P<z>z)(?:\^(?P<exp>-?\d+))?)?")


def parse_scalar(text: str, order: int = DEFAULT_ORDER) -> Scalar:
    """Parse the grammar produced by :func:`format_scalar`.

    Accepts "3/2", "-1", "z^2+1/3", "2*z", "2z^3-z+1/2"; spaces are
    ignored, except between two digits ("1 2" is refused, not read as 12).
    Each term takes at most one sign, and "*" only after a coefficient.
    """
    split = re.search(r"\d +\d", text)
    if split:
        raise ValueError(f"space between digits at {split.start() + 1} in {text!r}")
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty scalar string")
    # where[i]: the index in text of s[i]; len(text) past the end
    where = [i for i, ch in enumerate(text) if ch != " "] + [len(text)]
    coeffs = [0] * order
    pos = 0
    first = True
    while pos < len(s):
        sign = 1
        if s[pos] in "+-":
            if s[pos] == "-":
                sign = -1
            pos += 1
        elif not first:
            raise ValueError(f"expected + or - at {where[pos]} in {text!r}")
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos or (m.group("coeff") is None and m.group("z") is None):
            raise ValueError(f"cannot parse scalar term at {where[pos]} in {text!r}")
        try:
            coeff = Fraction(m.group("coeff")) if m.group("coeff") else 1
        except ZeroDivisionError:
            raise ValueError(f"zero denominator at {where[pos]} in {text!r}") from None
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

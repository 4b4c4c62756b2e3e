"""The 4-dimensional quotient algebra A_lambda = k D_inf / <h + h^-1 - lambda>.

Imposing h + h^-1 = lambda forces the reduction rules h g = lambda g - g h
and h^2 = lambda h - 1, so every word in g, h, h^-1 collapses into the
ordered basis (1, g, h, gh).  This module implements that arithmetic, the
idempotent pair e1/e2, the nilpotent lines of the corners, the simple-module
candidates for each lambda, and exact checkers for the dihedral module
axioms, irreducibility and isomorphism of small modules.  A rep decides
its axioms once and keeps the verdict; irreducibility of a 2-dimensional
rep is one determinant, det(GH - HG) (Shemesh), and isomorphism solves
for intertwiners through linalg.nullspace, which eliminates on integer
rows like the Nichols layer.

Two finite checks prove the arithmetic for all inputs: ``structure_check``
(unit, the 32 generator triples associate, the defining relations) makes
``reduce_word`` right for every word, and ``corner_square_check`` (the
squares of the corner basis) gives the corner power identity for every n.
Lambda may also be an indeterminate (``LambdaPoly``, polynomials in lambda
over Q(zeta_N)): the same checks then prove these facts for every lambda at
once, and ``table_specialises`` tells whether that proof covers one lambda's
table.

Every candidate module the corner analysis suggests is run through the
axiom checker and returned flagged; nothing is assumed, nothing silently
dropped.  (The 1-dimensional candidates with h acting by lambda/2 only
satisfy h^2 = lambda h - 1 when lambda = +-2; for other lambda they are
returned with a fail verdict.)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product as iter_product
from typing import TYPE_CHECKING, Optional, Union

from . import linalg
from .field import Scalar

if TYPE_CHECKING:
    from .tables import TableWitness

_BASIS_NAMES = ("1", "g", "h", "gh")


class LambdaPoly:
    """A polynomial of positive degree in an indeterminate lambda over
    Q(zeta_N): ``coeffs`` are Scalars of one order, constant term first,
    the last one nonzero.

    Arithmetic returns a constant as its Scalar, so Scalar and LambdaPoly
    together are the ring Q(zeta_N)[lambda], each value in one canonical
    form, and a LambdaPoly never equals a Scalar.  It carries what the
    A_lambda arithmetic uses of a Scalar: + - *, negation, ``is_zero``, ==,
    hash and ``order``; ``evaluate`` substitutes a Scalar for lambda.
    """

    __slots__ = ("order", "coeffs")

    @classmethod
    def indeterminate(cls, order: int) -> "LambdaPoly":
        return _poly(order, [Scalar.zero(order), Scalar.one(order)])

    def is_zero(self) -> bool:
        return False

    def evaluate(self, lam: Scalar) -> Scalar:
        """The value at lambda = lam (Horner)."""
        out = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            out = out * lam + c
        return out

    def _terms(self, other):
        # other's coefficients, constant first; None for a foreign type
        if isinstance(other, LambdaPoly):
            return other.coeffs
        if isinstance(other, Scalar):
            return (other,)
        if isinstance(other, (int, Fraction)):
            return (Scalar.from_rational(other, self.order),)
        return None

    def __add__(self, other):
        b = self._terms(other)
        if b is None:
            return NotImplemented
        a = self.coeffs
        if len(a) < len(b):
            a, b = b, a
        return _poly(self.order, [x + y for x, y in zip(a, b)] + list(a[len(b):]))

    __radd__ = __add__

    def __sub__(self, other):
        b = self._terms(other)
        return NotImplemented if b is None else self + _poly(self.order, [-c for c in b])

    def __rsub__(self, other):
        b = self._terms(other)
        return NotImplemented if b is None else -self + _poly(self.order, list(b))

    def __neg__(self):
        return _poly(self.order, [-c for c in self.coeffs])

    def __mul__(self, other):
        b = self._terms(other)
        if b is None:
            return NotImplemented
        a = self.coeffs
        if len(b) == 1:
            c = b[0]
            return _poly(self.order, [x if x.is_zero() else c * x for x in a])
        out = [Scalar.zero(self.order)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not x.is_zero():
                for j, y in enumerate(b):
                    out[i + j] = out[i + j] + x * y
        return _poly(self.order, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, LambdaPoly):
            return self.coeffs == other.coeffs
        return False if self._terms(other) is not None else NotImplemented

    def __hash__(self):
        return hash(self.coeffs)


def _poly(order: int, coeffs: list):
    # trailing zeros dropped; a constant is returned as its Scalar
    n = len(coeffs)
    while n > 1 and coeffs[n - 1].is_zero():
        n -= 1
    if n == 1:
        return coeffs[0]
    out = object.__new__(LambdaPoly)
    out.order = order
    out.coeffs = tuple(coeffs[:n])
    return out


class ALambdaElement:
    """Element of A_lambda in the ordered basis (1, g, h, gh)."""

    __slots__ = ("lam", "coeffs")

    def __init__(self, lam: Scalar, coeffs):
        cs = tuple(c if isinstance(c, (Scalar, LambdaPoly))
                   else Scalar.from_rational(c, lam.order) for c in coeffs)
        if len(cs) != 4:
            raise ValueError("A_lambda elements have 4 coefficients")
        self.lam = lam
        self.coeffs = cs

    @classmethod
    def basis(cls, lam: Scalar, name: str) -> "ALambdaElement":
        coeffs = [Scalar.zero(lam.order)] * 4
        coeffs[_BASIS_NAMES.index(name)] = Scalar.one(lam.order)
        return _element(lam, tuple(coeffs))

    @classmethod
    def zero(cls, lam: Scalar) -> "ALambdaElement":
        return _element(lam, (Scalar.zero(lam.order),) * 4)

    @classmethod
    def one(cls, lam: Scalar) -> "ALambdaElement":
        return cls.basis(lam, "1")

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, ALambdaElement):
            return NotImplemented
        return self.lam == other.lam and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.lam, self.coeffs))

    def __add__(self, other):
        self._check(other)
        return _element(self.lam, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return _element(self.lam, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return _element(self.lam, tuple(-a for a in self.coeffs))

    def scale(self, s) -> "ALambdaElement":
        if not isinstance(s, (Scalar, LambdaPoly)):
            s = Scalar.from_rational(s, self.lam.order)
        return _element(self.lam, tuple(s * a for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        return alambda_multiply(self, other)

    def __pow__(self, n: int) -> "ALambdaElement":
        if n < 0:
            raise ValueError("negative powers not supported in A_lambda")
        out = ALambdaElement.one(self.lam)
        for _ in range(n):
            out = out * self
        return out

    def _check(self, other):
        if not isinstance(other, ALambdaElement):
            raise TypeError("expected an ALambdaElement")
        if other.lam is not self.lam and other.lam != self.lam:
            raise ValueError("mismatched lambda")

    def __str__(self):
        parts = []
        for c, name in zip(self.coeffs, _BASIS_NAMES):
            if not c.is_zero():
                parts.append(f"({c})*{name}" if name != "1" else f"({c})")
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


def _element(lam: Scalar, coeffs: tuple) -> ALambdaElement:
    # four Scalars of lam's order, already checked: no coercion
    out = object.__new__(ALambdaElement)
    out.lam = lam
    out.coeffs = coeffs
    return out


@lru_cache(maxsize=64)
def _basis_product_table(lam: Scalar):
    """Sparse structure constants: (i, j) -> the terms (k, c, negate) of
    b_i * b_j in the basis (1, g, h, gh), one per nonzero coefficient.

    A unit coefficient is stored as c = None, with ``negate`` set for -1;
    any other coefficient is c (lambda itself for an indeterminate lam),
    with ``negate`` False.
    """
    one = Scalar.one(lam.order)
    zero = Scalar.zero(lam.order)
    l = lam

    def v(c1=zero, cg=zero, ch=zero, cgh=zero):
        return (c1, cg, ch, cgh)

    e1, eg, eh, egh = v(one), v(cg=one), v(ch=one), v(cgh=one)
    table = {
        (0, 0): e1, (0, 1): eg, (0, 2): eh, (0, 3): egh,
        (1, 0): eg, (1, 1): e1, (1, 2): egh, (1, 3): eh,
        # h*g = lambda g - gh, h*h = lambda h - 1, h*gh = g
        (2, 0): eh, (2, 1): v(cg=l, cgh=-one), (2, 2): v(-one, ch=l), (2, 3): eg,
        # gh*g = lambda - h, gh*h = lambda gh - g, gh*gh = 1
        (3, 0): egh, (3, 1): v(l, ch=-one), (3, 2): v(cg=-one, cgh=l), (3, 3): e1,
    }

    def term(k, c):
        if c == one or c == -one:
            return (k, None, c != one)
        return (k, c, False)

    return {ij: tuple(term(k, c) for k, c in enumerate(row) if not c.is_zero())
            for ij, row in table.items()}


def table_specialises(symbolic: LambdaPoly, lam: Scalar) -> bool:
    """Whether the product table of lam is the table of the indeterminate
    ``symbolic`` evaluated at lam, all 16 entries compared as dense
    4-vectors (which coefficients a table stores as units depends on the
    value of lambda).

    Evaluation at lam is a ring homomorphism Q(zeta_N)[lambda] ->
    Q(zeta_N), and every check here is a polynomial map of the table and
    of elements polynomial in lambda; so when this holds, each identity
    proven for ``symbolic`` holds for lam.
    """
    generic, table = _basis_product_table(symbolic), _basis_product_table(lam)
    # equal terms hold no lambda (a LambdaPoly equals no Scalar or None)
    return all(table[ij] == generic[ij] or _dense(table[ij], lam) == _dense(generic[ij], lam)
               for ij in generic)


def _dense(terms, lam: Scalar) -> list:
    # the 4-vector of one table entry, its coefficients evaluated at lam
    one = Scalar.one(lam.order)
    out = [Scalar.zero(lam.order)] * 4
    for k, c, negate in terms:
        value = one if c is None else c.evaluate(lam) if isinstance(c, LambdaPoly) else c
        out[k] = out[k] - value if negate else out[k] + value
    return out


def alambda_multiply(x: ALambdaElement, y: ALambdaElement) -> ALambdaElement:
    """Product reduced to the (1, g, h, gh) basis.

    Runs over the nonzero coefficients of x and y and the sparse structure
    constants; a unit constant adds or subtracts x_i y_j without a product,
    and a basis coefficient no term reaches is zero.
    """
    lam = x.lam
    if y.lam is not lam and y.lam != lam:
        raise ValueError("mismatched lambda")
    table = _basis_product_table(lam)
    ys = [(j, yj) for j, yj in enumerate(y.coeffs) if not yj.is_zero()]
    acc = [None] * 4
    for i, xi in enumerate(x.coeffs):
        if xi.is_zero():
            continue
        for j, yj in ys:
            f = xi * yj
            for k, c, negate in table[i, j]:
                t = f if c is None else f * c
                a = acc[k]
                if a is None:
                    acc[k] = -t if negate else t
                else:
                    acc[k] = a - t if negate else a + t
    zero = Scalar.zero(lam.order)
    return _element(lam, tuple(zero if a is None else a for a in acc))


def generator_image(lam: Scalar, letter: str) -> ALambdaElement:
    """Image of g, h or h^-1 in A_lambda (h^-1 = lambda - h)."""
    if letter == "g":
        return ALambdaElement.basis(lam, "g")
    if letter == "h":
        return ALambdaElement.basis(lam, "h")
    if letter == "h^-1":
        zero = Scalar.zero(lam.order)
        return _element(lam, (lam, zero, -Scalar.one(lam.order), zero))
    raise ValueError(f"unknown generator {letter!r}")


def reduce_word(lam: Scalar, word) -> ALambdaElement:
    """Reduce a word over {"g", "h", "h^-1"} to the 4-dimensional basis.

    The word is folded from the left; :func:`structure_check` proves that
    this gives the word's element of A_lambda for every word.
    """
    images = {}
    out = ALambdaElement.one(lam)
    for letter in word:
        image = images.get(letter)
        if image is None:
            image = images[letter] = generator_image(lam, letter)
        out = out * image
    return out


def structure_check(lam: Scalar) -> CheckResult:
    """Whether the product table of :func:`alambda_multiply` is A_lambda, so
    that :func:`reduce_word` is right for every word.

    ``alambda_multiply`` is bilinear by construction, so finite checks on the
    basis (1, g, h, gh) decide it:

    * b_0 = 1 is a two-sided unit, and (x*y)*z = x*(y*z) for x in {g, h}
      and basis y, z: 32 triples.  The x that associate with all y, z form
      a subspace S (bilinearity) holding 1, g and h; for a in {g, h} and x
      in S, ((a*x)*y)*z = (a*(x*y))*z = a*((x*y)*z) = a*(x*(y*z)) = (a*x)*(y*z),
      so S holds g*h = gh (a relation below): S is A_lambda, an associative
      algebra with 1, where every bracketing of a word, the left fold of
      ``reduce_word`` included, gives one element.
    * g h = gh, g^2 = 1, (gh)^2 = 1 and h h^-1 = h^-1 h = 1 with
      h^-1 = lambda - h.  Then g, h extend to a homomorphism from k D_inf
      that sends h + h^-1 to lambda and reaches 1, g, h, gh: the table is a
      4-dimensional quotient of A_lambda, which 1, g, h, gh span, hence
      A_lambda itself.

    The 16 basis products are formed once.  The witness names the first
    failing unit, triple or relation.
    """
    b = [ALambdaElement.basis(lam, name) for name in _BASIS_NAMES]
    prod = {(i, j): x * y for i, x in enumerate(b) for j, y in enumerate(b)}
    for i, name in enumerate(_BASIS_NAMES):
        if prod[0, i] != b[i] or prod[i, 0] != b[i]:
            return CheckResult(False, f"1 is not a two-sided unit for {name}")
    for i, j, k in iter_product((1, 2), range(4), range(4)):
        left, right = prod[i, j] * b[k], b[i] * prod[j, k]
        if left != right:
            x, y, z = (_BASIS_NAMES[t] for t in (i, j, k))
            return CheckResult(False, f"({x}*{y})*{z} = {left} but {x}*({y}*{z}) = {right}")
    one, _, h, gh = b
    hinv = generator_image(lam, "h^-1")
    return _identities_check((
        ("g h = gh", prod[1, 2], gh),
        ("g^2 = 1", prod[1, 1], one),
        ("(gh)^2 = 1", prod[3, 3], one),
        ("h h^-1 = 1", h * hinv, one),
        ("h^-1 h = 1", hinv * h, one),
    ))


def _identities_check(identities, prefix: str = "") -> CheckResult:
    # (name, value, expected) triples; the first one that fails is the witness
    for name, value, expected in identities:
        if value != expected:
            return CheckResult(False, f"{prefix}{name} fails: the left side is {value}")
    return CheckResult(True)


# -- idempotents, corners, radicals ------------------------------------------

def idempotent_pair(lam: Scalar) -> tuple[ALambdaElement, ALambdaElement]:
    """e1 = (1+g)/2, e2 = (1-g)/2, verified before returning."""
    half = Fraction(1, 2)
    e1 = ALambdaElement(lam, [half, half, 0, 0])
    e2 = ALambdaElement(lam, [half, -half, 0, 0])
    zero = ALambdaElement.zero(lam)
    if not (e1 * e1 == e1 and e2 * e2 == e2):
        raise ArithmeticError("idempotent relation failed")
    if not (e1 * e2 == zero and e2 * e1 == zero):
        raise ArithmeticError("orthogonality failed")
    if e1 + e2 != ALambdaElement.one(lam):
        raise ArithmeticError("decomposition of 1 failed")
    return e1, e2


@dataclass(frozen=True)
class CornerData:
    """One corner e*A (right) or A*e (left): idempotent, 2-element basis,
    and the nilpotent line."""

    idempotent: ALambdaElement
    basis: tuple[ALambdaElement, ALambdaElement]
    radical_line: ALambdaElement
    side: str          # "plus" or "minus"
    left: bool = False


def _corner_basis(lam: Scalar, side: str, left: bool):
    one = Scalar.one(lam.order)
    if side == "plus":
        sg = one
    elif side == "minus":
        sg = -one
    else:
        raise ValueError("side must be 'plus' or 'minus'")
    a = ALambdaElement(lam, [one, sg, 0, 0])                 # 1 +- g
    if left:
        # h^-1 +- gh = (lambda - h) +- gh
        b = ALambdaElement(lam, [lam, 0, -one, sg])
    else:
        # h +- gh
        b = ALambdaElement(lam, [0, 0, one, sg])
    return a, b


def corner_data(lam: Scalar, side: str, left: bool = False) -> CornerData:
    """Corner of A_lambda at e1 (plus) or e2 (minus), with its radical line.

    The idempotent pair is verified first.  The nilpotent line
    r = b - (lambda/2) a is verified exactly: r^2 = 0 and r kills the corner
    basis from the side the corner lives on.
    """
    return _corner_data(lam, side, left, idempotent_pair(lam))


def _corner_data(lam: Scalar, side: str, left: bool, pair) -> CornerData:
    # pair is idempotent_pair(lam), verified by the caller, so that a report
    # or suite that reads several corners verifies it once
    e1, e2 = pair
    e = e1 if side == "plus" else e2
    a, b = _corner_basis(lam, side, left)
    r = b - a.scale(lam * Fraction(1, 2))
    if not (r * r).is_zero():
        raise ArithmeticError("radical line does not square to zero")
    if left and not ((a * r).is_zero() and (b * r).is_zero()):
        raise ArithmeticError("corner does not kill radical")
    if not left and not ((r * a).is_zero() and (r * b).is_zero()):
        raise ArithmeticError("radical does not kill corner")
    return CornerData(e, (a, b), r, side, left)


def corner_power_identity(x1: Scalar, x2: Scalar, lam: Scalar, n: int,
                          side: str = "plus") -> bool:
    """Whether (x1*a + x2*b)^n = (2 x1 + lambda x2)^(n-1) (x1*a + x2*b)
    holds in the right corner, evaluated by repeated multiplication (the
    sampled oracle of :func:`corner_square_check`, which proves it for all
    x1, x2 and n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a, b = _corner_basis(lam, side, left=False)
    elt = a.scale(x1) + b.scale(x2)
    lhs = elt ** n
    factor = (x1 + x1 + lam * x2) ** (n - 1)
    rhs = elt.scale(factor)
    return lhs == rhs


def corner_square_check(lam: Scalar, side: str) -> CheckResult:
    """Whether a^2 = 2a, ab + ba = 2b + lambda a and b^2 = lambda b hold on the
    right corner basis (a, b) of ``side``.

    For e = x1 a + x2 b, bilinearity gives
    e^2 = x1^2 a^2 + x1 x2 (ab + ba) + x2^2 b^2, so the three identities hold
    exactly when e^2 = c e with c = 2 x1 + lambda x2, for all x1, x2.  Then
    e^n = e^(n-1) e = c^(n-2) e^2 = c^(n-1) e by induction on n >= 2: the
    identity of :func:`corner_power_identity` for every n (n = 1 needs only
    the unit that :func:`structure_check` proves).
    """
    a, b = _corner_basis(lam, side, left=False)
    return _identities_check((
        ("a^2 = 2a", a * a, a.scale(2)),
        ("ab + ba = 2b + lambda a", a * b + b * a, b.scale(2) + a.scale(lam)),
        ("b^2 = lambda b", b * b, b.scale(lam)),
    ), prefix=f"{side} corner: ")


# -- finite-dimensional dihedral representations ------------------------------

@dataclass(frozen=True)
class FinRep:
    """Matrices of g and h for a 1- or 2-dim rep; once the module axioms
    hold, h^-1 acts as G H G.

    ``axiom`` is the module-axiom verdict, computed on first use and kept
    with the rep, so every check that needs it reads one computation.
    """

    G: tuple
    H: tuple

    @property
    def dim(self) -> int:
        return len(self.G)

    @property
    def order(self) -> int:
        return self.G[0][0].order

    @classmethod
    def from_matrices(cls, G, H) -> "FinRep":
        """Build a rep candidate from row lists."""
        return cls(tuple(tuple(r) for r in G), tuple(tuple(r) for r in H))

    @cached_property
    def axiom(self) -> "CheckResult":
        return _module_axioms(self)


@dataclass(frozen=True)
class CheckResult:
    """Verdict of a check; ``witness`` describes the first failure found:
    a message (module axioms), a braid-equation triple or label pair with
    both sides (``ydmod``) or a :class:`tables.TableWitness`."""

    ok: bool
    witness: Optional[Union[str, tuple, TableWitness]] = None

    def __bool__(self):
        return self.ok


def module_axiom_check(rep: FinRep) -> CheckResult:
    """Verify g^2 = 1 and (g h)^2 = 1, i.e. g h g = h^-1, as exact matrices:
    the verdict ``rep.axiom``, computed once per rep."""
    return rep.axiom


def _module_axioms(rep: FinRep) -> CheckResult:
    ident = linalg.identity(rep.dim, rep.order)
    if not linalg.mat_eq(linalg.mat_mul(rep.G, rep.G), ident):
        return CheckResult(False, "g^2 != 1")
    gh = linalg.mat_mul(rep.G, rep.H)
    if not linalg.mat_eq(linalg.mat_mul(gh, gh), ident):
        return CheckResult(False, "g h g != h^-1")
    return CheckResult(True)


def is_irreducible(rep: FinRep) -> bool:
    """Whether an axiom-passing rep of dim <= 2 is irreducible over the
    algebraic closure.

    Dim 1 always is.  A 2-dimensional rep is reducible iff G and H have a
    common eigenvector, and two 2x2 matrices have one iff
    det(GH - HG) = 0 (Shemesh, Linear Algebra Appl. 62, 1984): the
    verdict of the Burnside span of the words in G and H, with no
    elimination.  Dims > 2 raise ValueError, as in :func:`rep_iso_check`.
    """
    if not rep.axiom:
        raise ValueError("is_irreducible requires an axiom-passing rep")
    if rep.dim == 1:
        return True
    if rep.dim > 2:
        raise ValueError("is_irreducible handles dims <= 2 only")
    gh, hg = linalg.mat_mul(rep.G, rep.H), linalg.mat_mul(rep.H, rep.G)
    (a, b), (c, d) = ([x - y for x, y in zip(r, s)] for r, s in zip(gh, hg))
    return not (a * d - b * c).is_zero()


def rep_iso_check(r1: FinRep, r2: FinRep) -> bool:
    """Whether an invertible intertwiner T with T G1 = G2 T, T H1 = H2 T exists.

    Solves the linear system exactly (linalg.nullspace, on integer rows);
    for dim 2 an invertible element exists in the solution space iff det is
    not identically zero on it, which is decided by evaluating det on the
    basis vectors and their pairwise sums (det is a quadratic form in the
    coordinates).
    """
    for r in (r1, r2):
        if not r.axiom:
            raise ValueError("rep_iso_check requires axiom-passing reps")
        if r.dim > 2:
            raise ValueError("rep_iso_check handles dims <= 2 only")
    if r1.dim != r2.dim:
        return False
    d = r1.dim
    order = r1.order
    zero = Scalar.zero(order)
    # Unknowns T[i][j] flattened row-major; rows of the system come from
    # (T A1 - A2 T)[i][j] = 0 for A in {G, H}.
    rows = []
    for A1, A2 in ((r1.G, r2.G), (r1.H, r2.H)):
        for i in range(d):
            for j in range(d):
                row = [zero] * (d * d)
                for k in range(d):
                    row[i * d + k] = row[i * d + k] + A1[k][j]
                    row[k * d + j] = row[k * d + j] - A2[i][k]
                rows.append(row)
    kernel = linalg.nullspace(rows)
    if not kernel:
        return False
    if d == 1:
        return True

    def det_of(vec):
        return vec[0] * vec[3] - vec[1] * vec[2]

    candidates = list(kernel)
    candidates += [[a + b for a, b in zip(u, v)]
                   for i, u in enumerate(kernel) for v in kernel[i + 1:]]
    return any(not det_of(v).is_zero() for v in candidates)


# -- the simple-module candidates ---------------------------------------------

@dataclass(frozen=True)
class SimpleCandidate:
    """One candidate simple module; ``axiom`` is its rep's verdict."""

    label: str                 # "s0+", "s0-", "slam+", "slam-"
    lam: Scalar
    rep: FinRep

    @property
    def dim(self) -> int:
        return self.rep.dim

    @property
    def axiom(self) -> CheckResult:
        return self.rep.axiom


def _scalar_matrix(values, order):
    return tuple(tuple(v if isinstance(v, Scalar) else Scalar.from_rational(v, order)
                       for v in row) for row in values)


def simple_modules(lam: Scalar) -> list[SimpleCandidate]:
    """The candidate simple modules of A_lambda, each with its axiom
    verdict (``cand.axiom``).

    lambda = 0: two 2-dimensional modules (the corners themselves), with
    g = diag(+-1, -+1) and h the rotation sending the first basis vector to
    minus the second.  lambda != 0: two 1-dimensional candidates with
    g -> +-1 and h -> lambda/2; these satisfy h^2 = lambda h - 1 only when
    lambda = +-2 and are flagged accordingly, not dropped.
    """
    order = lam.order
    one = Scalar.one(order)
    out = []
    if lam.is_zero():
        for label, gsign in (("s0+", one), ("s0-", -one)):
            G = _scalar_matrix([[gsign, 0], [0, -gsign]], order)
            H = _scalar_matrix([[0, 1], [-1, 0]], order)
            out.append(SimpleCandidate(label, lam, FinRep(G, H)))
        return out
    half_lam = lam * Fraction(1, 2)
    for label, gval in (("slam+", one), ("slam-", -one)):
        G = _scalar_matrix([[gval]], order)
        H = _scalar_matrix([[half_lam]], order)
        out.append(SimpleCandidate(label, lam, FinRep(G, H)))
    return out


def alambda_report(lam: Scalar) -> dict:
    """Structured summary used by the CLI: products, idempotents, radicals,
    simple-module candidates with axiom/irreducibility flags."""
    pair = e1, e2 = idempotent_pair(lam)
    products = {}
    for i, x in enumerate(_BASIS_NAMES):
        for j, y in enumerate(_BASIS_NAMES):
            prod = alambda_multiply(ALambdaElement.basis(lam, x),
                                    ALambdaElement.basis(lam, y))
            products[f"{x}*{y}"] = str(prod)
    corners = {}
    for side in ("plus", "minus"):
        for left in (False, True):
            c = _corner_data(lam, side, left, pair)
            key = f"{'left' if left else 'right'}_{side}"
            corners[key] = {
                "idempotent": str(c.idempotent),
                "basis": [str(b) for b in c.basis],
                "radical_line": str(c.radical_line),
            }
    simples = []
    for cand in simple_modules(lam):
        entry = {
            "label": cand.label,
            "dim": cand.dim,
            "g": [[str(c) for c in row] for row in cand.rep.G],
            "h": [[str(c) for c in row] for row in cand.rep.H],
            "axiom_pass": cand.axiom.ok,
        }
        if cand.axiom.ok:
            entry["irreducible"] = is_irreducible(cand.rep)
        else:
            entry["axiom_witness"] = cand.axiom.witness
        simples.append(entry)
    return {
        "lambda": str(lam),
        "basis_products": products,
        "idempotents": {"e1": str(e1), "e2": str(e2)},
        "corners": corners,
        "simple_modules": simples,
    }

"""Irreducible Yetter-Drinfeld modules over the infinite dihedral group.

Four families, one per conjugacy class:

* h-class  (support {h^n, h^-n}): 2-dimensional, basis x1, x2, parameter a.
  ``a`` is the centralizer character evaluated on the class base point h^n,
  which is exactly the braiding parameter; the group acts through the
  subgroup <g, h^n> (an h-exponent not divisible by n would need an n-th
  root of a, which Q(zeta_N) need not contain, and the coaction degrees
  never leave <h^n>).
* g-class  (support = even reflections) and gh-class (odd reflections):
  countably infinite, with the sign or trivial character of the Z_2
  centralizer.  Internally both live on the honest coset basis
  u_k = h^k (x) x, k in Z; the surface labels are A(m) = u_m (m >= 0) and
  B(n) = rho * u_{-n} resp. rho * u_{1-n} (n >= 1).  For the gh-class this
  makes B(1) an alias of rho * A(0) - the two labels name proportional
  vectors, and outputs are always canonicalized to the A side.
* one-class (support {1}): a finite-dimensional simple module with trivial
  grading, so the braiding is the plain flip.

The braiding is always c(v (x) w) = deg(v).w (x) v, computed from the
coaction followed by the action; the closed-form tables live in
``tables.py`` and are checked against this composition, never trusted.

Everything here is immutable and pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .field import DEFAULT_ORDER, Scalar
from .group import (
    ConjClass,
    EVEN_REFLECTIONS,
    GroupElement,
    H_POWER,
    ODD_REFLECTIONS,
    ONE,
)
from .repn import CheckResult, FinRep, module_axiom_check

SIGN = "sign"
EPS = "eps"


@dataclass(frozen=True)
class BasisVector:
    """A named basis vector: x1/x2, a_m, b_n, or v1/v2."""

    kind: str          # "x1", "x2", "a", "b", "v1", "v2"
    index: int = 0

    def __post_init__(self):
        if self.kind in ("x1", "x2", "v1", "v2"):
            if self.index != 0:
                raise ValueError(f"{self.kind} carries no index")
        elif self.kind == "a":
            if self.index < 0:
                raise ValueError("a-vectors are indexed by m >= 0")
        elif self.kind == "b":
            if self.index < 1:
                raise ValueError("b-vectors are indexed by n >= 1")
        else:
            raise ValueError(f"unknown basis vector kind {self.kind!r}")

    def __str__(self):
        if self.kind in ("a", "b"):
            return f"{self.kind}{self.index}"
        return self.kind


X1 = BasisVector("x1")
X2 = BasisVector("x2")
V1 = BasisVector("v1")
V2 = BasisVector("v2")


def A(m: int) -> BasisVector:
    return BasisVector("a", m)


def B(n: int) -> BasisVector:
    return BasisVector("b", n)


@dataclass(frozen=True)
class SignedVector:
    coeff: Scalar
    vec: BasisVector

    def __post_init__(self):
        if self.coeff.is_zero():
            raise ValueError("SignedVector coefficient must be nonzero")

    def __str__(self):
        return f"({self.coeff})*{self.vec}"


LinComb = tuple  # tuple of SignedVector


@dataclass(frozen=True)
class BraidTerm:
    """c(v (x) w) = coeff * (left (x) right)."""

    coeff: Scalar
    left: BasisVector
    right: BasisVector

    def __str__(self):
        return f"({self.coeff})*{self.left}(x){self.right}"


class YDModule:
    """Common surface of the four families."""

    support: ConjClass
    dim: Optional[int]      # None for the infinite families
    order: int              # cyclotomic order of all coefficients

    def contains(self, v: BasisVector) -> bool:
        raise NotImplementedError

    def act(self, x: GroupElement, v: BasisVector) -> LinComb:
        raise NotImplementedError

    def coact(self, v: BasisVector) -> GroupElement:
        raise NotImplementedError

    def basis(self) -> list[BasisVector]:
        raise NotImplementedError

    def basis_window(self, window: int) -> list[BasisVector]:
        """Finite slice of the basis (whole basis for finite families)."""
        return self.basis()

    def _require(self, v: BasisVector):
        if not self.contains(v):
            raise ValueError(f"{v} is not a basis vector of {self}")

    def braid(self, v: BasisVector, w: BasisVector) -> BraidTerm:
        """c(v (x) w) = deg(v).w (x) v via coaction-then-action."""
        terms = self.act(self.coact(v), w)
        if len(terms) != 1:
            raise ValueError("braiding is not monomial on this pair")
        sv = terms[0]
        return BraidTerm(sv.coeff, sv.vec, v)


class HClassModule(YDModule):
    """M over the class {h^n, h^-n}: basis x1 = 1 (x) x, x2 = g (x) x.

    deg x1 = h^n, deg x2 = h^-n; h^n acts by a on x1 and a^-1 on x2;
    g swaps x1 and x2.
    """

    def __init__(self, n: int, a: Scalar):
        if n < 1:
            raise ValueError("class index n must be >= 1")
        if a.is_zero():
            raise ValueError("parameter a must be nonzero")
        self.n = n
        self.a = a
        self.order = a.order
        self.support = ConjClass(H_POWER, n)
        self.dim = 2

    def __repr__(self):
        return f"HClassModule(n={self.n}, a={self.a})"

    def contains(self, v):
        return v.kind in ("x1", "x2")

    def basis(self):
        return [X1, X2]

    def act(self, x, v):
        self._require(v)
        q, r = divmod(x.exponent, self.n)
        if r != 0:
            raise ValueError(
                f"h^{x.exponent} does not act on the h^{self.n}-class module: "
                f"the action is defined on the subgroup <g, h^{self.n}>")
        coeff = self.a ** (q if v.kind == "x1" else -q)
        vec = v
        if x.reflection:
            vec = X2 if v.kind == "x1" else X1
        return (SignedVector(coeff, vec),)

    def coact(self, v):
        self._require(v)
        return GroupElement(0, self.n if v.kind == "x1" else -self.n)


class ReflectionClassModule(YDModule):
    """Common implementation of the g-class and gh-class families.

    On the coset basis u_k (k in Z): h.u_k = u_{k+1} and
    g.u_k = rho * u_{t-k}, where t = 0 for the g-class and t = 1 for the
    gh-class, and rho = +-1 is the centralizer character value.  Degrees
    are g h^{-2k} resp. g h^{1-2k}.
    """

    twist: int

    def __init__(self, rep: str, order: int = DEFAULT_ORDER):
        if rep not in (SIGN, EPS):
            raise ValueError("rep must be 'sign' or 'eps'")
        self.rep = rep
        self.order = order
        self.rho = Scalar.one(order) if rep == EPS else -Scalar.one(order)
        self.dim = None

    def __repr__(self):
        return f"{type(self).__name__}(rep={self.rep!r})"

    def contains(self, v):
        return v.kind in ("a", "b")

    def basis_window(self, window: int):
        return [A(m) for m in range(window + 1)] + [B(n) for n in range(1, window + 1)]

    def basis(self):
        raise ValueError(f"{self!r} is infinite dimensional; use basis_window")

    # label <-> internal coset index

    def _to_internal(self, v: BasisVector) -> tuple[Scalar, int]:
        if v.kind == "a":
            return Scalar.one(self.order), v.index
        return self.rho, self.twist - v.index

    def _from_internal(self, coeff: Scalar, k: int) -> SignedVector:
        if k >= 0:
            return SignedVector(coeff, A(k))
        return SignedVector(coeff * self.rho, B(self.twist - k))

    def act(self, x, v):
        self._require(v)
        coeff, k = self._to_internal(v)
        k += x.exponent
        if x.reflection:
            coeff = coeff * self.rho
            k = self.twist - k
        return (self._from_internal(coeff, k),)

    def coact(self, v):
        self._require(v)
        _, k = self._to_internal(v)
        return GroupElement(1, self.twist - 2 * k)


class GClassModule(ReflectionClassModule):
    twist = 0
    support = ConjClass(EVEN_REFLECTIONS)


class GhClassModule(ReflectionClassModule):
    twist = 1
    support = ConjClass(ODD_REFLECTIONS)


class OneClassModule(YDModule):
    """M over the trivial class: a simple module with deg v = 1 everywhere.

    The coaction is trivial, so the braiding is the flip no matter what the
    module structure is; the action matters for the Yetter-Drinfeld axioms
    and is given by the FinRep matrices.
    """

    def __init__(self, rep: FinRep, label: str = "one-class"):
        check = module_axiom_check(rep)
        if not check.ok:
            raise ValueError(f"rep fails module axioms: {check.witness}")
        self.rep = rep
        self.label = label
        self.order = rep.order
        self.dim = rep.dim
        self.support = ConjClass(ONE)

    def __repr__(self):
        return f"OneClassModule({self.label!r}, dim={self.dim})"

    def contains(self, v):
        if self.dim == 1:
            return v.kind == "v1"
        return v.kind in ("v1", "v2")

    def basis(self):
        return [V1] if self.dim == 1 else [V1, V2]

    def act(self, x, v):
        self._require(v)
        col = 0 if v.kind == "v1" else 1
        vec = [Scalar.zero(self.order)] * self.dim
        vec[col] = Scalar.one(self.order)
        mats = []
        if x.reflection:
            mats.append(self.rep.G)
        power = self.rep.H if x.exponent >= 0 else self.rep.Hinv
        mats.extend([power] * abs(x.exponent))
        # normal form g^e h^m applies h^m first, then g
        for mat in reversed(mats):
            vec = [sum((mat[i][j] * vec[j] for j in range(self.dim)),
                       Scalar.zero(self.order)) for i in range(self.dim)]
        out = []
        for i, c in enumerate(vec):
            if not c.is_zero():
                out.append(SignedVector(c, V1 if i == 0 else V2))
        if not out:
            raise ValueError("group action produced zero; rep is corrupt")
        return tuple(out)

    def coact(self, v):
        self._require(v)
        return GroupElement(0, 0)


# -- family constructors -------------------------------------------------------

# kept because the benchmark self-test (perfbench/selftest.py) imports it
def h_class(n: int, a: Scalar) -> HClassModule:
    return HClassModule(n, a)


REFLECTION_FAMILIES = {"g-class": GClassModule, "gh-class": GhClassModule}


# -- checks -------------------------------------------------------------------

def yd_compat_check(m: YDModule, x: GroupElement, v: BasisVector) -> bool:
    """deg(x.v) = x deg(v) x^-1, on every term of x.v."""
    expected = x.conjugate(m.coact(v))
    return all(m.coact(term.vec) == expected for term in m.act(x, v))


# the benchmark tracer (perfbench/tracer.py) needs this name for nichols.braid_evals
def braid_word_at(m: YDModule, coeff: Scalar, word: tuple, i: int):
    """Apply the braiding to slots (i, i+1) of a tensor word, 1-indexed."""
    if not 1 <= i <= len(word) - 1:
        raise ValueError(f"braid position {i} out of range for length {len(word)}")
    t = m.braid(word[i - 1], word[i])
    new_word = word[:i - 1] + (t.left, t.right) + word[i + 1:]
    return coeff * t.coeff, new_word


def braid_equation_check(m: YDModule, triples: Iterable[tuple]) -> CheckResult:
    """(c x id)(id x c)(c x id) = (id x c)(c x id)(id x c) on the given triples."""
    one = Scalar.one(m.order)
    for triple in triples:
        lhs_c, lhs_w = one, tuple(triple)
        for i in (1, 2, 1):
            lhs_c, lhs_w = braid_word_at(m, lhs_c, lhs_w, i)
        rhs_c, rhs_w = one, tuple(triple)
        for i in (2, 1, 2):
            rhs_c, rhs_w = braid_word_at(m, rhs_c, rhs_w, i)
        if lhs_c != rhs_c or lhs_w != rhs_w:
            witness = (triple, (str(lhs_c), tuple(map(str, lhs_w))),
                       (str(rhs_c), tuple(map(str, rhs_w))))
            return CheckResult(False, witness)
    return CheckResult(True)


def diagonal_type(m: YDModule):
    """The braiding matrix (q_ij) if c(x_i (x) x_j) = q_ij x_j (x) x_i
    for every basis pair, else None.  Infinite families are rejected."""
    if m.dim is None:
        raise ValueError("diagonal_type requires a finite-dimensional module")
    basis = m.basis()
    matrix = []
    for vi in basis:
        row = []
        for vj in basis:
            t = m.braid(vi, vj)
            if t.left != vj or t.right != vi:
                return None
            row.append(t.coeff)
        matrix.append(row)
    return matrix

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

The two finite families share one matrix action (:class:`FiniteClassModule`)
and differ only in their matrices, degrees and step.

The braiding is always c(v (x) w) = deg(v).w (x) v, computed from the
coaction followed by the action; the closed-form tables live in
``tables.py`` and are checked against this composition, never trusted.
On the coset basis the action, the coaction and so the braiding are
affine in the index.  The reflection modules compute them once, in two
helpers that run on ints and on :class:`Affine` forms alike: the proofs
:func:`reflection_braid_check` and :func:`reflection_yd_check` run them for
all indices, and compare ``act``, ``coact`` and ``braid`` with them on the
fixed labels ``BREAK_LABELS``, not on a window.

Each braiding is cheap to compute:

* labels are interned: ``A(m)`` and ``B(n)`` return one validated object
  per label (a direct ``BasisVector(...)`` still validates and compares
  equal to it);
* the reflection action runs on the pair (sign bit s, coset index k) of
  rho^s * u_k and reads its coefficient from the module's two units
  (1, rho), so it multiplies no scalars;
* a finite module builds the action of each group element it is asked
  for once, as the columns of one matrix product, and keeps it.

Everything here is immutable and pure; a finite module's built actions are
fixed by its matrices and live as long as the module.
"""

from __future__ import annotations

import operator
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
from .linalg import identity, mat_mul
from .repn import CheckResult, FinRep, module_axiom_check

SIGN = "sign"
EPS = "eps"


@dataclass(frozen=True)
class BasisVector:
    """A named basis vector: x1/x2, a_m, b_n, or v1/v2.

    The value classes of this module declare their slots by hand rather
    than with ``slots=True``, so that assigning any name raises
    ``FrozenInstanceError``; ``__reduce__`` lets copy and pickle rebuild a
    value through its validating constructor.
    """

    __slots__ = ("kind", "index")

    kind: str          # "x1", "x2", "a", "b", "v1", "v2"
    index: int         # 0 for x1, x2, v1, v2

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

    def __reduce__(self):
        return type(self), (self.kind, self.index)

    def __str__(self):
        if self.kind in ("a", "b"):
            return f"{self.kind}{self.index}"
        return self.kind


X1 = BasisVector("x1", 0)
X2 = BasisVector("x2", 0)
V1 = BasisVector("v1", 0)
V2 = BasisVector("v2", 0)

# The a- and b-labels asked for so far, one validated object each; a label
# that fails validation raises before it is stored.
_A_LABELS: dict[int, BasisVector] = {}
_B_LABELS: dict[int, BasisVector] = {}


def A(m: int) -> BasisVector:
    v = _A_LABELS.get(m)
    if v is None:
        v = _A_LABELS[m] = BasisVector("a", m)
    return v


def B(n: int) -> BasisVector:
    v = _B_LABELS.get(n)
    if v is None:
        v = _B_LABELS[n] = BasisVector("b", n)
    return v


@dataclass(frozen=True)
class SignedVector:
    __slots__ = ("coeff", "vec")

    coeff: Scalar
    vec: BasisVector

    def __post_init__(self):
        if self.coeff.is_zero():
            raise ValueError("SignedVector coefficient must be nonzero")

    def __reduce__(self):
        return type(self), (self.coeff, self.vec)

    def __str__(self):
        return f"({self.coeff})*{self.vec}"


LinComb = tuple  # tuple of SignedVector


@dataclass(frozen=True)
class BraidTerm:
    """c(v (x) w) = coeff * (left (x) right)."""

    __slots__ = ("coeff", "left", "right")

    coeff: Scalar
    left: BasisVector
    right: BasisVector

    def __reduce__(self):
        return type(self), (self.coeff, self.left, self.right)

    def __str__(self):
        return f"({self.coeff})*{self.left}(x){self.right}"


class Affine:
    """An integer affine form c_1 x_1 + ... + c_n x_n + c in the variables
    named by the letters of ``names``, kept as the row (c_1, ..., c_n, c).

    It has the index arithmetic of the reflection action and coaction:
    adding an int or a form, negating, scaling by an int.  Those run on
    forms unchanged, and equal forms are equal for every value of the
    variables.  Any other use, such as an order comparison or a truth
    test, raises TypeError.
    """

    __slots__ = ("names", "row")

    def __init__(self, names: str, row: tuple):
        self.names, self.row = names, row

    @classmethod
    def variables(cls, names: str) -> list["Affine"]:
        n = len(names)
        return [cls(names, tuple(int(i == j) for j in range(n + 1))) for i in range(n)]

    def __add__(self, other):
        if isinstance(other, Affine):
            return Affine(self.names, tuple(map(operator.add, self.row, other.row)))
        return Affine(self.names, self.row[:-1] + (self.row[-1] + operator.index(other),))

    __radd__ = __add__

    def __mul__(self, n):
        return Affine(self.names, tuple(map(operator.index(n).__mul__, self.row)))

    __rmul__ = __mul__

    def __neg__(self):
        return Affine(self.names, tuple(map(operator.neg, self.row)))

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __eq__(self, other):
        return isinstance(other, Affine) and self.row == other.row

    def __bool__(self):
        raise TypeError("an affine form has no truth value")

    def __str__(self):
        *coeffs, c = self.row
        text = "".join(f"{'-' if a < 0 else '+'}{abs(a) if abs(a) != 1 else ''}{x}"
                       for a, x in zip(coeffs, self.names) if a)
        return (text + (f"{c:+d}" if c or not text else "")).lstrip("+")


class YDModule:
    """Common surface of the four families."""

    support: ConjClass
    dim: Optional[int]      # None for the infinite families
    order: int              # cyclotomic order of all coefficients
    step = 1                # h^step generates the rotations that act

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


class FiniteClassModule(YDModule):
    """A finite family: <g, h^step> acts through the matrices of ``rep``.

    ``rep.G`` and ``rep.H`` give g and h^step on ``basis``, whose vectors
    have the given ``degrees``.  x = g^e h^m acts only when step | m:
    h^step acts q = m/step times, as G H^|q| G when q < 0 (g h g = h^-1),
    and then g if e = 1.  The action of each (e, q) is built on its first
    use and kept with the module, which answers later calls from it.
    """

    def __init__(self, rep: FinRep, basis, degrees, step: int,
                 support: ConjClass):
        self.rep = rep
        self._degrees = dict(zip(basis, degrees))
        self.step = step
        self.support = support
        self.order = rep.order
        self.dim = rep.dim
        self._actions = {}      # (e, q) -> {v: terms of g^e h^(step q).v}

    def contains(self, v):
        return v in self._degrees

    def basis(self):
        return list(self._degrees)

    def act(self, x, v):
        self._require(v)
        q, r = divmod(x.exponent, self.step)
        if r != 0:
            raise ValueError(
                f"h^{x.exponent} does not act on the h^{self.step}-class module: "
                f"the action is defined on the subgroup <g, h^{self.step}>")
        key = (x.reflection, q)
        action = self._actions.get(key)
        if action is None:
            action = self._actions[key] = self._build_action(*key)
        out = action[v]
        if not out:
            raise ValueError("group action produced zero; rep is corrupt")
        return out

    def _build_action(self, e: int, q: int) -> dict:
        """The terms of g^e h^(step q) on every basis vector: the columns
        of the product of its factors, the identity only for e = q = 0."""
        G, H = self.rep.G, self.rep.H
        mats = [H] * abs(q)
        if q < 0:
            mats = [G] + mats + [G]
        if e:
            mats.append(G)
        basis = list(self._degrees)
        product = mats[0] if mats else identity(self.dim, self.order)
        for mat in mats[1:]:
            product = mat_mul(mat, product)
        return {v: tuple(SignedVector(row[j], w) for row, w in zip(product, basis)
                         if not row[j].is_zero())
                for j, v in enumerate(basis)}

    def coact(self, v):
        self._require(v)
        return self._degrees[v]


class HClassModule(FiniteClassModule):
    """M over the class {h^n, h^-n}: basis x1 = 1 (x) x, x2 = g (x) x.

    deg x1 = h^n, deg x2 = h^-n; h^n acts by a on x1 and ``a_inv`` = a^-1
    on x2; g swaps x1 and x2.
    """

    def __init__(self, n: int, a: Scalar):
        if n < 1:
            raise ValueError("class index n must be >= 1")
        if a.is_zero():
            raise ValueError("parameter a must be nonzero")
        self.n = n
        self.a = a
        self.a_inv = a.inverse()
        zero, one = Scalar.zero(a.order), Scalar.one(a.order)
        rep = FinRep(((zero, one), (one, zero)), ((a, zero), (zero, self.a_inv)))
        super().__init__(rep, (X1, X2), (GroupElement(0, n), GroupElement(0, -n)),
                         n, ConjClass(H_POWER, n))

    def __repr__(self):
        return f"HClassModule(n={self.n}, a={self.a})"


class ReflectionClassModule(YDModule):
    """Common implementation of the g-class and gh-class families.

    On the coset basis u_k (k in Z): h.u_k = u_{k+1} and
    g.u_k = rho * u_{t-k}, where t = 0 for the g-class and t = 1 for the
    gh-class, and rho = +-1 is the centralizer character value.  Degrees
    are g h^{-2k} resp. g h^{1-2k}.

    A signed label is kept internally as rho^s * u_k, the pair (s, k) of a
    sign bit and a coset index; rho^2 = 1, so the action flips s and the
    coefficient is read from the two units (1, rho).  ``act`` and ``coact``
    are ``_act_pair`` and ``_degree`` on that pair.
    """

    twist: int

    def __init__(self, rep: str, order: int = DEFAULT_ORDER):
        if rep not in (SIGN, EPS):
            raise ValueError("rep must be 'sign' or 'eps'")
        self.rep = rep
        self.order = order
        one = Scalar.one(order)
        self.rho_sign = 1 if rep == EPS else -1
        self.rho = one if rep == EPS else -one
        self._units = (one, self.rho)       # rho^s, by sign bit s
        self.dim = None

    def __repr__(self):
        return f"{type(self).__name__}(rep={self.rep!r})"

    def contains(self, v):
        return v.kind in ("a", "b")

    def basis_window(self, window: int):
        return [A(m) for m in range(window + 1)] + [B(n) for n in range(1, window + 1)]

    def basis(self):
        raise ValueError(f"{self!r} is infinite dimensional; use basis_window")

    # label <-> internal (s, k): the label is rho^s * u_k.  The one break,
    # k >= 0, is in _from_internal; _to_internal also takes Affine indices.

    def _to_internal(self, kind: str, index):
        if kind == "a":
            return 0, index
        return 1, self.twist - index

    def _from_internal(self, s: int, k: int) -> tuple[Scalar, BasisVector]:
        if k >= 0:
            return self._units[s], A(k)
        return self._units[s ^ 1], B(self.twist - k)

    # the action and coaction on (s, k); they branch on no index, so the
    # proofs run them on Affine forms

    def _act_pair(self, r: int, e, s: int, k):
        """g^r h^e . (s, k) = (s xor r, (-1)^r (k + e) + r t)."""
        k += e
        if r:
            return s ^ 1, self.twist - k
        return s, k

    def _degree(self, k) -> GroupElement:
        """deg u_k = g h^(t - 2k)."""
        return GroupElement(1, self.twist - 2 * k)

    def act(self, x, v):
        self._require(v)
        s, k = self._to_internal(v.kind, v.index)
        return (SignedVector(*self._from_internal(
            *self._act_pair(x.reflection, x.exponent, s, k))),)

    def coact(self, v):
        self._require(v)
        return self._degree(self._to_internal(v.kind, v.index)[1])


class GClassModule(ReflectionClassModule):
    twist = 0
    support = ConjClass(EVEN_REFLECTIONS)


class GhClassModule(ReflectionClassModule):
    twist = 1
    support = ConjClass(ODD_REFLECTIONS)


class OneClassModule(FiniteClassModule):
    """M over the trivial class: a simple module with deg v = 1 everywhere.

    The coaction is trivial, so the braiding is the flip no matter what the
    module structure is; the action matters for the Yetter-Drinfeld axioms
    and is given by the FinRep matrices.
    """

    def __init__(self, rep: FinRep, label: str = "one-class"):
        check = module_axiom_check(rep)
        if not check.ok:
            raise ValueError(f"rep fails module axioms: {check.witness}")
        self.label = label
        super().__init__(rep, (V1, V2)[:rep.dim],
                         (GroupElement.identity(),) * rep.dim, 1, ConjClass(ONE))

    def __repr__(self):
        return f"OneClassModule({self.label!r}, dim={self.dim})"


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


# kept for the benchmark tracer (perfbench/tracer.py, nichols.braid_evals) and
# the word-level oracle of the tests; braid_equation_check no longer applies it
def braid_word_at(m: YDModule, coeff: Scalar, word: tuple, i: int):
    """Apply the braiding to slots (i, i+1) of a tensor word, 1-indexed."""
    if not 1 <= i <= len(word) - 1:
        raise ValueError(f"braid position {i} out of range for length {len(word)}")
    t = m.braid(word[i - 1], word[i])
    new_word = word[:i - 1] + (t.left, t.right) + word[i + 1:]
    return coeff * t.coeff, new_word


def braid_equation_check(m: YDModule, triples: Iterable[tuple]) -> CheckResult:
    """(c x id)(id x c)(c x id) = (id x c)(c x id)(id x c) on the given triples.

    The triple oracle of the proofs: ``verify`` decides the reflection
    families by ``reflection_braid_check`` and the finite ones by
    ``diagonal_type``.  Each label pair is braided once through ``m.braid``.
    The first triple whose sides differ is the witness, as
    (triple, (lhs coefficient, lhs word), (rhs coefficient, rhs word)) strings.
    """
    braided = {}

    def c(v, w):
        t = braided.get((v, w))
        if t is None:
            t = braided[v, w] = m.braid(v, w)
        return t

    for triple in triples:
        if len(triple) != 3:
            raise ValueError(f"braid equation needs triples, got {triple!r}")
        u, v, w = triple
        # slots 1, 2, 1
        s = c(u, v)
        t = c(s.right, w)
        r = c(s.left, t.left)
        lhs = (s.coeff * t.coeff * r.coeff, (r.left, r.right, t.right))
        # slots 2, 1, 2
        s = c(v, w)
        t = c(u, s.left)
        r = c(t.right, s.right)
        rhs = (s.coeff * t.coeff * r.coeff, (t.left, r.left, r.right))
        if lhs != rhs:
            spelled = [(str(k), tuple(map(str, word))) for k, word in (lhs, rhs)]
            return CheckResult(False, (triple, *spelled))
    return CheckResult(True)


# c(u_j (x) u_k) = rho * u_{2j-k} (x) u_j on the coset basis, as the affine
# forms (a, b, c) = a*j + b*k + c of the two output indices
REFLECTION_BRAID = ((2, -1, 0), (1, 0, 0))


def _affine_braid_sides(braid) -> tuple:
    """Both sides of the braid equation, slots 1, 2, 1 and 2, 1, 2, for the
    affine braiding ``braid`` on the generic word u_i (x) u_j (x) u_k.

    Each slot index is kept as an Affine form in i, j, k and returned as
    its row over (i, j, k, 1), so equal sides are an identity in i, j and
    k, not a sample of them.  Every braid contributes the one factor rho
    whatever the indices, so both sides carry rho^3 and only the rows are
    returned.
    """
    def compose(slots):
        word = Affine.variables("ijk")
        for s in slots:
            x, y = word[s - 1:s + 1]
            word[s - 1:s + 1] = [a * x + b * y + c for a, b, c in braid]
        return tuple(form.row for form in word)

    return compose((1, 2, 1)), compose((2, 1, 2))


# Each kind's first three labels.  They lie on both sides of the one break
# of the label translation (u_0 = a_0, u_-1 = rho b_(t+1)), take in the
# gh-class alias b_1 = rho a_0, and as pairs lie on both sides of the
# closed-form table's branch line 2m - n = t for either twist.
BREAK_LABELS = (A(0), A(1), A(2), B(1), B(2), B(3))


def reported(proof, *args) -> CheckResult:
    """``proof(*args)``, with any exception it raises returned as its
    failure: the module under proof runs inside it, and a corrupted one
    may raise, e.g. by branching on an index it is given as an Affine
    form."""
    try:
        return proof(*args)
    except Exception as exc:
        return CheckResult(False, f"{type(exc).__name__}: {exc}")


def _braid_proof(m: ReflectionClassModule, j: Affine, k: Affine) -> CheckResult:
    deg = m._degree(j)
    composed = Affine(j.names, REFLECTION_BRAID[0])       # 2j - k
    for s in (0, 1):
        got = m._act_pair(deg.reflection, deg.exponent, s, k)
        if got != (s ^ 1, composed):
            spelled = [f"rho^{t} u_({i})" for t, i in ((s, k), got, (s ^ 1, composed))]
            return CheckResult(False, (f"deg(u_j).{spelled[0]}", *spelled[1:]))
    labels = [(v, *m._to_internal(v.kind, v.index)) for v in BREAK_LABELS]
    for v, _, jv in labels:
        for w, sw, kw in labels:
            t = m.braid(v, w)
            coeff, left = m._from_internal(sw ^ 1, 2 * jv - kw)    # the sign bit of s_w rho
            if t.coeff != coeff or t.left != left or t.right != v:
                return CheckResult(False, ((v, w), str(t), str(BraidTerm(coeff, left, v))))
    lhs, rhs = _affine_braid_sides(REFLECTION_BRAID)
    if lhs != rhs:
        return CheckResult(False, (lhs, rhs))
    return CheckResult(True)


def reflection_braid_check(m: ReflectionClassModule) -> CheckResult:
    """The braid equation of a g-class or gh-class module, for all indices.

    coact(u_j) = g h^(t-2j) sends u_k to rho * u_(t-(k+t-2j)), so both
    families braid as c(u_j (x) u_k) = rho * u_(2j-k) (x) u_j on the coset
    basis (REFLECTION_BRAID; the twist t cancels).  The check proves:

    1. that identity in the indices: ``_act_pair`` of ``_degree(j)`` on
       (s, k), the helpers ``act`` and ``coact`` run, is (s xor 1, 2j - k)
       on the Affine forms j and k, for s = 0, 1;
    2. ``m.braid(v, w)`` = (s_w rho) * label(u_(2j-k)) (x) v for the 36
       pairs v = s_v u_j, w = s_w u_k of BREAK_LABELS, each braided once;
    3. composed over (i, j, k, 1), that braiding gives
       rho^3 * u_(2i-2j+k) (x) u_(2i-j) (x) u_i on both sides of the braid
       equation.

    The witness is (name, got, expected) with the composed index of part 1,
    ((v, w), braided, expected) for part 2, the two sides of part 3, or an
    exception's text.  Finite families are rejected: their braiding is of
    diagonal type, which implies the braid equation.
    """
    if not isinstance(m, ReflectionClassModule):
        raise ValueError(f"{m!r} is not a reflection-class module")
    return reported(_braid_proof, m, *Affine.variables("jk"))


def _yd_compat_proof(m: ReflectionClassModule, k: Affine) -> CheckResult:
    g, h = GroupElement.g(), GroupElement.h()
    for v in BREAK_LABELS:
        s, j = m._to_internal(v.kind, v.index)
        if m.coact(v) != m._degree(j):
            return CheckResult(False, (f"deg {v}", str(m.coact(v)), str(m._degree(j))))
        for x in (g, h, h.inverse()):
            got = m.act(x, v)
            want = SignedVector(*m._from_internal(
                *m._act_pair(x.reflection, x.exponent, s, j)))
            if got != (want,):
                return CheckResult(False, (f"{x}.{v}", " + ".join(map(str, got)), str(want)))
    for x in (g, h):
        want = x.conjugate(m._degree(k))
        for s in (0, 1):
            got = m._degree(m._act_pair(x.reflection, x.exponent, s, k)[1])
            if got != want:
                return CheckResult(False, (f"deg({x}.u_k)", str(got), str(want)))
    return CheckResult(True)


def _relations_proof(m: ReflectionClassModule, k: Affine) -> CheckResult:
    for v in ((0, k), (1, k)):
        gv = m._act_pair(1, 0, *v)
        for name, got, want in (
                ("g.(g.v)", m._act_pair(1, 0, *gv), v),
                ("g.(h.(g.v))", m._act_pair(1, 0, *m._act_pair(0, 1, *gv)),
                 m._act_pair(0, -1, *v))):
            if got != want:
                spelled = [f"rho^{s} u_({i})" for s, i in (v, got, want)]
                return CheckResult(False, (f"{name}, v = {spelled[0]}", *spelled[1:]))
    return CheckResult(True)


def _degrees_proof(m: ReflectionClassModule, k: Affine) -> CheckResult:
    # k -> c + a k maps Z onto c + 2Z when a = +-2, and the reflections
    # g h^e with e = c mod 2 are exactly the class of g h^c
    deg = m._degree(k)
    (a, c) = deg.exponent.row
    if deg.reflection != 1 or abs(a) != 2 or not m.support.contains(GroupElement(1, c)):
        return CheckResult(False, f"deg u_k = {deg} does not run over {m.support}")
    return CheckResult(True)


def reflection_yd_check(m: ReflectionClassModule) -> tuple[CheckResult, ...]:
    """The yd facts of a g-class or gh-class module, for all indices:
    yd compatibility, the relations g^2 = 1 and g h g = h^-1, and that
    the coaction degrees are exactly the support class.

    Each fact is proven on the module's own action and coaction on
    (s, k), ``_act_pair`` and ``_degree``, run on the Affine form k:

    * deg(x.u_k) = x deg(u_k) x^-1 for x = g, h, as group elements with
      exponents affine in k; before that, ``m.act`` for x = g, h, h^-1
      and ``m.coact`` are checked to be those helpers on BREAK_LABELS;
    * g.(g.v) = v and g.(h.(g.v)) = h^-1.v, as compositions;
    * deg u_k = g h^(c + a k) with a = +-2 and g h^c in the class.

    Returns the three results in that order; a witness names the label,
    the relation or the degree map, or is the text of an exception the
    module raised.  Finite families are rejected.
    """
    if not isinstance(m, ReflectionClassModule):
        raise ValueError(f"{m!r} is not a reflection-class module")
    (k,) = Affine.variables("k")
    return tuple(reported(proof, m, k)
                 for proof in (_yd_compat_proof, _relations_proof, _degrees_proof))


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

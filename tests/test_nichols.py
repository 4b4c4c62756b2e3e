import math
from fractions import Fraction
from itertools import permutations, product

import pytest

from dinfnichols.field import Scalar
from dinfnichols.linalg import exact_rank, identity, mat_eq, numeric_rank, zeros
from dinfnichols.nichols import (
    DEGREE_CAP,
    GrowthFit,
    HilbertPrefix,
    graded_dims,
    growth_fit,
    quantum_symmetrizer,
)
from dinfnichols.repn import simple_modules
from dinfnichols.ydmod import (
    V2,
    X1,
    X2,
    BraidTerm,
    GClassModule,
    HClassModule,
    OneClassModule,
    YDModule,
    braid_word_at,
)

ORDER = 12


def rat(q):
    return Scalar.from_rational(Fraction(q), ORDER)


def one_class_module(label, lam):
    cand = {c.label: c for c in simple_modules(lam)}[label]
    return OneClassModule(cand.rep, label)


# -- oracle: the definitional symmetrizer, a sum of word-level braid lifts ---
# It braids through ydmod.braid_word_at (coaction then action), so it does
# not share the braiding matrix that the library's engine starts from.

def braid_at(m, i, w):
    """Apply c to letters (i, i+1) of w, 1-indexed; returns (coeff, word)."""
    return braid_word_at(m, Scalar.one(m.order), tuple(w), i)


def reduced_word(p):
    """A reduced word (as 1-based adjacent transposition indices) for p.

    p is in one-line notation; repeatedly removing the first descent yields
    identity = p s_{i_1} ... s_{i_k}, so p = s_{i_k} ... s_{i_1}.
    """
    q = list(p)
    picked = []
    while True:
        i = next((j for j in range(len(q) - 1) if q[j] > q[j + 1]), None)
        if i is None:
            break
        q[i], q[i + 1] = q[i + 1], q[i]
        picked.append(i + 1)
    return tuple(reversed(picked))


def reduced_word_alt(p):
    """An independently chosen reduced word (last descent first)."""
    q = list(p)
    picked = []
    while True:
        i = next((j for j in range(len(q) - 2, -1, -1) if q[j] > q[j + 1]), None)
        if i is None:
            break
        q[i], q[i + 1] = q[i + 1], q[i]
        picked.append(i + 1)
    return tuple(reversed(picked))


def apply_braids(m, positions, w):
    """c_{i1} o ... o c_{ik} applied to w (rightmost first)."""
    coeff, word = Scalar.one(m.order), tuple(w)
    for i in reversed(positions):
        coeff, word = braid_word_at(m, coeff, word, i)
    return coeff, word


def lift_permutation(m, p):
    """Braid lift of a permutation of {1..n}, as a map word -> (coeff, word).

    Braids along reduced_word(p); the braid equation makes the result
    independent of the reduced word.
    """
    if len(p) > DEGREE_CAP:
        raise ValueError(f"degree {len(p)} exceeds the cap {DEGREE_CAP}")
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError(f"{p!r} is not a permutation in one-line notation")
    positions = reduced_word(p)
    return lambda w: apply_braids(m, positions, w)


def word_basis(m, length):
    return list(product(m.basis(), repeat=length))


def quantum_symmetrizer_naive(m, degree):
    """The definitional n!-term sum of braid lifts."""
    words = word_basis(m, degree)
    index = {w: k for k, w in enumerate(words)}
    out = zeros(len(words), len(words), m.order)
    for p in permutations(range(1, degree + 1)):
        lift = lift_permutation(m, p)
        for k, w in enumerate(words):
            coeff, image = lift(w)
            out[index[image]][k] = out[index[image]][k] + coeff
    return out


class Stub(YDModule):
    """A finite test-only module on x1, x2; subclasses give the braiding."""

    dim = 2
    order = ORDER

    def basis(self):
        return [X1, X2]


class DiagonalStub(Stub):
    """c(x_i (x) x_j) = q_ij x_j (x) x_i for any q.

    The families of the library all have symmetric q with q_11 = q_22; a
    generic q shows transposed or mislabelled braiding entries.
    """

    def __init__(self, q):
        self.q = q

    def braid(self, v, w):
        i, j = self.basis().index(v), self.basis().index(w)
        return BraidTerm(self.q[i][j], w, v)


class FlipFreeStub(Stub):
    """c(v (x) w) = v (x) w: monomial, but not diagonal."""

    def braid(self, v, w):
        return BraidTerm(Scalar.one(ORDER), v, w)


class Reversed(YDModule):
    """m with its basis listed in reverse order; the braiding is m's.

    Letter i of the Nichols layer is basis()[i], so (q_ij) is read in the
    reversed order; for GENERIC_Q that is a different, still generic q.
    """

    def __init__(self, m):
        self.m, self.dim, self.order = m, m.dim, m.order

    def basis(self):
        return list(reversed(self.m.basis()))

    def braid(self, v, w):
        return self.m.braid(v, w)


GENERIC_Q = DiagonalStub([[rat(2), rat(3)], [rat(-1), Scalar.zeta(12)]])


def test_braid_at_examples():
    m = HClassModule(1, rat(2))
    coeff, word = braid_at(m, 1, (X1, X2))
    assert coeff == rat("1/2") and word == (X2, X1)
    m1 = one_class_module("s0+", rat(0))
    coeff, word = braid_at(m1, 1, (V2, V2))
    assert coeff == Scalar.one(ORDER) and word == (V2, V2)
    with pytest.raises(ValueError):
        braid_at(m, 2, (X1, X2))


def test_reduced_words():
    assert reduced_word((1, 2, 3)) == ()
    assert reduced_word((2, 1)) == (1,)
    w = reduced_word((3, 2, 1))
    assert len(w) == 3  # longest element of S_3
    for p in permutations(range(1, 5)):
        w1, w2 = reduced_word(p), reduced_word_alt(p)
        inv = sum(1 for i in range(4) for j in range(i + 1, 4) if p[i] > p[j])
        assert len(w1) == len(w2) == inv


def test_lift_permutation_reduced_word_independent():
    mods = [HClassModule(1, rat(2)), HClassModule(1, Scalar.zeta(12, 4)), GClassModule("sign")]
    for m in mods:
        if m.dim is None:
            continue
        for n in (2, 3, 4):
            for p in permutations(range(1, n + 1)):
                lift, alt = lift_permutation(m, p), reduced_word_alt(p)
                for word in word_basis(m, n):
                    assert lift(word) == apply_braids(m, alt, word)


def test_lift_identity_and_transposition():
    m = HClassModule(1, rat(2))
    ident = lift_permutation(m, (1, 2))
    for word in word_basis(m, 2):
        c, out = ident(word)
        assert c == Scalar.one(ORDER) and out == word
    swap = lift_permutation(m, (2, 1))
    c, out = swap((X1, X2))
    assert c == rat("1/2") and out == (X2, X1)


def test_lift_permutation_validation():
    m = HClassModule(1, rat(1))
    with pytest.raises(ValueError):
        lift_permutation(m, (1, 1))
    with pytest.raises(ValueError):
        lift_permutation(m, tuple(range(1, DEGREE_CAP + 2)))  # past the cap


def test_symmetrizer_degree2_is_id_plus_c():
    for m in (HClassModule(1, rat(1)), HClassModule(1, rat(-1)), HClassModule(2, rat(2)),
              one_class_module("s0+", rat(0))):
        sym = quantum_symmetrizer(m, 2)
        words = word_basis(m, 2)
        expect = identity(len(words), ORDER)
        for k, w in enumerate(words):
            coeff, out = braid_at(m, 1, w)
            row = words.index(out)
            expect[row][k] = expect[row][k] + coeff
        assert mat_eq(sym, expect)


def test_symmetrizer_matches_naive_sum():
    mods = (HClassModule(1, rat(2)), HClassModule(1, Scalar.zeta(12, 4)),
            one_class_module("s0+", rat(0)), GENERIC_Q)
    for m in mods + tuple(Reversed(m) for m in mods):
        for n in (2, 3, 4):
            assert mat_eq(quantum_symmetrizer(m, n),
                          quantum_symmetrizer_naive(m, n))


def test_symmetrizer_zero_off_content_blocks():
    for m in (HClassModule(1, rat(2)), HClassModule(1, Scalar.zeta(12, 4)),
              one_class_module("s0+", rat(0)), GENERIC_Q):
        for n in (3, 5):
            words = list(product(range(2), repeat=n))
            sym = quantum_symmetrizer(m, n)
            for i, u in enumerate(words):
                for k, w in enumerate(words):
                    if sorted(u) != sorted(w):
                        assert sym[i][k].is_zero(), (m, u, w)


def test_symmetrizer_rank_examples():
    m = HClassModule(1, rat(1))
    assert exact_rank(quantum_symmetrizer(m, 2)) == 3
    # q = -1 on the diagonal kills both x1x1 and x2x2, and the two mixed
    # columns are opposite, so the rank at degree 2 is 1
    m = HClassModule(1, rat(-1))
    assert exact_rank(quantum_symmetrizer(m, 2)) == 1


def test_graded_dims_examples():
    m = HClassModule(1, rat(1))
    assert list(graded_dims(m, 5)) == [1, 2, 3, 4, 5, 6]
    m = HClassModule(1, rat(-1))
    assert list(graded_dims(m, 5)) == [1, 2, 1, 0, 0, 0]
    m = one_class_module("slam+", rat(2))
    assert list(graded_dims(m, 4)) == [1, 1, 1, 1, 1]


def test_graded_dims_binomials_for_trivial_braiding():
    m2 = one_class_module("s0+", rat(0))   # 2-dim, all q_ij = 1
    dims = list(graded_dims(m2, 5))
    assert dims == [math.comb(n + 1, n) for n in range(6)]
    m1 = one_class_module("slam+", rat(2))  # 1-dim
    assert list(graded_dims(m1, 5)) == [math.comb(n, n) for n in range(6)]


def test_graded_dims_invariant_under_renumbering():
    for m in (HClassModule(1, rat(2)), one_class_module("s0+", rat(0)), GENERIC_Q):
        assert list(graded_dims(m, 4)) == list(graded_dims(Reversed(m), 4))


def test_graded_dims_degree7_closed_forms():
    # a not a root of unity of order <= 7: B(V) = U_q^+(A1^(1)), series
    # prod_{m odd} (1 - t^m)^-2 prod_{m even} (1 - t^m)^-1
    for a in (rat(2), Scalar.zeta(12)):
        assert list(graded_dims(HClassModule(1, a), 7)) == [1, 2, 4, 8, 14, 24, 40, 64]
    # no closed form for a = z^4 (order 3); the float SVD rank is the oracle
    # here, but not for a = 2, where it is ill-conditioned at degree 7
    m = HClassModule(1, Scalar.zeta(12, 4))
    top = numeric_rank(quantum_symmetrizer(m, 7))
    assert top == 36 and graded_dims(m, 7)[7] == top


def test_graded_dims_rejects_non_diagonal():
    with pytest.raises(ValueError):
        graded_dims(FlipFreeStub(), 2)
    with pytest.raises(ValueError):
        quantum_symmetrizer(FlipFreeStub(), 2)


def test_graded_dims_rejects_infinite_and_past_cap():
    with pytest.raises(ValueError):
        graded_dims(GClassModule("sign"), 3)
    with pytest.raises(ValueError):
        graded_dims(HClassModule(1, rat(1)), 9)
    with pytest.raises(ValueError):
        quantum_symmetrizer(HClassModule(1, rat(1)), 9)
    assert list(graded_dims(HClassModule(1, rat(-1)), 8))[-1] == 0


def test_exact_rank_matches_numeric_rank():
    for m in (HClassModule(1, rat(1)), HClassModule(1, rat(-1)), HClassModule(1, rat(2)),
              HClassModule(1, Scalar.zeta(12, 4))):
        for n in (2, 3, 4):
            sym = quantum_symmetrizer(m, n)
            assert exact_rank(sym) == numeric_rank(sym)


def test_hilbert_prefix_validation():
    with pytest.raises(ValueError):
        HilbertPrefix((0, 2))
    with pytest.raises(ValueError):
        HilbertPrefix((1, -1))
    p = HilbertPrefix((1, 2, 3))
    assert p[1] == 2 and len(p) == 3


def test_growth_fit_examples():
    assert growth_fit([1, 2, 3, 4, 5, 6]) == GrowthFit("PolynomialDegree", 2)
    assert growth_fit([1, 2, 1, 0, 0, 0]) == GrowthFit("TerminatesAt", 3)
    assert growth_fit([1, 2, 4, 8, 16]) == GrowthFit("SuperPolynomialSuspected")
    assert growth_fit([1, 1, 1, 1, 1]) == GrowthFit("PolynomialDegree", 1)
    assert growth_fit([1, 2, 3, 4, 5, 6, 7]) == GrowthFit("PolynomialDegree", 2)
    with pytest.raises(ValueError):
        growth_fit([1, 2, 3])
    # short zero tail or resurrection: no verdict
    assert growth_fit([1, 2, 3, 0]).kind == "Inconclusive"
    assert growth_fit([1, 2, 0, 0, 3, 0, 0, 0]).kind == "Inconclusive"


def test_growth_fit_str():
    assert str(GrowthFit("PolynomialDegree", 2)) == "PolynomialDegree(2)"
    assert str(GrowthFit("SuperPolynomialSuspected")) == "SuperPolynomialSuspected"

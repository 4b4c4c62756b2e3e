import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest

from dinfnichols import linalg, nichols
from dinfnichols.classify import default_grid, enumerate_families
from dinfnichols.field import INTEGERS, Scalar, cyclotomic_ring, real_ring
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
    V1,
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
    """c(x_i (x) x_j) = q_ij x_j (x) x_i for any 2 x 2 or 3 x 3 q.

    The families of the library all have symmetric q with q_11 = q_22; a
    generic q shows transposed or mislabelled braiding entries.  Three
    letters are x1, x2, v1; no family of the library has three.
    """

    def __init__(self, q):
        self.q, self.dim = q, len(q)

    def basis(self):
        return [X1, X2, V1][:self.dim]

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
# symmetric, but q_11 = -1 kills x1^2 and q_22 = 2 does not, so the blocks
# (k, n-k) and (n-k, k) differ: swapping the letters does not fix q
UNMIRRORED_Q = DiagonalStub([[rat(-1), rat(3)], [rat(3), rat(2)]])
# rational, not symmetric, not mirrored, with distinct denominators, and
# with prefixes: a q_ii = -1 gives the symmetrizer a kernel from degree 2 on
RATIONAL_Q = {
    DiagonalStub([[rat(2), rat("1/3")], [rat("3/4"), rat(-1)]]): [1, 2, 3, 5, 7, 9, 11],
    DiagonalStub([[rat(-1), rat("5/7")], [rat("-7/5"), rat("3/2")]]): [1, 2, 3, 5, 8, 13, 21],
}


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


def test_graded_dims_matches_symmetrizer_rank():
    # the image recursion against the rank of the full symmetrizer matrix
    mods = [i.module for i in enumerate_families(default_grid()) if i.module.dim is not None]
    mods += [HClassModule(1, a) for a in (rat("3/2"), Scalar.zeta(12), Scalar.zeta(12, 4))]
    mods += [GENERIC_Q, Reversed(GENERIC_Q), UNMIRRORED_Q, *RATIONAL_Q]
    for m in mods:
        expect = [1] + [exact_rank(quantum_symmetrizer(m, n)) for n in range(1, 7)]
        assert list(graded_dims(m, 6)) == expect, m
    for m, dims in RATIONAL_Q.items():
        assert list(graded_dims(m, 6)) == dims


def test_graded_dims_three_letters():
    # all q_ij = 1: the polynomial algebra in three variables; all -1 and a
    # twisted rational q with q_ii = -1 and q_ij q_ji = 1: the exterior algebra
    ones = [[rat(1)] * 3 for _ in range(3)]
    minus = [[rat(-1)] * 3 for _ in range(3)]
    twisted = [[rat(-1), rat(2), rat("1/3")],
               [rat("1/2"), rat(-1), rat(-5)],
               [rat(3), rat("-1/5"), rat(-1)]]
    exterior = [math.comb(3, n) for n in range(7)]
    for q, closed in ((ones, [math.comb(n + 2, 2) for n in range(7)]),
                      (minus, exterior), (twisted, exterior)):
        m = DiagonalStub(q)
        assert list(graded_dims(m, 6)) == closed
        assert closed[1:5] == [exact_rank(quantum_symmetrizer(m, n)) for n in range(1, 5)]


def test_rational_braidings_skip_scalar_elimination(monkeypatch):
    # every braiding runs the recursion on integer rows, over Z when every
    # q_ij is rational and over Z[zeta_N] otherwise; neither calls the
    # Scalar elimination, which stays the oracle
    dims = {HClassModule(1, rat(2)): [1, 2, 4, 8, 14, 24, 40],
            UNMIRRORED_Q: [1, 2, 3, 5, 8, 13, 21],
            one_class_module("s0+", rat(0)): [1, 2, 3, 4, 5, 6, 7],
            HClassModule(1, Scalar.zeta(12)): [1, 2, 4, 8, 14, 24, 40],
            HClassModule(1, Scalar.zeta(12, 4)): [1, 2, 4, 6, 10, 16, 24],
            HClassModule(1, Scalar.parse("1/2+z", 12)): [1, 2, 4, 8, 14, 24, 40],
            GENERIC_Q: [1, 2, 4, 8, 16, 32, 64]}

    def refuse(a):
        raise AssertionError("Scalar elimination in graded_dims")

    monkeypatch.setattr(linalg, "echelon_rows", refuse)
    for m, expect in dims.items():
        assert list(graded_dims(m, 6)) == expect, m


# Hilbert prefixes through degree 8, computed by the Scalar elimination
# over Q(zeta_N) before the integer route covered cyclotomic braidings
PINNED_H_CLASS = {
    "z": (1, 2, 4, 8, 14, 24, 40, 64, 100),
    "z^2": (1, 2, 4, 8, 14, 24, 37, 58, 88),
    "z^3": (1, 2, 4, 8, 11, 18, 28, 40, 60),
    "z^4": (1, 2, 4, 6, 10, 16, 24, 36, 52),
    "z^5": (1, 2, 4, 8, 14, 24, 40, 64, 100),
    "-z": (1, 2, 4, 8, 14, 24, 40, 64, 100),
    "z^2+z": (1, 2, 4, 8, 14, 24, 40, 64, 100),
    "1/2+z": (1, 2, 4, 8, 14, 24, 40, 64, 100),
}
PINNED_Z_BY_ORDER = {
    5: (1, 2, 4, 8, 14, 22, 36, 56, 84),
    7: (1, 2, 4, 8, 14, 24, 40, 62, 96),
    8: (1, 2, 4, 8, 14, 24, 40, 64, 97),
    9: (1, 2, 4, 8, 14, 24, 40, 64, 100),
}


def test_graded_dims_pinned_cyclotomic_prefixes():
    for a, dims in PINNED_H_CLASS.items():
        for n in (1, 2):
            assert tuple(graded_dims(HClassModule(n, Scalar.parse(a, ORDER)), 8)) == dims, (a, n)
    for order, dims in PINNED_Z_BY_ORDER.items():
        assert tuple(graded_dims(HClassModule(1, Scalar.zeta(order)), 8)) == dims, order
    assert tuple(graded_dims(GENERIC_Q, 8)) == tuple(2 ** n for n in range(9))


# braidings that lie in a proper subfield of Q(zeta_N), pinned from the
# route that found their field by Phi_N(x) = Phi_{N/k}(x^k) or not at all
PINNED_SUBFIELD = {
    ("z^9", 12): PINNED_H_CLASS["z^3"],
    ("z^5", 15): (1, 2, 4, 6, 10, 16, 24, 36, 52),
    ("z^10", 15): (1, 2, 4, 6, 10, 16, 24, 36, 52),
    ("z^3", 15): (1, 2, 4, 8, 14, 22, 36, 56),
}


def test_graded_dims_runs_in_the_least_cyclotomic_subring(monkeypatch):
    # each input with the order M of its field (the gcd rule of _subfield)
    # and the ring its rows run on (_ring).  The h-class at a root of unity
    # is unitary and runs over the real subfield: z at N = 12 over Z[w] with
    # w = z + z^-1, w^2 = 3 (two planes instead of four), and z^3 at N = 15
    # over the degree-4 real subfield of Q(zeta_15) (four instead of eight).
    # Every cube, fourth and sixth root of unity runs on plain integers, as
    # Q(zeta_M)^+ = Q for M = 3, 4, 6: z^4 and z^2 at N = 12 (M = 6), z^3 at
    # N = 9, z at N = 3, z^5 and z^10 at N = 15 (M = 3) and z^3, z^9 at
    # N = 12 (+-i, M = 4); the cube roots give the series of z^4 itself.  1/2 + z is not
    # unitary and keeps all of Z[zeta_12]; a = 2 is rational, M = 1.  z^3 at
    # N = 15 is a primitive 5th root, but its inverse z^12 has exponents off
    # the multiples of 3, so the gcd rule keeps M = 15 (its known limit)
    rings = []
    kernel = linalg.primitive_echelon_rows

    def record(a, ring=INTEGERS, reduced=True):
        rings.append(ring)
        return kernel(a, ring, reduced)

    assert real_ring(12).degree == 2 and real_ring(12).wrap == ((0, 3),)
    assert real_ring(15).degree == 4
    monkeypatch.setattr(linalg, "primitive_echelon_rows", record)
    for a, order, field, ring in (
            ("z^4", 12, 6, INTEGERS), ("z^3", 9, 3, INTEGERS), ("z", 3, 3, INTEGERS),
            ("z^2", 12, 6, INTEGERS), ("z", 12, 12, real_ring(12)),
            ("1/2+z", 12, 12, cyclotomic_ring(12)), ("z^3", 12, 4, INTEGERS),
            ("z^9", 12, 4, INTEGERS), ("z^5", 15, 3, INTEGERS), ("z^10", 15, 3, INTEGERS),
            ("z^3", 15, 15, real_ring(15)), ("2", 12, 1, INTEGERS)):
        rings.clear()
        pinned = PINNED_SUBFIELD.get((a, order))
        degree = 7 if pinned is None else len(pinned) - 1
        m = HClassModule(1, Scalar.parse(a, order))
        assert nichols._ring(nichols._braiding_matrix(m), order)[0] == field, (a, order)
        dims = graded_dims(m, degree)
        assert rings and all(r == ring for r in rings), (a, order)
        if pinned is not None:
            assert tuple(dims) == pinned, (a, order)
        if field == 3:
            assert tuple(dims) == PINNED_H_CLASS["z^4"][:degree + 1]


@pytest.mark.parametrize("order", (5, 8, 9, 12, 15, 16, 24))
def test_subfield_numerators_spread_back_to_the_scalar(order):
    # each q_ij of _subfield is phi(M) ints over the powers of z^e, e = N/M,
    # which spread over the exponents j e give v.nums back, zero-padded;
    # for every q_ij of the pinned modules and random elements of Z[z^e]
    # (sums of z^(j e) below phi(N), and reduced sums of z^(j e), j < phi(M))
    phi = len(Scalar.one(order).nums)
    rng = random.Random(order)
    values = []
    if order == ORDER:
        modules = [HClassModule(n, Scalar.parse(a, ORDER)) for a in PINNED_H_CLASS for n in (1, 2)]
        modules += [HClassModule(1, Scalar.parse(a, ORDER)) for a in ("1", "-1", "2", "1/2")]
        modules += [GENERIC_Q, UNMIRRORED_Q]
        values += [v for m in modules for row in nichols._braiding_matrix(m) for v in row]
    for a, o in list(PINNED_SUBFIELD) + [("z", o) for o in PINNED_Z_BY_ORDER]:
        if o == order:
            values += [v for row in nichols._braiding_matrix(HClassModule(1, Scalar.parse(a, o)))
                       for v in row]
    for e in [e for e in range(1, order + 1) if order % e == 0]:
        small = len(Scalar.one(order // e).nums)
        for _ in range(6):
            den = rng.randint(1, 4)
            sparse = [0] * phi
            sparse[::e] = [rng.randint(-3, 3) for _ in range(0, phi, e)]
            values.append(Scalar(order, [Fraction(c, den) for c in sparse]))
            values.append(sum((rng.randint(-3, 3) * Scalar.zeta(order, j * e)
                               for j in range(small)), Scalar.zero(order)))
    assert values
    for v in values:
        big, [[nums]] = nichols._subfield([[v]], order)
        assert order % big == 0 and len(nums) == len(Scalar.one(big).nums), v
        e = order // big
        spread = [0] * (len(nums) * e)
        spread[::e] = nums
        assert spread[:phi] == list(v.nums) and not any(spread[phi:]), v


def test_graded_dims_under_python_O():
    # no assert statement guards the integer routes: under -O the pinned
    # prefixes, the rings of the real form (z: 2 planes, z^3 and z^4: 1,
    # zeta_7: 3) and the field inverse come out the same
    script = (
        "from dinfnichols import nichols\n"
        "from dinfnichols.field import Scalar\n"
        "from dinfnichols.ydmod import HClassModule\n"
        "for a, order in (('z', 12), ('z^3', 12), ('z^4', 12), ('z', 7)):\n"
        "    m = HClassModule(1, Scalar.parse(a, order))\n"
        "    ring = nichols._ring(nichols._braiding_matrix(m), order)[2]\n"
        "    print(a, order, ring.degree, tuple(nichols.graded_dims(m, 7)))\n"
        "x = Scalar.parse('1/2+z-3z^3', 12)\n"
        "print(x.inverse() * x == Scalar.one(12), x.inverse().inverse() == x)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == [f"z 12 2 {PINNED_H_CLASS['z'][:8]}",
                                f"z^3 12 1 {PINNED_H_CLASS['z^3'][:8]}",
                                f"z^4 12 1 {PINNED_H_CLASS['z^4'][:8]}",
                                f"z 7 3 {PINNED_Z_BY_ORDER[7][:8]}",
                                "True True"]


# -- the real form: unitary braidings run over Q(zeta_M)^+ ----------------------

UNITARY = {
    "z": True, "z^5": True, "z^4": True, "-z": True,
    "1/2+z": False, "z^2+z": False, "2": False,
}
# unitary, not symmetric: sigma(q_12) q_21 = 2 . 1/2 = 1
SKEW_UNITARY_Q = DiagonalStub([[Scalar.zeta(12), rat(2)], [rat("1/2"), Scalar.zeta(12, 5)]])


def test_unitary_predicate_truth_table():
    for a, unitary in UNITARY.items():
        q = nichols._braiding_matrix(HClassModule(1, Scalar.parse(a, ORDER)))
        assert nichols._unitary(q) is unitary, a
    assert nichols._unitary(nichols._braiding_matrix(SKEW_UNITARY_Q)) is True
    assert nichols._unitary(nichols._braiding_matrix(GENERIC_Q)) is False


def full_route_rows(monkeypatch, m, degree):
    """(M, the reduced rows of every block) of graded_dims(m, degree) on the
    full Z[zeta_M] route, the unitary predicate patched to False."""
    kept = []
    kernel = linalg.primitive_echelon_rows

    def record(a, ring=INTEGERS, reduced=True):
        out = kernel(a, ring, reduced)
        if reduced:
            kept.append((ring.degree, out))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(nichols, "_unitary", lambda q: False)
        patch.setattr(linalg, "primitive_echelon_rows", record)
        graded_dims(m, degree)
    return nichols._subfield(nichols._braiding_matrix(m), m.order)[0], kept


@pytest.mark.parametrize("order", (5, 7, 8, 9, 12, 15))
def test_full_route_rows_are_fixed_by_complex_conjugation(monkeypatch, order):
    # the lemma of graded_dims: for a = zeta_N^j every reduced echelon row
    # of the full Z[zeta_M] route, to degree 7, lies in Q(zeta_M)^+
    for j in range(1, order // 2 + 1):
        if 2 * j % order == 0:
            continue
        field, kept = full_route_rows(monkeypatch, HClassModule(1, Scalar.zeta(order, j)), 7)
        assert any(planes > 1 for planes, _ in kept), (order, j)
        for planes, rows in kept:
            for row in rows:
                width = len(row) // planes
                for k in range(width):
                    x = Scalar(field, row[k::width]) if planes > 1 else Scalar(field, [row[k]])
                    assert x.conjugate() == x, (order, j, row)


def test_real_form_dims_equal_the_full_route(monkeypatch):
    # a seeded sweep over roots a = zeta_N^j, 3 <= N <= 24, a^2 != 1, and the
    # skew unitary q: the real form gives the dims of the full Z[zeta_M] route
    rng = random.Random(23)
    roots = [(order, j) for order in range(3, 25) for j in range(1, order) if 2 * j % order]
    cases = [HClassModule(1, Scalar.zeta(order, j)) for order, j in rng.sample(roots, 12)]
    for m in cases + [SKEW_UNITARY_Q]:
        q = nichols._braiding_matrix(m)
        assert nichols._unitary(q)
        real = tuple(graded_dims(m, 7))
        with monkeypatch.context() as patch:
            patch.setattr(nichols, "_unitary", lambda q: False)
            assert tuple(graded_dims(m, 7)) == real, m


def test_graded_dims_degree8():
    # U_q^+(A1^(1)) through degree 8; no SVD check for a = 2, where the
    # float rank is ill-conditioned (it reads 65 at degree 8)
    for a in (rat(2), rat("3/2")):
        assert list(graded_dims(HClassModule(1, a), 8)) == [1, 2, 4, 8, 14, 24, 40, 64, 100]
    m = HClassModule(1, Scalar.zeta(12, 4))
    assert list(graded_dims(m, 8)) == [1, 2, 4, 6, 10, 16, 24, 36, 52]
    assert numeric_rank(quantum_symmetrizer(m, 8)) == 52


def test_graded_dims_rejects_negative_degree():
    m = HClassModule(1, rat(2))
    assert list(graded_dims(m, 0)) == [1]
    with pytest.raises(ValueError):
        graded_dims(m, -3)


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

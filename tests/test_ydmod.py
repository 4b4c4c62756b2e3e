import copy
import dataclasses
import itertools
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from dinfnichols.field import Scalar
from dinfnichols.group import GroupElement, conj_class_of
from dinfnichols.linalg import identity, mat_mul
from dinfnichols.repn import FinRep, simple_modules
from dinfnichols import tables, verify
from dinfnichols.tables import braiding_table_check
from dinfnichols.verify import _sample_modules
from dinfnichols.ydmod import (
    A,
    B,
    BasisVector,
    BraidTerm,
    GClassModule,
    GhClassModule,
    HClassModule,
    OneClassModule,
    REFLECTION_BRAID,
    Affine,
    BREAK_LABELS,
    ReflectionClassModule,
    SignedVector,
    V1,
    V2,
    X1,
    X2,
    _affine_braid_sides,
    braid_equation_check,
    braid_word_at,
    diagonal_type,
    reflection_braid_check,
    reflection_yd_check,
    yd_compat_check,
)

ORDER = 12
g = GroupElement.g()
h = GroupElement.h()


def rat(q):
    return Scalar.from_rational(Fraction(q), ORDER)


def one_class_module(label, lam):
    cand = {c.label: c for c in simple_modules(lam)}[label]
    assert cand.axiom.ok
    return OneClassModule(cand.rep, label)


def all_finite_modules():
    mods = [HClassModule(n, a) for n in (1, 2) for a in (rat(1), rat(-1), rat(2),
                                                    Scalar.zeta(12, 4))]
    mods += [one_class_module("s0+", rat(0)), one_class_module("s0-", rat(0)),
             one_class_module("slam+", rat(2)), one_class_module("slam-", rat(-2))]
    return mods


def all_infinite_modules():
    return [GClassModule("sign"), GClassModule("eps"), GhClassModule("sign"), GhClassModule("eps")]


def test_basis_vector_validation():
    with pytest.raises(ValueError):
        B(0)
    with pytest.raises(ValueError):
        A(-1)
    with pytest.raises(ValueError):
        BasisVector("q", 1)
    assert str(A(3)) == "a3" and str(X1) == "x1"


def test_braid_dataclasses_have_slots_and_round_trip():
    one = Scalar.one(ORDER)
    values = [A(3), B(2), X1, V2, SignedVector(-one, B(4)),
              BraidTerm(Scalar.zeta(ORDER), A(0), B(1)), GroupElement(1, -3)]
    for x in values:
        assert not hasattr(x, "__dict__")
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert y == x and hash(y) == hash(x)
        for field in dataclasses.fields(x):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(x, field.name, getattr(x, field.name))
        # a name that is no field is refused the same way (an AttributeError)
        with pytest.raises(dataclasses.FrozenInstanceError):
            x.extra = 1
    assert A(3) == BasisVector("a", 3) and A(3) != B(3)
    assert len({A(3), BasisVector("a", 3), B(3)}) == 2
    with pytest.raises(ValueError):
        SignedVector(Scalar.zero(ORDER), A(1))
    with pytest.raises(ValueError):
        BasisVector("x1", 2)


def test_labels_are_interned():
    for k in range(12):
        assert A(k) is A(k) and B(k + 1) is B(k + 1)
    # direct construction still validates and compares equal
    assert BasisVector("a", 3) is not A(3) and BasisVector("a", 3) == A(3)
    # a failed label is never stored: it raises on every call
    for _ in range(3):
        with pytest.raises(ValueError):
            A(-1)
        with pytest.raises(ValueError):
            B(0)


@pytest.mark.parametrize("cls", [GClassModule, GhClassModule])
@pytest.mark.parametrize("rep", ["sign", "eps"])
def test_reflection_action_matches_closed_form(cls, rep):
    # on the coset basis: h^s.u_k = u_(k+s), g.u_k = rho u_(t-k) and
    # deg u_k = g h^(t-2k), where a_m = u_m and b_n = rho u_(t-n)
    m, t = cls(rep), cls.twist
    one = Scalar.one(ORDER)
    rho = one if rep == "eps" else -one

    def coset(v):
        # v = c u_k as (c, k)
        return (one, v.index) if v.kind == "a" else (rho, t - v.index)

    def label(c, k):
        # c u_k as its one (coefficient, label) term
        return [(c, A(k))] if k >= 0 else [(c * rho, B(t - k))]

    for v in m.basis_window(8):
        c, k = coset(v)
        for s in range(-10, 11):
            assert [(x.coeff, x.vec) for x in m.act(GroupElement.h(s), v)] \
                == label(c, k + s), (v, s)
        assert [(x.coeff, x.vec) for x in m.act(g, v)] == label(c * rho, t - k), v
        assert m.coact(v) == GroupElement(1, t - 2 * k), v


def test_finite_actions_match_direct_matrix_products():
    # the action a finite module builds once per group element against
    # G^e H^q multiplied out here (H^-1 = G H G), on a first and a
    # repeated call; a rotation off <h^step> raises before and after
    for m in (x for x in _sample_modules() if x.dim is not None):
        basis = m.basis()
        G, H = m.rep.G, m.rep.H
        h_inv = mat_mul(mat_mul(G, H), G)
        off_step = [GroupElement(e, m.step + 1) for e in (0, 1)] if m.step > 1 else []
        for x in off_step:
            with pytest.raises(ValueError):
                m.act(x, basis[0])
        for e, q in itertools.product((0, 1), range(-3, 4)):
            x = GroupElement(e, m.step * q)
            mat = identity(m.dim, ORDER)
            for _ in range(abs(q)):
                mat = mat_mul(H if q > 0 else h_inv, mat)
            if e:
                mat = mat_mul(G, mat)
            for j, v in enumerate(basis):
                expected = [(row[j], w) for row, w in zip(mat, basis) if not row[j].is_zero()]
                for _ in range(2):
                    assert [(t.coeff, t.vec) for t in m.act(x, v)] == expected, (m, x, v)
        for x in off_step:
            for v in basis:
                with pytest.raises(ValueError):
                    m.act(x, v)


def test_act_examples():
    mg = GClassModule("sign")
    assert [str(t) for t in mg.act(h, B(1))] == ["(-1)*a0"]
    mh = HClassModule(2, rat(2))
    (t,) = mh.act(GroupElement.h(2), X1)
    assert t.coeff == rat(2) and t.vec == X1
    for m in all_finite_modules() + all_infinite_modules():
        v = m.basis()[0] if m.dim is not None else A(0)
        assert [ (t.coeff, t.vec) for t in m.act(GroupElement.identity(), v) ] \
            == [(Scalar.one(ORDER), v)]


def test_act_rejects_foreign_vectors_and_bad_exponents():
    mh = HClassModule(2, rat(2))
    with pytest.raises(ValueError):
        mh.act(h, A(0))
    with pytest.raises(ValueError):
        mh.act(h, X1)  # h^1 needs a square root of a = 2
    mg = GClassModule("sign")
    with pytest.raises(ValueError):
        mg.act(h, X1)


def test_action_generator_tables_g_class():
    # sign: g.a0 = -a0, g.an = bn, g.bn = an, h.an = a_{n+1},
    #       h.bn = b_{n-1} (n >= 2), h.b1 = -a0
    m = GClassModule("sign")
    assert [str(t) for t in m.act(g, A(0))] == ["(-1)*a0"]
    assert [str(t) for t in m.act(g, A(3))] == ["(1)*b3"]
    assert [str(t) for t in m.act(g, B(3))] == ["(1)*a3"]
    assert [str(t) for t in m.act(h, A(3))] == ["(1)*a4"]
    assert [str(t) for t in m.act(h, B(3))] == ["(1)*b2"]
    m = GClassModule("eps")
    assert [str(t) for t in m.act(g, A(0))] == ["(1)*a0"]
    assert [str(t) for t in m.act(h, B(1))] == ["(1)*a0"]


def test_action_generator_tables_gh_class():
    # sign: g.a0 = -a1, h.b1 = -a1
    m = GhClassModule("sign")
    assert [str(t) for t in m.act(g, A(0))] == ["(-1)*a1"]
    assert [str(t) for t in m.act(h, B(1))] == ["(-1)*a1"]
    assert [str(t) for t in m.act(g, A(2))] == ["(1)*b2"]
    assert [str(t) for t in m.act(h, B(3))] == ["(1)*b2"]
    m = GhClassModule("eps")
    assert [str(t) for t in m.act(g, A(0))] == ["(1)*a1"]
    assert [str(t) for t in m.act(h, B(1))] == ["(1)*a1"]


def test_coact_examples():
    mg = GClassModule("sign")
    assert mg.coact(A(0)) == g
    assert mg.coact(A(3)) == GroupElement(1, -6)     # h^6 g in normal form
    assert mg.coact(B(2)) == GroupElement(1, 4)      # g h^4
    mgh = GhClassModule("eps")
    assert mgh.coact(A(3)) == GroupElement(1, -5)    # h^5 g
    assert mgh.coact(A(0)) == g * h
    assert mgh.coact(B(1)) == g * h                  # alias of a0's degree
    mh = HClassModule(2, rat(1))
    assert mh.coact(X1) == GroupElement.h(2)
    assert mh.coact(X2) == GroupElement.h(-2)
    m1 = one_class_module("s0+", rat(0))
    assert m1.coact(V1) == GroupElement.identity()


def test_braid_examples():
    mg = GClassModule("sign")
    t = mg.braid(A(2), B(3))
    assert (str(t.coeff), str(t.left), str(t.right)) == ("1", "a7", "a2")
    mgh = GhClassModule("sign")
    t = mgh.braid(A(0), A(0))
    # equals b1 (x) a0 under the alias b1 = -a0; canonical form -a0 (x) a0
    assert (str(t.coeff), str(t.left), str(t.right)) == ("-1", "a0", "a0")
    mh = HClassModule(1, rat(2))
    t = mh.braid(X1, X2)
    assert t.coeff == rat("1/2") and t.left == X2 and t.right == X1
    m1 = one_class_module("s0+", rat(0))
    t = m1.braid(V1, V2)
    assert t.coeff == Scalar.one(ORDER) and t.left == V2 and t.right == V1


def test_yd_compat():
    mg = GClassModule("sign")
    assert yd_compat_check(mg, h, A(0))
    mh = HClassModule(1, rat(2))
    assert yd_compat_check(mh, g, X1)
    for m in all_infinite_modules():
        for x in (g, h):
            for v in m.basis_window(20):
                assert yd_compat_check(m, x, v)
    for m in all_finite_modules():
        rot = GroupElement.h(m.step)
        for x in (g, rot):
            for v in m.basis():
                assert yd_compat_check(m, x, v)


def test_action_respects_relations_window():
    ident = GroupElement.identity()
    for m in all_infinite_modules():
        for v in m.basis_window(20):
            (gv,) = m.act(g, v)
            (ggv,) = m.act(g, gv.vec)
            (canon,) = m.act(ident, v)
            assert gv.coeff * ggv.coeff == canon.coeff and ggv.vec == canon.vec
            (hgv,) = m.act(h, gv.vec)
            (ghgv,) = m.act(g, hgv.vec)
            (hinv,) = m.act(h.inverse(), v)
            assert gv.coeff * hgv.coeff * ghgv.coeff == hinv.coeff
            assert ghgv.vec == hinv.vec


def test_action_respects_relations_finite_families():
    # rotations act through h^n on the h-class families
    for m in all_finite_modules():
        rot = GroupElement.h(m.step)
        for v in m.basis():
            terms = {v: Scalar.one(ORDER)}
            for x in (g, g):
                terms = _apply(m, x, terms)
            assert terms == {v: Scalar.one(ORDER)}
            terms = {v: Scalar.one(ORDER)}
            for x in (g, rot, g):   # applied left to right
                terms = _apply(m, x, terms)
            expected = _apply(m, rot.inverse(), {v: Scalar.one(ORDER)})
            assert terms == expected


def test_negative_rotations_undo_positive_ones():
    # h^(-k step) undoes h^(k step) for powers past the generator itself
    for m in all_finite_modules():
        for k in (1, 2, 3):
            up, down = GroupElement.h(k * m.step), GroupElement.h(-k * m.step)
            for v in m.basis():
                assert _apply(m, down, _apply(m, up, {v: Scalar.one(ORDER)})) \
                    == {v: Scalar.one(ORDER)}


def test_h_class_negative_powers_act_by_inverse_powers():
    for n in (1, 2, 3):
        for a in (rat(2), rat("3/2"), Scalar.zeta(12, 4)):
            m = HClassModule(n, a)
            for k in (1, 2, 3):
                (t,) = m.act(GroupElement.h(-k * n), X1)
                assert t.vec == X1 and t.coeff == a ** -k


def _apply(m, x, terms):
    out = {}
    for vec, coeff in terms.items():
        for t in m.act(x, vec):
            c = out.get(t.vec, Scalar.zero(ORDER)) + coeff * t.coeff
            out[t.vec] = c
    return {v: c for v, c in out.items() if not c.is_zero()}


def test_braid_equation_finite_families_exhaustive():
    for m in all_finite_modules():
        triples = itertools.product(m.basis(), repeat=3)
        assert braid_equation_check(m, triples).ok


def test_braid_equation_infinite_families_window():
    for m in all_infinite_modules():
        basis = m.basis_window(8)
        assert len(basis) == 17
        check = braid_equation_check(m, itertools.product(basis, repeat=3))
        assert check.ok, check.witness


def test_braid_equation_far_from_the_window():
    # stress the index arithmetic away from the acceptance window
    import random
    rng = random.Random(424242)
    for m in all_infinite_modules():
        labels = [A(rng.randint(0, 40)) for _ in range(6)]
        labels += [B(rng.randint(1, 40)) for _ in range(6)]
        triples = [tuple(rng.choice(labels) for _ in range(3)) for _ in range(200)]
        check = braid_equation_check(m, triples)
        assert check.ok, check.witness


def _word_level_braid_check(m, triples):
    """The braid equation slot by slot through braid_word_at: the first
    mismatch as (triple, (lhs coeff, lhs word), (rhs coeff, rhs word))."""
    one = Scalar.one(m.order)
    for triple in triples:
        sides = []
        for slots in ((1, 2, 1), (2, 1, 2)):
            coeff, word = one, tuple(triple)
            for i in slots:
                coeff, word = braid_word_at(m, coeff, word, i)
            sides.append((coeff, word))
        (lc, lw), (rc, rw) = sides
        if lc != rc or lw != rw:
            return (triple, (str(lc), tuple(map(str, lw))), (str(rc), tuple(map(str, rw))))
    return None


class SkewedGClass(GClassModule):
    """The sign g-class with c(a1 (x) b2) negated: no longer a braiding."""

    def braid(self, v, w):
        t = super().braid(v, w)
        if (v, w) == (A(1), B(2)):
            return type(t)(-t.coeff, t.left, t.right)
        return t


class CountingGhClass(GhClassModule):
    def __init__(self, rep):
        super().__init__(rep)
        self.braided = []

    def braid(self, v, w):
        self.braided.append((v, w))
        return super().braid(v, w)


def test_braid_equation_check_reports_word_level_witness():
    m = SkewedGClass("sign")
    triples = list(itertools.product(m.basis_window(3), repeat=3))
    expected = _word_level_braid_check(m, triples)
    assert expected is not None
    check = braid_equation_check(m, triples)
    assert not check.ok
    assert check.witness == expected
    # the unperturbed module passes both
    assert _word_level_braid_check(GClassModule("sign"), triples) is None
    assert braid_equation_check(GClassModule("sign"), triples).ok


class PerturbedBraid:
    """``module`` with the braiding of one label pair replaced by
    ``change`` of it; everything else is the module's own."""

    def __init__(self, module, pair, change):
        self.module, self.pair, self.change = module, pair, change
        self.order = module.order

    def basis_window(self, window):
        return self.module.basis_window(window)

    def braid(self, v, w):
        t = self.module.braid(v, w)
        return self.change(t) if (v, w) == self.pair else t


Z = Scalar.zeta(ORDER)


@pytest.mark.parametrize("m,braids", [
    # a non-rational coefficient on a reflection family
    (PerturbedBraid(GClassModule("sign"), (A(1), B(2)),
                    lambda t: BraidTerm(t.coeff * Z, t.left, t.right)), False),
    # a diagonal braiding satisfies the braid equation whatever its
    # coefficients: both sides multiply the same three non-rational
    # coefficients, in different orders
    (PerturbedBraid(HClassModule(1, Z), (X1, X2),
                    lambda t: BraidTerm(t.coeff * Z, t.left, t.right)), True),
    # only a word label is wrong, the coefficient a^-1 = z^-1 is the true one
    (PerturbedBraid(HClassModule(1, Z), (X1, X2),
                    lambda t: BraidTerm(t.coeff, X1, t.right)), False),
    (PerturbedBraid(GhClassModule("eps"), (B(2), A(1)),
                    lambda t: BraidTerm(t.coeff, A(t.left.index + 1), t.right)), False),
], ids=["g-class-z-coeff", "h-class-z-coeff", "h-class-label", "gh-class-label"])
def test_braid_equation_check_agrees_with_word_level_oracle(m, braids):
    triples = list(itertools.product(m.basis_window(3), repeat=3))
    expected = _word_level_braid_check(m, triples)
    check = braid_equation_check(m, triples)
    assert check.ok is braids
    assert check.witness == expected
    if not braids and m.module.dim is not None:
        # the h-class witness carries non-rational coefficients
        assert "z" in check.witness[1][0] + check.witness[2][0]


def test_braid_equation_check_braids_each_pair_once():
    m = CountingGhClass("eps")
    assert braid_equation_check(m, itertools.product(m.basis_window(3), repeat=3)).ok
    assert len(m.braided) == len(set(m.braided))


def test_braid_equation_check_rejects_non_triples():
    m = GClassModule("sign")
    with pytest.raises(ValueError):
        braid_equation_check(m, [(A(0), A(1), B(1), A(2))])
    with pytest.raises(ValueError):
        braid_equation_check(m, [(A(0), A(1))])


def _reflection_modules(order=ORDER):
    return [cls(rep, order) for cls in (GClassModule, GhClassModule)
            for rep in ("sign", "eps")]


def _perturbed(cls, pair, change):
    """A subclass of ``cls`` whose braiding of ``pair`` is ``change`` of
    the true one."""

    class Perturbed(cls):
        def braid(self, v, w):
            t = super().braid(v, w)
            return change(t) if (v, w) == pair else t

    return Perturbed


def _negated(t):
    return BraidTerm(-t.coeff, t.left, t.right)


# The window pass the braid suite ran before its proof, kept as the oracle
# of that proof.

def _window_braid_check(m, window):
    """The first window pair (v, w), v = s_v u_j and w = s_w u_k, whose
    ``m.braid`` is not (s_w rho) * label(u_(2j-k)) (x) v, or None."""
    labels = [(v, *m._to_internal(v.kind, v.index)) for v in m.basis_window(window)]
    for (v, _, j), (w, s, k) in itertools.product(labels, repeat=2):
        t = m.braid(v, w)
        if (t.coeff, t.left, t.right) != (*m._from_internal(s ^ 1, 2 * j - k), v):
            return v, w
    return None


@pytest.mark.parametrize("order", [5, 7, 12])
def test_reflection_braid_check_passes(order):
    for m in _reflection_modules(order):
        check = reflection_braid_check(m)
        assert check.ok, (m, check.witness)
        for window in range(1, 9):
            assert _window_braid_check(m, window) is None, (m, window)


# (module, the one label pair whose braiding it changes)
PERTURBED = [
    (SkewedGClass("sign"), (A(1), B(2))),
    (_perturbed(GhClassModule, (B(1), A(0)), _negated)("sign"), (B(1), A(0))),
    (_perturbed(GhClassModule, (B(1), A(0)), _negated)("eps"), (B(1), A(0))),
    (_perturbed(GClassModule, (A(2), B(1)),
                lambda t: BraidTerm(t.coeff, A(t.left.index + 1), t.right))("eps"),
     (A(2), B(1))),
]


@pytest.mark.parametrize("window", [1, 2, 3, 4])
def test_reflection_braid_check_agrees_with_triple_kernel(window):
    # the perturbed modules count from the first window holding their pair:
    # below it the kernel braids no perturbed pair
    cases = _reflection_modules()
    cases += [m for m, pair in PERTURBED if max(v.index for v in pair) <= window]
    for m in cases:
        proof = reflection_braid_check(m)
        kernel = braid_equation_check(m, itertools.product(m.basis_window(window), repeat=3))
        assert proof.ok is kernel.ok, (m, window)


@pytest.mark.parametrize("m,pair", PERTURBED)
def test_reflection_braid_check_witness_names_perturbed_pair(m, pair):
    assert set(pair) <= set(BREAK_LABELS)
    check = reflection_braid_check(m)
    assert not check.ok
    found, braided, expected = check.witness
    assert found == pair
    assert braided == str(m.braid(*pair)) and braided != expected
    # the oracle fails from the first window holding the pair on
    for window in range(max(v.index for v in pair), 9):
        assert _window_braid_check(m, window) == pair, window


def test_affine_braid_sides_accept_reflection_map_only():
    # both sides are rho^3 * u_(2i-2j+k) (x) u_(2i-j) (x) u_i
    rows = ((2, -2, 1, 0), (2, -1, 0, 0), (1, 0, 0, 0))
    assert _affine_braid_sides(REFLECTION_BRAID) == (rows, rows)
    # (j, k) -> (j + k, j): first slots 2i+j+k against i+j+k
    lhs, rhs = _affine_braid_sides(((1, 1, 0), (1, 0, 0)))
    assert lhs == ((2, 1, 1, 0), (1, 1, 0, 0), (1, 0, 0, 0))
    assert rhs == ((1, 1, 1, 0), (1, 1, 0, 0), (1, 0, 0, 0))
    # a constant shift c breaks it too: the first slots differ by 2c
    lhs, rhs = _affine_braid_sides(((2, -1, 1), (1, 0, 0)))
    assert lhs[0][3] - rhs[0][3] == 2 and lhs[1:] == rhs[1:]


@pytest.mark.parametrize("window", [1, 3, 8])
def test_reflection_braid_check_braids_each_window_pair_once(window):
    # the proof braids the 36 BREAK_LABELS pairs once each, whatever the window
    m = CountingGhClass("eps")
    assert reflection_braid_check(m).ok
    assert len(m.braided) == 36
    proved = set(m.braided)
    assert proved == set(itertools.product(BREAK_LABELS, repeat=2))
    # its oracle braids each window pair once; from window 3 on those hold the proof's
    oracle = CountingGhClass("eps")
    assert _window_braid_check(oracle, window) is None
    assert len(oracle.braided) == (2 * window + 1) ** 2
    assert set(oracle.braided) == set(itertools.product(oracle.basis_window(window), repeat=2))
    assert (proved <= set(oracle.braided)) is (window >= 3)


def _drop_rho_on_b(monkeypatch):
    """rho dropped on b-labels: a no-op for eps (rho = 1), wrong for sign."""
    true_act = ReflectionClassModule.act

    def corrupted(self, x, v):
        (t,) = true_act(self, x, v)
        if v.kind == "b":
            t = SignedVector(t.coeff * self.rho, t.vec)
        return (t,)

    monkeypatch.setattr(ReflectionClassModule, "act", corrupted)


def _shift_coaction(monkeypatch):
    """deg u_k = g h^(t-2k+1): outside the class, and no longer yd."""
    monkeypatch.setattr(ReflectionClassModule, "_degree",
                        lambda self, k: GroupElement(1, self.twist - 2 * k + 1))


def _shift_bb_piece(monkeypatch):
    """The table's bb piece for 2m - n >= t with its index shifted by +1:
    on the gh-class the entries (b_m, b_n) with n <= 2m - 1."""
    monkeypatch.setattr(tables, "REFLECTION_TABLE", tuple(
        piece[:4] + (piece[4][:3] + (piece[4][3] + 1,),) if piece[:2] == ("bb", False)
        else piece for piece in tables.REFLECTION_TABLE))


def _shift_reflections(monkeypatch):
    """g^r h^e with r = 1 lands one index too far: (s xor 1, t - k - e + 1)."""
    true_act_pair = ReflectionClassModule._act_pair

    def shifted(self, r, e, s, k):
        s, k = true_act_pair(self, r, e, s, k)
        return s, k + r

    monkeypatch.setattr(ReflectionClassModule, "_act_pair", shifted)


def test_reflection_braid_check_catches_corrupt_action(monkeypatch):
    _drop_rho_on_b(monkeypatch)
    for m in _reflection_modules():
        check = reflection_braid_check(m)
        assert check.ok is (m.rep == "eps")
        if not check.ok:
            assert check.witness[0][1].kind == "b"


@pytest.mark.parametrize("mutate", [_drop_rho_on_b, _shift_reflections])
@pytest.mark.parametrize("order", [5, 7, 12])
def test_reflection_braid_check_agrees_with_window_oracle_on_mutations(
        monkeypatch, mutate, order):
    # from window 2 on, as for the yd and tables proofs: at window 1 the
    # oracle misses the gh-class sign module's dropped rho
    mutate(monkeypatch)
    for m in _reflection_modules(order):
        proof = reflection_braid_check(m)
        for window in range(2, 9):
            assert (_window_braid_check(m, window) is None) is proof.ok, (m, window)


def test_reflection_braid_check_names_the_shifted_composed_index(monkeypatch):
    _shift_reflections(monkeypatch)
    for m in _reflection_modules():
        check = reflection_braid_check(m)
        assert not check.ok
        assert check.witness == ("deg(u_j).rho^0 u_(k)", "rho^1 u_(2j-k+1)", "rho^1 u_(2j-k)")


def test_reflection_braid_check_rejects_finite_modules():
    with pytest.raises(ValueError):
        reflection_braid_check(HClassModule(1, rat(2)))


def test_reflection_braid_check_reports_under_optimize():
    # the check reports through its result, never an assert: python -O
    # must still see the failure
    script = (
        "from dinfnichols.ydmod import A, B, BraidTerm, GhClassModule, reflection_braid_check\n"
        "class Skewed(GhClassModule):\n"
        "    def braid(self, v, w):\n"
        "        t = super().braid(v, w)\n"
        "        return BraidTerm(-t.coeff, t.left, t.right) if (v, w) == (B(1), A(0)) else t\n"
        "print(reflection_braid_check(GhClassModule('sign')).ok,\n"
        "      reflection_braid_check(Skewed('sign')).witness[0] == (B(1), A(0)))\n")
    r = subprocess.run([sys.executable, "-O", "-B", "-c", script],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "True True\n"


def test_coaction_covers_support():
    # distinct coaction degrees witness the infinite support; the gh-class
    # window covers one fewer because b1 shares a0's degree
    w = 12
    mg = GClassModule("sign")
    degs = {mg.coact(v) for v in mg.basis_window(w)}
    assert len(degs) == 2 * w + 1
    assert all(conj_class_of(d) == mg.support for d in degs)
    mgh = GhClassModule("eps")
    degs = {mgh.coact(v) for v in mgh.basis_window(w)}
    assert len(degs) == 2 * w
    assert all(conj_class_of(d) == mgh.support for d in degs)
    mh = HClassModule(3, rat(1))
    assert len({mh.coact(v) for v in mh.basis()}) == 2


def test_diagonal_type():
    a = Scalar.zeta(12, 4)
    for n in range(1, 6):
        m = HClassModule(n, a)
        mtx = diagonal_type(m)
        assert mtx == [[a, a ** -1], [a ** -1, a]]
    m1 = one_class_module("s0+", rat(0))
    one = Scalar.one(ORDER)
    assert diagonal_type(m1) == [[one, one], [one, one]]
    m2 = one_class_module("slam+", rat(2))
    assert diagonal_type(m2) == [[one]]
    with pytest.raises(ValueError):
        diagonal_type(GClassModule("sign"))


def test_braiding_tables_window8():
    for m in all_infinite_modules():
        check = braiding_table_check(m)
        assert check.ok, check.witness


def test_braiding_tables_finite():
    for m in all_finite_modules():
        assert braiding_table_check(m).ok


def test_table_check_reports_perturbed_table(monkeypatch):
    # shift the second bb-branch index by +1; the checker must catch it
    m = GhClassModule("sign")
    _shift_bb_piece(monkeypatch)
    check = braiding_table_check(m)
    assert not check.ok
    assert check.witness is not None
    assert check.witness.computed != check.witness.expected
    assert check.witness.pair == ("b_m", "b_n", "2m-n>=1")


# The window checks the yd and tables suites ran before their proofs, kept
# as the oracle of those proofs.

def _window_yd_checks(m, window):
    """(yd compatibility, relations, coaction coverage) on the window."""
    ident = GroupElement.identity()
    basis = m.basis_window(window)
    compat = all(yd_compat_check(m, x, v) for x in (g, h) for v in basis)
    relations = True
    for v in basis:
        (gv,) = m.act(g, v)
        (ggv,) = m.act(g, gv.vec)
        (canon,) = m.act(ident, v)
        (hgv,) = m.act(h, gv.vec)
        (ghgv,) = m.act(g, hgv.vec)
        (hinv,) = m.act(h.inverse(), v)
        relations &= (gv.coeff * ggv.coeff, ggv.vec) == (canon.coeff, canon.vec)
        relations &= (gv.coeff * hgv.coeff * ghgv.coeff, ghgv.vec) == (hinv.coeff, hinv.vec)
    degs = {m.coact(v) for v in basis}
    # the gh-class window has one degree fewer: b1 shares a0's
    cover = all(m.support.contains(d) for d in degs) and len(degs) == 2 * window + 1 - m.twist
    return compat, relations, cover


def _window_table_check(m, window):
    """m.braid against the canonicalized closed form on every window pair."""
    table = tables.reflection_table(m.twist, m.rho_sign)
    for v, w in itertools.product(m.basis_window(window), repeat=2):
        t = m.braid(v, w)
        if (t.coeff, t.left, t.right) != (*tables.canonicalize(m, table(v, w)), v):
            return False
    return True


@pytest.mark.parametrize("order", [5, 7, 12])
def test_yd_and_table_proofs_agree_with_window_checks(order):
    for m in _reflection_modules(order):
        proofs = (all(reflection_yd_check(m)), braiding_table_check(m).ok)
        assert proofs == (True, True), m
        for window in range(1, 9):
            assert (all(_window_yd_checks(m, window)), _window_table_check(m, window)) == proofs


@pytest.mark.parametrize("mutate", [_drop_rho_on_b, _shift_coaction, _shift_bb_piece])
def test_yd_and_table_proofs_agree_with_window_checks_on_mutations(monkeypatch, mutate):
    # from window 2 on: at window 1 the window checks miss the gh-class
    # sign module's dropped rho, which the proofs see on BREAK_LABELS
    mutate(monkeypatch)
    for m in _reflection_modules():
        proofs = (all(reflection_yd_check(m)), braiding_table_check(m).ok)
        for window in range(2, 9):
            assert (all(_window_yd_checks(m, window)), _window_table_check(m, window)) == proofs


def test_yd_and_table_proofs_name_the_mutated_label_or_piece(monkeypatch):
    with monkeypatch.context() as patch:
        _drop_rho_on_b(patch)
        for m in _reflection_modules():
            compat, _, _ = reflection_yd_check(m)
            table = braiding_table_check(m)
            assert compat.ok is table.ok is (m.rep == "eps")
            if m.rep == "sign":
                assert compat.witness[0].split(".")[1].startswith("b")
                assert any(label.startswith("b") for label in table.witness.pair)
    with monkeypatch.context() as patch:
        _shift_coaction(patch)
        for m in _reflection_modules():
            compat, relations, degrees = reflection_yd_check(m)
            assert not compat.ok and relations.ok and not degrees.ok
            assert compat.witness[0] == "deg(g.u_k)"
            assert degrees.witness.startswith(f"deg u_k = g h^-2k+{m.twist + 1} ")
            assert braiding_table_check(m).witness.pair == ("a_m", "b_n", "all m, n")
    with monkeypatch.context() as patch:
        _shift_bb_piece(patch)
        for m in _reflection_modules():
            assert all(reflection_yd_check(m))
            assert braiding_table_check(m).witness.pair == ("b_m", "b_n", f"2m-n>={m.twist}")


@pytest.mark.parametrize("mutate", [_drop_rho_on_b, _shift_coaction, _shift_bb_piece])
def test_yd_and_tables_suites_fail_on_mutations(monkeypatch, mutate):
    mutate(monkeypatch)
    failed = verify.yd_suite().failed + verify.tables_suite().failed
    assert failed > 0


class WrongInverseHClass(HClassModule):
    """An h-class module whose stored inverse is 3a, not a^-1: h^n acts by
    H = diag(a, 3a).  Its braiding is still diagonal and matches the closed
    form of its stored parameters, and its action builds h^-n as G H G; so
    when the yd relations were checked through that action, this module
    passed every braid, yd and tables check."""

    def __init__(self, n, a):
        super().__init__(n, a)
        self.a_inv = 3 * a
        zero = Scalar.zero(a.order)
        self.rep = FinRep(self.rep.G, ((a, zero), (zero, self.a_inv)))


def test_yd_suite_catches_a_wrong_inverse(monkeypatch):
    mods = [WrongInverseHClass(n, a) for n in (1, 2)
            for a in (rat(1), rat(2), Scalar.zeta(ORDER, 4))]
    monkeypatch.setattr(verify, "_sample_modules", lambda order=ORDER: mods)
    # the relations line reads G and H: the one line that fails
    res = verify.yd_suite()
    failures = [line for line in res.lines if line.startswith("[FAIL] ")]
    assert res.failed == len(failures) == len(mods)
    assert all(line.startswith("[FAIL] relations ") and line.endswith("  g h g != h^-1")
               for line in failures)
    for suite in (verify.braid_suite, verify.tables_suite):
        assert suite().failed == 0


def test_braid_suite_catches_a_non_diagonal_h_class(monkeypatch):
    # c(x1 (x) x2) with the wrong left label: no longer of diagonal type.
    # Diagonal type is sufficient for the braid equation, not necessary: at
    # a = 1 and a = -1 this braiding still satisfies it on all basis
    # triples, though it is not invertible: a triple check passes four of
    # the eight h-class modules
    true_braid = HClassModule.braid

    def relabelled(self, v, w):
        t = true_braid(self, v, w)
        return BraidTerm(t.coeff, X1, t.right) if (v, w) == (X1, X2) else t

    monkeypatch.setattr(HClassModule, "braid", relabelled)
    res = verify.braid_suite()
    for line in res.lines:
        assert line.startswith("[FAIL] " if "HClassModule" in line else "[PASS] "), line
    assert res.failed == 8
    # each FAIL line names the first pair that is not q_ij x_j (x) x_i, with
    # what it braids to; the PASS lines carry nothing after the module
    for m, line in zip(verify._sample_modules(), res.lines):
        if isinstance(m, HClassModule):
            coeff = true_braid(m, X1, X2).coeff
            witness = ("c(x1(x)x2)", f"({coeff})*x1(x)x1", "q*x2(x)x1")
            assert line == f"[FAIL] braid equation: {m!r}  {witness}"
        else:
            assert line == f"[PASS] braid equation: {m!r}"


def test_yd_and_table_proofs_report_a_raising_module(monkeypatch):
    # right on every int, but it compares the index it is given with 0,
    # which raises on an Affine form: a FAIL line, never a traceback
    true_act_pair = ReflectionClassModule._act_pair

    def branching(self, r, e, s, k):
        return true_act_pair(self, r, e, s, k if k >= 0 else k)

    monkeypatch.setattr(ReflectionClassModule, "_act_pair", branching)
    for suite, n_failed in ((verify.yd_suite, 8), (verify.tables_suite, 4),
                            (verify.braid_suite, 4)):
        res = suite()
        failures = [line for line in res.lines if line.startswith("[FAIL] ")]
        assert res.failed == len(failures) == n_failed
        assert all("TypeError: '>=' not supported" in line for line in failures)


def test_yd_and_table_proofs_report_under_optimize():
    # the proofs report through their results, never an assert: python -O
    # must still see a corrupted coaction
    script = (
        "from dinfnichols.group import GroupElement\n"
        "from dinfnichols.tables import braiding_table_check\n"
        "from dinfnichols.ydmod import GhClassModule, ReflectionClassModule, reflection_yd_check\n"
        "m = GhClassModule('sign')\n"
        "print(all(reflection_yd_check(m)), braiding_table_check(m).ok)\n"
        "ReflectionClassModule._degree = lambda self, k: GroupElement(1, self.twist - 2 * k + 1)\n"
        "print([c.ok for c in reflection_yd_check(m)], braiding_table_check(m).witness.pair)\n")
    r = subprocess.run([sys.executable, "-O", "-B", "-c", script],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "True True\n[False, True, False] ('a_m', 'b_n', 'all m, n')\n"


def test_affine_forms():
    m, n = Affine.variables("mn")
    assert 2 * m - n + 1 == Affine("mn", (2, -1, 1)) and 1 - m != 1 - n
    assert (str(1 - 2 * m), str(n - 3), str(m - m)) == ("-2m+1", "n-3", "0")
    for misuse in (lambda: m < 0, lambda: bool(m), lambda: m + 0.5, lambda: m * n):
        with pytest.raises(TypeError):
            misuse()


def test_reflection_yd_check_rejects_finite_modules():
    with pytest.raises(ValueError):
        reflection_yd_check(HClassModule(1, rat(2)))


def test_one_class_requires_axiom_pass():
    bad = {c.label: c for c in simple_modules(rat(3))}["slam+"]
    with pytest.raises(ValueError):
        OneClassModule(bad.rep)

import copy
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dinfnichols import linalg, repn
from dinfnichols.field import Scalar
from dinfnichols.linalg import mat_mul
from dinfnichols.repn import (
    ALambdaElement,
    FinRep,
    LambdaPoly,
    alambda_multiply,
    corner_data,
    corner_power_identity,
    corner_square_check,
    idempotent_pair,
    is_irreducible,
    reduce_word,
    rep_iso_check,
    simple_modules,
    structure_check,
    table_specialises,
)
from reference import burnside_irreducible

ORDER = 12
LAM = LambdaPoly.indeterminate(ORDER)


def rat(q):
    return Scalar.from_rational(Fraction(q), ORDER)


def basis(lam, name):
    return ALambdaElement.basis(lam, name)


LAMBDAS = [rat(0), rat(2), rat(-2), rat("3/2"), Scalar.zeta(12, 4)]


def test_multiply_examples():
    lam = rat("3/2")
    h, g, gh = basis(lam, "h"), basis(lam, "g"), basis(lam, "gh")
    one = ALambdaElement.one(lam)
    assert h * h == one.scale(-1) + h.scale(lam)
    assert h * g == g.scale(lam) - gh
    assert one * gh == gh
    with pytest.raises(ValueError):
        alambda_multiply(ALambdaElement.one(rat(0)), ALambdaElement.one(rat(2)))


# The dense product loop alambda_multiply used to run, kept as its oracle:
# every basis pair (i, j) and every output index k, with the structure
# constants written out here as full coefficient 4-tuples.
def _dense_structure_constants(lam):
    one, zero = Scalar.one(lam.order), Scalar.zero(lam.order)

    def v(c1=zero, cg=zero, ch=zero, cgh=zero):
        return (c1, cg, ch, cgh)

    e1, eg, eh, egh = v(one), v(cg=one), v(ch=one), v(cgh=one)
    return {
        (0, 0): e1, (0, 1): eg, (0, 2): eh, (0, 3): egh,
        (1, 0): eg, (1, 1): e1, (1, 2): egh, (1, 3): eh,
        (2, 0): eh, (2, 1): v(cg=lam, cgh=-one), (2, 2): v(-one, ch=lam), (2, 3): eg,
        (3, 0): egh, (3, 1): v(lam, ch=-one), (3, 2): v(cg=-one, cgh=lam), (3, 3): e1,
    }


def _dense_multiply(x, y):
    table = _dense_structure_constants(x.lam)
    acc = [Scalar.zero(x.lam.order)] * 4
    for i in range(4):
        for j in range(4):
            for k in range(4):
                acc[k] = acc[k] + x.coeffs[i] * y.coeffs[j] * table[i, j][k]
    return acc


def _random_element(rng, lam):
    coeffs = []
    for _ in range(4):
        kind = rng.randrange(3)
        if kind == 0:
            coeffs.append(0)
        elif kind == 1:
            coeffs.append(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        else:
            coeffs.append(rat(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
                          * Scalar.zeta(ORDER, rng.randrange(ORDER)) + rng.randint(-2, 2))
    return ALambdaElement(lam, coeffs)


@pytest.mark.parametrize("lam", LAMBDAS + [rat(1), rat(-1)], ids=str)
def test_multiply_matches_dense_oracle(lam):
    # lambda = +-1 makes the lambda constants units as well
    names = ("1", "g", "h", "gh")
    for x in names:
        for y in names:
            bx, by = basis(lam, x), basis(lam, y)
            assert alambda_multiply(bx, by).coeffs == tuple(_dense_multiply(bx, by))
    rng = random.Random(16180)
    for _ in range(60):
        x, y = _random_element(rng, lam), _random_element(rng, lam)
        prod = alambda_multiply(x, y)
        assert prod.coeffs == tuple(_dense_multiply(x, y))
        assert prod.lam is lam and all(c.order == ORDER for c in prod.coeffs)


def test_lambda_poly_evaluation_is_a_ring_homomorphism():
    # sums, differences and products of polynomials in lambda evaluate to
    # the same operations on their values; a constant comes back a Scalar
    rng = random.Random(2718)

    def poly():
        out, power = rat(0), rat(1)
        for _ in range(rng.randint(0, 4)):
            c = rat(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            out = out + c * Scalar.zeta(ORDER, rng.randrange(ORDER)) * power
            power = power * LAM
        return out

    def at(x, lam):
        return x.evaluate(lam) if isinstance(x, LambdaPoly) else x

    for _ in range(40):
        x, y = poly(), poly()
        for lam in LAMBDAS + [rat(1), rat(-1), rat(3)]:
            assert at(x + y, lam) == at(x, lam) + at(y, lam)
            assert at(x - y, lam) == at(x, lam) - at(y, lam)
            assert at(x * y, lam) == at(x, lam) * at(y, lam)
            assert at(-x, lam) == -at(x, lam)
            assert at(x * Fraction(1, 2) - 3, lam) == at(x, lam) * Fraction(1, 2) - 3
    assert LAM - LAM == rat(0) and isinstance(LAM - LAM, Scalar)
    assert (LAM + 1) * (LAM - 1) == LAM * LAM - 1 != LAM * LAM
    assert LAM != rat(0) and not LAM.is_zero() and hash(LAM) == hash(LambdaPoly.indeterminate(12))
    assert LAM.order == ORDER and (2 * LAM).order == ORDER


def test_symbolic_products_match_the_dense_oracle_and_specialise():
    # with lambda an indeterminate, products follow the dense oracle over
    # Q(zeta_N)[lambda] and evaluate to the products at each lambda
    rng = random.Random(16180)
    for _ in range(30):
        x, y = _random_element(rng, LAM), _random_element(rng, LAM)
        prod = alambda_multiply(x, y)
        assert prod.coeffs == tuple(_dense_multiply(x, y))
        for lam in LAMBDAS:
            at = [c.evaluate(lam) if isinstance(c, LambdaPoly) else c for c in prod.coeffs]
            assert tuple(at) == alambda_multiply(ALambdaElement(lam, x.coeffs),
                                                 ALambdaElement(lam, y.coeffs)).coeffs


@pytest.mark.parametrize("lam", LAMBDAS + [rat(1), rat(-1), rat(3), Scalar.zeta(ORDER)], ids=str)
def test_symbolic_table_specialises(lam):
    # the indeterminate's table evaluated at lam is lam's table and the
    # dense oracle's, entry by entry; at +-1 the lambda entries are units
    generic, table = repn._basis_product_table(LAM), repn._basis_product_table(lam)
    oracle = _dense_structure_constants(lam)
    assert generic.keys() == table.keys() == oracle.keys()
    for ij in generic:
        assert repn._dense(generic[ij], lam) == repn._dense(table[ij], lam) == list(oracle[ij])
    assert table_specialises(LAM, lam)


def test_h_inverse_in_algebra():
    for lam in LAMBDAS:
        h = basis(lam, "h")
        hinv = reduce_word(lam, ["h^-1"])
        assert h * hinv == ALambdaElement.one(lam)
        assert hinv * h == ALambdaElement.one(lam)


def test_dim_bound_random_words():
    # products of random generator words stay consistent however associated:
    # the reduction to span(1, g, h, gh) is well-defined
    rng = random.Random(31416)
    letters = ["g", "h", "h^-1"]
    for lam in LAMBDAS:
        for _ in range(200):
            word = [rng.choice(letters) for _ in range(rng.randint(1, 8))]
            left_fold = reduce_word(lam, word)
            right_fold = ALambdaElement.one(lam)
            for letter in reversed(word):
                right_fold = reduce_word(lam, [letter]) * right_fold
            cut = rng.randrange(len(word) + 1)
            split = reduce_word(lam, word[:cut]) * reduce_word(lam, word[cut:])
            assert left_fold == right_fold == split
            assert len(left_fold.coeffs) == 4


def test_idempotent_pair():
    for lam in LAMBDAS:
        e1, e2 = idempotent_pair(lam)
        assert e1.coeffs[0] == rat("1/2") and e1.coeffs[1] == rat("1/2")
        assert e1 * e2 == ALambdaElement.zero(lam)
        assert e1 + e2 == ALambdaElement.one(lam)


def test_corner_relations():
    # a^2=2a, ab=2b, ba=lam*a, b^2=lam*b in the right plus corner
    for lam in LAMBDAS:
        pair = idempotent_pair(lam)
        a, b = corner_data(pair, "plus").basis
        assert a * a == a.scale(2)
        assert a * b == b.scale(2)
        assert b * a == a.scale(lam)
        assert b * b == b.scale(lam)
        # and the left corner swaps the mixed products
        al, bl = corner_data(pair, "plus", left=True).basis
        assert al * bl == al.scale(lam)
        assert bl * al == bl.scale(2)


def test_corner_power_identity_examples():
    assert corner_power_identity(rat(1), rat(0), rat("3/2"), 2)
    assert corner_power_identity(rat(0), rat(1), rat(3), 3)
    with pytest.raises(ValueError):
        corner_power_identity(rat(1), rat(0), rat(0), 0)


def test_corner_power_identity_random():
    rng = random.Random(2718)
    for _ in range(100):
        lam = rng.choice(LAMBDAS)
        x1 = rat(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        x2 = rat(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        n = rng.randint(1, 5)
        side = rng.choice(["plus", "minus"])
        assert corner_power_identity(x1, x2, lam, n, side)


def test_radical_line():
    c = corner_data(idempotent_pair(rat(0)), "plus")
    assert c.radical_line == basis(rat(0), "h") + basis(rat(0), "gh")
    c2 = corner_data(idempotent_pair(rat(2)), "plus")
    a, b = c2.basis
    assert c2.radical_line == b - a
    for lam in LAMBDAS:
        pair = idempotent_pair(lam)
        for side in ("plus", "minus"):
            for left in (False, True):
                c = corner_data(pair, side, left)
                assert c.idempotent == pair[0 if side == "plus" else 1]
                r = c.radical_line
                assert (r * r).is_zero()
                a, b = c.basis
                if left:
                    assert (a * r).is_zero() and (b * r).is_zero()
                else:
                    assert (r * a).is_zero() and (r * b).is_zero()


def test_corrupt_product_table_raises(monkeypatch):
    # a table with g*g = g: the checks must raise, also under python -O;
    # the radical check raises on its own, given the pair built before
    lam = rat(2)
    pair = idempotent_pair(lam)
    table = dict(repn._basis_product_table(lam))
    table[(1, 1)] = table[(0, 1)]
    monkeypatch.setattr(repn, "_basis_product_table", lambda _lam: table)
    with pytest.raises(ArithmeticError):
        idempotent_pair(lam)
    with pytest.raises(ArithmeticError):
        corner_data(pair, "plus")


@pytest.mark.parametrize("lam", LAMBDAS + [rat(1), rat(-1), rat(3)], ids=str)
def test_structure_and_corner_square_checks_pass(lam):
    assert structure_check(lam).ok
    assert corner_square_check(lam, "plus").ok and corner_square_check(lam, "minus").ok


def _corrupt_table(monkeypatch, ij, terms, at=None):
    # b_i * b_j replaced by ``terms`` in the table of every lambda, or of
    # the lambda ``at`` only; ``terms`` may be a function of lambda
    real = repn._basis_product_table

    def corrupted(lam):
        table = dict(real(lam))
        if at is None or lam == at:
            table[ij] = terms(lam) if callable(terms) else terms
        return table

    monkeypatch.setattr(repn, "_basis_product_table", corrupted)


GH_GH_MINUS_ONE = ((3, 3), ((0, None, True),))
G_G_IS_G = ((1, 1), ((1, None, False),))


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
def test_structure_check_catches_gh_squared_minus_one(monkeypatch, lam):
    _corrupt_table(monkeypatch, *GH_GH_MINUS_ONE)
    res = structure_check(lam)
    assert not res.ok and res.witness


def _structure_oracle(lam):
    """The unit, all 64 basis triples and the relations: structure_check's
    verdict as it was reached before it read only the 32 triples with a
    generator first."""
    b = [basis(lam, name) for name in ("1", "g", "h", "gh")]
    one, g, h, gh = b
    hinv = repn.generator_image(lam, "h^-1")
    unit = all(one * x == x == x * one for x in b)
    assoc = all((x * y) * z == x * (y * z) for x in b for y in b for z in b)
    return (unit and assoc and g * h == gh and g * g == one and gh * gh == one
            and h * hinv == one == hinv * h)


def test_structure_check_agrees_with_64_triple_oracle(monkeypatch):
    # every entry of the table replaced by +-b_k, 128 corruptions per lambda;
    # only those that leave the entry as it was pass
    real = {lam: repn._basis_product_table(lam) for lam in LAMBDAS}
    cases = 0
    for ij in [(i, j) for i in range(4) for j in range(4)]:
        for k in range(4):
            for negate in (False, True):
                terms = ((k, None, negate),)
                _corrupt_table(monkeypatch, ij, terms)
                for lam in LAMBDAS:
                    verdict = structure_check(lam).ok
                    assert verdict is _structure_oracle(lam), (ij, terms, lam)
                    assert verdict is (real[lam][ij] == terms), (ij, terms, lam)
                    cases += 1
                monkeypatch.undo()
    assert cases == 128 * len(LAMBDAS)


@pytest.mark.parametrize("corruption", [GH_GH_MINUS_ONE, G_G_IS_G], ids=["gh*gh=-1", "g*g=g"])
@pytest.mark.parametrize("side", ["plus", "minus"])
def test_corner_square_check_catches_corrupt_product(monkeypatch, corruption, side):
    _corrupt_table(monkeypatch, *corruption)
    for lam in LAMBDAS:
        res = corner_square_check(lam, side)
        assert not res.ok and res.witness.startswith(f"{side} corner: ")


def test_alambda_suite_reports_corrupt_table(monkeypatch):
    # g*g = g makes the idempotent pair raise; the suite records FAIL lines
    # for it and for the radical lines instead of raising
    from dinfnichols import verify

    _corrupt_table(monkeypatch, *G_G_IS_G)
    res = verify.alambda_suite()
    assert len(res.lines) == 33
    for lam in ("0", "2", "-2", "3/2", "z^2-1"):
        for check in ("word reduction closed and associative", "idempotents verified",
                      "corner power identity"):
            assert any(line.startswith(f"[FAIL] {check}: lambda={lam}  ")
                       for line in res.lines), (check, lam)
        for side in ("plus", "minus"):
            assert f"[FAIL] radical line squares to zero: lambda={lam} {side}  " \
                   "idempotent pair not verified" in res.lines
    assert "[FAIL] idempotents verified: lambda=2  idempotent relation failed" in res.lines
    assert res.failed == 25


def _count_idempotent_pairs(monkeypatch):
    from dinfnichols import verify

    calls = []

    def counting(lam):
        calls.append(lam)
        return idempotent_pair(lam)

    monkeypatch.setattr(repn, "idempotent_pair", counting)
    monkeypatch.setattr(verify, "idempotent_pair", counting)
    return calls


def test_idempotent_pair_verified_once_per_suite(monkeypatch):
    # the report verifies its lambda's pair once; the suite verifies the
    # pair once, for the indeterminate, and for no lambda whose table
    # specialises
    from dinfnichols import verify

    calls = _count_idempotent_pairs(monkeypatch)
    repn.alambda_report(rat(2))
    assert calls == [rat(2)]
    calls.clear()
    res = verify.alambda_suite()
    assert res.failed == 0
    assert calls == [LAM]


# lambda = 2's five lines when its table has g*g = g, as the suite printed
# them before it proved the facts over Q(zeta_N)[lambda]
G_G_IS_G_AT_2 = [
    "[FAIL] word reduction closed and associative: lambda=2  "
    "(g*g)*h = (1)*gh but g*(g*h) = (1)*h",
    "[FAIL] idempotents verified: lambda=2  idempotent relation failed",
    "[FAIL] corner power identity: lambda=2  plus corner: a^2 = 2a fails: the left side is "
    "(1) + (3)*g; minus corner: a^2 = 2a fails: the left side is (1) + (-1)*g",
    "[FAIL] radical line squares to zero: lambda=2 plus  idempotent pair not verified",
    "[FAIL] radical line squares to zero: lambda=2 minus  idempotent pair not verified",
]


def test_alambda_suite_falls_back_where_a_table_does_not_specialise(monkeypatch):
    # g*g = g in lambda = 2's table only: the proof over Q(zeta_N)[lambda]
    # holds, but lambda = 2's table is not its specialisation, so lambda = 2
    # alone runs its checks numerically and fails them with their witnesses
    from dinfnichols import verify

    clean = verify.alambda_suite().lines
    _corrupt_table(monkeypatch, *G_G_IS_G, at=rat(2))
    calls = _count_idempotent_pairs(monkeypatch)
    res = verify.alambda_suite()
    assert calls == [LAM, rat(2)]
    assert res.lines[5:10] == G_G_IS_G_AT_2
    assert res.failed == 5 and len(res.lines) == 33
    assert res.lines[:5] + res.lines[10:] == clean[:5] + clean[10:]


def test_alambda_suite_fallback_under_python_O():
    # the same corruption in a python -O process: no assert decides a line
    script = (
        "from dinfnichols import repn, verify\n"
        "from dinfnichols.field import Scalar\n"
        "real = repn._basis_product_table\n"
        "def corrupted(lam):\n"
        "    table = dict(real(lam))\n"
        "    if lam == Scalar.from_rational(2, 12):\n"
        "        table[1, 1] = ((1, None, False),)\n"
        "    return table\n"
        "repn._basis_product_table = corrupted\n"
        "res = verify.alambda_suite()\n"
        "print(res.failed)\n"
        "print('\\n'.join(res.lines))\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out[0] == "5" and len(out) == 34
    assert out[6:11] == G_G_IS_G_AT_2
    assert sum(line.startswith("[PASS] ") for line in out[1:]) == 28


def _h_g_twice_lambda(lam):
    # h*g = 2 lambda g - gh: wrong for every lambda but 0
    two_lam = lam * 2
    return ((1, two_lam, False),) * (not two_lam.is_zero()) + ((3, None, True),)


def test_alambda_suite_falls_back_when_the_symbolic_proof_fails(monkeypatch):
    # the error term 2 lambda g - lambda g vanishes at lambda = 0 only: every
    # table specialises the corrupted one, but the proof over
    # Q(zeta_N)[lambda] fails, so every lambda runs numerically, lambda = 0
    # passes and the other four fail
    from dinfnichols import verify

    _corrupt_table(monkeypatch, (2, 1), _h_g_twice_lambda)
    assert not all(ok for ok, _ in verify._alambda_checks(LAM))
    assert all(table_specialises(LAM, lam) for lam in LAMBDAS)
    calls = _count_idempotent_pairs(monkeypatch)
    res = verify.alambda_suite()
    assert calls[0] == LAM and calls[1:] == [rat(0), rat(2), rat(-2), rat("3/2"),
                                             Scalar.zeta(ORDER, 4)]
    assert all(line.startswith("[PASS] ") for line in res.lines[:5])
    for k in range(1, 5):
        assert any(line.startswith("[FAIL] ") for line in res.lines[5 * k:5 * k + 5])
    assert res.lines[5] == ("[FAIL] word reduction closed and associative: lambda=2  "
                            "(g*h)*g = (2) + (-1)*h but g*(h*g) = (4) + (-1)*h")
    assert res.failed == 16 and len(res.lines) == 33


def test_simple_modules_lambda_zero():
    cands = simple_modules(rat(0))
    assert list(cands) == ["s0+", "s0-"]
    for rep in cands.values():
        assert rep.dim == 2
        assert rep.axiom.ok
        assert is_irreducible(rep)
    # action table: g.a = a, h.a = -b, g.b = -b, h.b = a
    rep = cands["s0+"]
    assert rep.G[0][0] == Scalar.one(ORDER) and rep.G[1][1] == -Scalar.one(ORDER)
    assert rep.H[1][0] == -Scalar.one(ORDER) and rep.H[0][1] == Scalar.one(ORDER)
    assert cands["s0-"].G[0][0] == -Scalar.one(ORDER) and cands["s0-"].H == rep.H
    assert copy.deepcopy(rep) == rep


@pytest.mark.parametrize("lam_value,expect_pass", [(2, True), (-2, True), (3, False)])
def test_simple_modules_lambda_nonzero(lam_value, expect_pass):
    cands = simple_modules(rat(lam_value))
    assert list(cands) == ["slam+", "slam-"]
    for rep, gval in zip(cands.values(), (1, -1)):
        assert rep.dim == 1
        assert rep.axiom.ok == expect_pass
        assert rep.G[0][0] == rat(gval)
        assert rep.H[0][0] == rat(Fraction(lam_value, 2))
        if expect_pass:
            assert is_irreducible(rep)
        else:
            assert rep.axiom.witness == "g h g != h^-1"


def test_four_characters_across_pm2():
    seen = set()
    for lam_value in (2, -2):
        for rep in simple_modules(rat(lam_value)).values():
            assert rep.axiom.ok and rep.dim == 1
            seen.add((str(rep.G[0][0]), str(rep.H[0][0])))
    assert seen == {("1", "1"), ("-1", "1"), ("1", "-1"), ("-1", "-1")}


def test_module_axiom_check_examples():
    one = Scalar.one(ORDER)
    trivial = FinRep.from_matrices([[one]], [[one]])
    assert trivial.axiom.ok
    assert simple_modules(rat(0))["s0+"].axiom.ok
    bad = FinRep.from_matrices([[one]], [[rat("3/2")]])
    res = bad.axiom
    assert not res.ok and res.witness == "g h g != h^-1"
    # g^2 = 1 is checked first: g -> 2
    assert FinRep.from_matrices([[rat(2)]], [[one]]).axiom.witness == "g^2 != 1"


def test_is_irreducible():
    one = Scalar.one(ORDER)
    zero = Scalar.zero(ORDER)
    any_char = FinRep.from_matrices([[-one]], [[one]])
    assert is_irreducible(any_char)
    assert is_irreducible(simple_modules(rat(0))["s0+"])
    # commuting axiom-passing pair: diagonal, so reducible
    diag = FinRep.from_matrices([[one, zero], [zero, one]],
                                [[one, zero], [zero, -one]])
    assert diag.axiom.ok
    assert not is_irreducible(diag)
    # the commuting pair with h -> diag(2, 1/2) violates g h g = h^-1
    bad = FinRep.from_matrices([[one, zero], [zero, one]],
                               [[rat(2), zero], [zero, rat("1/2")]])
    with pytest.raises(ValueError):
        is_irreducible(bad)


def test_rep_iso_check_examples():
    one = Scalar.one(ORDER)
    r1 = FinRep.from_matrices([[one]], [[one]])
    r2 = FinRep.from_matrices([[-one]], [[one]])
    assert rep_iso_check(r1, r1)
    assert not rep_iso_check(r1, r2)
    cands = simple_modules(rat(0))
    # computed verdict: the two 2-dim modules are isomorphic (swap the
    # g-eigenvectors); deterministic and printed by the acceptance suite
    assert rep_iso_check(cands["s0+"], cands["s0-"]) is True
    lam2 = simple_modules(rat(2))
    assert rep_iso_check(lam2["slam+"], lam2["slam-"]) is False
    # dim mismatch is never isomorphic
    assert not rep_iso_check(r1, cands["s0+"])


def _record_kernel_degrees(monkeypatch):
    kernel = linalg.primitive_echelon_rows
    degrees = []

    def record(rows, ring, reduced=True):
        degrees.append(ring.degree)
        return kernel(rows, ring, reduced)

    monkeypatch.setattr(linalg, "primitive_echelon_rows", record)
    return degrees


def test_is_irreducible_makes_no_kernel_call(monkeypatch):
    # one 2x2 determinant decides it: no rank, no elimination
    degrees = _record_kernel_degrees(monkeypatch)
    base = simple_modules(rat(0))["s0+"]
    twisted = _conjugate_rep(base, [[rat(1), Scalar.zeta(ORDER)], [rat(0), rat(1)]])
    assert is_irreducible(base) and is_irreducible(twisted)
    assert degrees == []


def test_intertwiners_run_on_the_integer_kernel(monkeypatch):
    # rep_iso_check solves through linalg.nullspace, that is on integer
    # rows: over Z for rational matrices and over Z[zeta_12] once an entry
    # is irrational
    degrees = _record_kernel_degrees(monkeypatch)
    s0p, s0m = simple_modules(rat(0)).values()
    assert rep_iso_check(s0p, s0m)
    assert set(degrees) == {1}
    degrees.clear()
    twisted = _conjugate_rep(s0p, [[rat(1), Scalar.zeta(ORDER)], [rat(0), rat(1)]])
    assert rep_iso_check(s0p, twisted)
    assert set(degrees) == {4}


def _conjugate_rep(rep, T):
    Tinv = [[T[1][1], -T[0][1]], [-T[1][0], T[0][0]]]
    det = T[0][0] * T[1][1] - T[0][1] * T[1][0]
    dinv = det.inverse()
    Tinv = [[dinv * c for c in row] for row in Tinv]
    G = mat_mul(mat_mul(T, [list(r) for r in rep.G]), Tinv)
    H = mat_mul(mat_mul(T, [list(r) for r in rep.H]), Tinv)
    return FinRep.from_matrices(G, H)


def _invertible(rng, entry):
    while True:
        T = [[entry() for _ in range(2)] for _ in range(2)]
        if not (T[0][0] * T[1][1] - T[0][1] * T[1][0]).is_zero():
            return T


def test_stability_under_conjugation():
    rng = random.Random(5)
    base = simple_modules(rat(0))["s0+"]
    for _ in range(5):
        conj = _conjugate_rep(base, _invertible(rng, lambda: rat(rng.randint(-3, 3))))
        assert conj.axiom.ok
        assert is_irreducible(conj)
        assert rep_iso_check(base, conj)


def test_commutator_criterion_matches_the_burnside_span():
    rng = random.Random(11)
    one, zero = Scalar.one(ORDER), Scalar.zero(ORDER)
    reps = [rep for lam in (0, 2, -2) for rep in simple_modules(rat(lam)).values()
            if rep.axiom.ok]
    assert len(reps) == 6
    # seeded conjugates T s0 T^-1 over Q and over Q(zeta_12)
    s0 = reps[0]
    for entry in (lambda: rat(rng.randint(-3, 3)),
                  lambda: Scalar(ORDER, [rng.randint(-2, 2) for _ in range(4)])):
        for _ in range(4):
            reps.append(_conjugate_rep(s0, _invertible(rng, entry)))
    # the commuting diagonal pair, and G = diag(1, -1), H = [[1, 1], [0, 1]]:
    # [G, H] = [[0, 2], [0, 0]] has rank 1, and e1 is a common eigenvector
    diag = FinRep.from_matrices([[one, zero], [zero, one]], [[one, zero], [zero, -one]])
    shear = FinRep.from_matrices([[one, zero], [zero, -one]], [[one, one], [zero, one]])
    reps += [diag, shear]
    gh, hg = mat_mul(shear.G, shear.H), mat_mul(shear.H, shear.G)
    commutator = [[x - y for x, y in zip(r, t)] for r, t in zip(gh, hg)]
    assert linalg.exact_rank(commutator) == 1
    verdicts = []
    for rep in reps:
        assert rep.axiom.ok
        verdicts.append(is_irreducible(rep))
        assert verdicts[-1] == burnside_irreducible(rep)
    assert verdicts == [True] * 14 + [False, False]


def test_is_irreducible_refuses_dim_three():
    one, zero = Scalar.one(ORDER), Scalar.zero(ORDER)
    ident = [[one if i == j else zero for j in range(3)] for i in range(3)]
    rep = FinRep.from_matrices(ident, ident)
    assert rep.axiom.ok
    with pytest.raises(ValueError, match="dims <= 2"):
        is_irreducible(rep)


def test_the_axiom_verdict_is_computed_once_per_rep(monkeypatch):
    calls = []
    compute = repn._module_axioms
    monkeypatch.setattr(repn, "_module_axioms", lambda rep: calls.append(rep) or compute(rep))
    cands = simple_modules(rat(0))
    for rep in cands.values():
        first = rep.axiom
        assert first.ok and rep.axiom is first
        assert is_irreducible(rep)
    assert rep_iso_check(cands["s0+"], cands["s0-"])
    assert calls == list(cands.values())
    # the verdict is kept on the object, not keyed by its matrices
    again = FinRep(cands["s0+"].G, cands["s0+"].H)
    assert again == cands["s0+"] and again.axiom.ok
    assert len(calls) == 3

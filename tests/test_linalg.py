import math
import random
from fractions import Fraction

from dinfnichols.field import INTEGERS, Scalar, cyclotomic_ring, real_parts, real_ring
from dinfnichols.linalg import echelon_rows, exact_rank, numeric_rank, primitive_echelon_rows

ORDER = 12


def random_scalar(rng):
    """A nonzero element of Q(zeta_12) with small coefficients."""
    while True:
        x = Scalar.zero(ORDER)
        for k in range(4):
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            x = x + Scalar.from_rational(c, ORDER) * Scalar.zeta(ORDER, k)
        if not x.is_zero():
            return x


def random_rational(rng, height=3):
    """A nonzero rational Scalar with numerator and denominator up to height."""
    n = rng.choice([-1, 1]) * rng.randint(1, height)
    return Scalar.from_rational(Fraction(n, rng.randint(1, height)), ORDER)


def sparse_matrix(rng, rows, cols, deficient, scalar=random_scalar):
    """A rows x cols matrix whose entries are nonzero with probability 0.3.

    When ``deficient``, some rows are replaced by multiples of earlier rows
    and one row by zeros, so the rank falls below the number of rows."""
    zero = Scalar.zero(ORDER)
    a = [[scalar(rng) if rng.random() < 0.3 else zero for _ in range(cols)]
         for _ in range(rows)]
    if deficient:
        for r in rng.sample(range(1, rows), rows // 3):
            f = scalar(rng)
            a[r] = [f * c for c in a[rng.randrange(r)]]
        a[rng.randrange(rows)] = [zero] * cols
    return a


def is_reduced_echelon(rows):
    pivots = []
    for row in rows:
        lead = next((j for j, c in enumerate(row) if not c.is_zero()), None)
        if lead is None or row[lead] != Scalar.one(ORDER):
            return False
        if pivots and lead <= pivots[-1]:
            return False
        pivots.append(lead)
    return all(rows[i][p].is_zero() for p_i, p in enumerate(pivots)
               for i in range(len(rows)) if i != p_i)


def test_sparse_elimination_gives_reduced_echelon_basis():
    # a reduced echelon basis of the row space is unique, so the three
    # checks below pin echelon_rows down completely
    rng = random.Random(20240612)
    deficient_seen = 0
    for case in range(60):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        a = sparse_matrix(rng, rows, cols, deficient=case % 2 == 1 and rows > 1)
        zeros = sum(c.is_zero() for row in a for c in row)
        assert 2 * zeros >= rows * cols
        e = echelon_rows(a)
        assert is_reduced_echelon(e)
        assert len(e) == numeric_rank(a)
        assert exact_rank(a + e) == len(e)
        deficient_seen += len(e) < min(rows, cols)
    assert deficient_seen >= 20


def dense_rational_matrix(rng, rows, cols):
    """Entries with numerators and denominators up to 10^6, plus zero rows,
    duplicate rows and negated rows (so pivots of either sign)."""
    a = [[random_rational(rng, 10 ** 6) for _ in range(cols)] for _ in range(rows)]
    for r in range(1, rows):
        kind = rng.random()
        if kind < 0.15:
            a[r] = [Scalar.zero(ORDER)] * cols
        elif kind < 0.3:
            a[r] = list(a[rng.randrange(r)])
        elif kind < 0.45:
            a[r] = [-c for c in a[rng.randrange(r)]]
    return a


def integer_rows(a):
    """Each row of a rational Scalar matrix times the lcm of its denominators."""
    out = []
    for row in a:
        fractions = [c.as_rational() for c in row]
        scale = math.lcm(*(f.denominator for f in fractions))
        out.append([int(f * scale) for f in fractions])
    return out


def check_primitive_echelon(a):
    expect = echelon_rows(a)
    got = primitive_echelon_rows(integer_rows(a))
    assert len(got) == len(expect)
    for row, e in zip(got, expect):
        assert all(type(x) is int for x in row)
        assert math.gcd(*row) == 1
        pivot = next(x for x in row if x)
        assert pivot > 0
        assert [Scalar.from_rational(Fraction(x, pivot), ORDER) for x in row] == e
    return len(got)


def test_primitive_echelon_rows_match_scalar_elimination():
    # the integer routine against echelon_rows on the same rational matrix:
    # each returned row is primitive and, divided by its pivot, the row of
    # the reduced echelon form
    rng = random.Random(20261019)
    deficient_seen = 0
    for case in range(40):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        a = sparse_matrix(rng, rows, cols, case % 2 == 1 and rows > 1, random_rational)
        deficient_seen += check_primitive_echelon(a) < min(rows, cols)
    for _ in range(20):
        a = dense_rational_matrix(rng, rng.randint(2, 9), rng.randint(1, 9))
        deficient_seen += check_primitive_echelon(a) < min(len(a), len(a[0]))
    assert deficient_seen >= 15
    assert primitive_echelon_rows([]) == [] == echelon_rows([])
    assert primitive_echelon_rows([[], []]) == []
    assert primitive_echelon_rows([[0, 0], [0, 0]]) == []
    assert primitive_echelon_rows([[-4, 6], [2, -3]]) == [[2, -3]]


# -- the integer kernel over Z[zeta_N] ----------------------------------------

def planar_rows(a, order):
    """Each row of a Scalar matrix times the lcm of its denominators, as
    one flat int list of phi planes (plane t: the z^t coefficients)."""
    phi = len(Scalar.one(order).nums)
    out = []
    for row in a:
        scale = math.lcm(*(c.den for c in row))
        out.append([c.nums[t] * (scale // c.den) for t in range(phi) for c in row])
    return out


def scalar_rows(rows, order, width):
    """Flat plane rows back to rows of Scalar."""
    phi = len(Scalar.one(order).nums)
    return [[Scalar(order, [row[t * width + j] for t in range(phi)]) for j in range(width)]
            for row in rows]


def random_cyclotomic(rng, order):
    """A nonzero element of Q(zeta_N) with small numerators and denominators."""
    phi = len(Scalar.one(order).nums)
    while True:
        x = Scalar(order, [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                           if rng.random() < 0.6 else 0 for _ in range(phi)])
        if x:
            return x


def check_cyclotomic_echelon(a, order):
    width = len(a[0])
    expect = echelon_rows(a)
    got = primitive_echelon_rows(planar_rows(a, order), cyclotomic_ring(order))
    assert len(got) == len(expect)
    for row, e in zip(got, expect):
        assert all(type(x) is int for x in row)
        assert math.gcd(*row) == 1
        entries = scalar_rows([row], order, width)[0]
        pivot = next(x for x in entries if x)
        assert pivot.is_rational() and pivot.as_rational() > 0
        assert [x * pivot.inverse() for x in entries] == e
    return len(got)


def test_cyclotomic_echelon_rows_match_scalar_elimination():
    # the integer kernel over Z[zeta_N] against echelon_rows: rows that are
    # z^k or (1 + z) times another row must come out dependent, and each
    # returned row, divided by its rational pivot, is the reduced echelon row
    rng = random.Random(20261019)
    for order in (5, 8, 12):
        zero = Scalar.zero(order)
        z = Scalar.zeta(order)
        deficient_seen = 0
        for case in range(30):
            rows, cols = rng.randint(2, 9), rng.randint(1, 9)
            a = [[random_cyclotomic(rng, order) if rng.random() < 0.4 else zero
                  for _ in range(cols)] for _ in range(rows)]
            if case % 2:
                r, s = rng.sample(range(rows), 2)
                f = z ** rng.randrange(order) if case % 4 == 1 else 1 + z
                a[r] = [f * c for c in a[s]]
                a[rng.randrange(rows)] = [zero] * cols
            rank = check_cyclotomic_echelon(a, order)
            assert rank == exact_rank(a)
            deficient_seen += rank < min(rows, cols)
        assert deficient_seen >= 10
        # one row and z^3 times it: rank 1
        row = [random_cyclotomic(rng, order) for _ in range(4)]
        assert check_cyclotomic_echelon([row, [z ** 3 * c for c in row]], order) == 1
        assert primitive_echelon_rows([], cyclotomic_ring(order)) == []
        assert primitive_echelon_rows([[0] * (2 * len(z.nums))] * 3, cyclotomic_ring(order)) == []


def test_integer_kernel_on_rational_input_is_the_phi_one_kernel():
    # phi = 1 (orders 1 and 2) is the plain integer elimination: Z[zeta_1]
    # and Z[zeta_2] are Z, with z = 1 and z = -1, and give the rows of Z;
    # a rational matrix laid out in planes over Z[zeta_12] gives the same
    # rows with zero planes above the first
    assert cyclotomic_ring(1).wrap == ((0, 1),)
    assert cyclotomic_ring(2).wrap == ((0, -1),)
    rng = random.Random(7)
    for case in range(30):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        a = sparse_matrix(rng, rows, cols, case % 2 == 1 and rows > 1, random_rational)
        plain = integer_rows(a)
        expect = primitive_echelon_rows(plain)
        for order in (1, 2):
            assert primitive_echelon_rows(plain, cyclotomic_ring(order)) == expect
        planar = primitive_echelon_rows([r + [0] * (3 * cols) for r in plain],
                                        cyclotomic_ring(ORDER))
        assert planar == [r + [0] * (3 * cols) for r in expect]


# -- forward elimination, and the real ring Z[w] ------------------------------

def real_rows(rng, order, rows, cols):
    """Random rows over Z[w], w = z + z^-1, as flat planes, and the same
    rows as a Scalar matrix over Q(zeta_N); some rows are others times w or
    1 + w, so the matrix is often rank deficient."""
    degree = real_ring(order).degree
    w = Scalar.zeta(order) + Scalar.zeta(order, -1)
    a = [[sum((rng.randint(-3, 3) * w ** t for t in range(degree)), Scalar.zero(order))
          if rng.random() < 0.5 else Scalar.zero(order) for _ in range(cols)]
         for _ in range(rows)]
    for _ in range(rows // 3):
        r, s = rng.sample(range(rows), 2)
        f = w if rng.random() < 0.5 else 1 + w
        a[r] = [f * c for c in a[s]]
    return [[real_coefficients(c, order)[t] for t in range(degree) for c in row]
            for row in a], a


def real_coefficients(c, order):
    """The Z[w] coefficients of an element c of Z[w] inside Q(zeta_N)."""
    x0, x1 = real_parts(order, [int(v) for v in c.nums])
    assert c.den == 1 and not any(x1), c
    return x0


def ring_cases(rng):
    """(ring, flat int rows, the same rows as Scalars, width) over Z, Z[zeta_N]
    for N = 5, 8, 12, and Z[w] for N = 5, 12, 16."""
    for _ in range(12):
        rows, cols = rng.randint(2, 9), rng.randint(1, 9)
        a = sparse_matrix(rng, rows, cols, rng.random() < 0.5, random_rational)
        yield INTEGERS, integer_rows(a), a, cols
    for order in (5, 8, 12):
        zero = Scalar.zero(order)
        for _ in range(12):
            rows, cols = rng.randint(2, 8), rng.randint(1, 8)
            a = [[random_cyclotomic(rng, order) if rng.random() < 0.4 else zero
                  for _ in range(cols)] for _ in range(rows)]
            if rng.random() < 0.5:
                r, s = rng.sample(range(rows), 2)
                a[r] = [(1 + Scalar.zeta(order)) * c for c in a[s]]
            yield cyclotomic_ring(order), planar_rows(a, order), a, cols
    for order in (5, 12, 16):
        for _ in range(12):
            rows, cols = rng.randint(2, 8), rng.randint(1, 8)
            ints, a = real_rows(rng, order, rows, cols)
            yield real_ring(order), ints, a, cols


def ring_scalars(row, ring, order, width):
    """A flat row of planes over ring as Scalars of Q(zeta_N)."""
    if ring.degree == 1:
        return [Scalar.from_rational(x, order) for x in row]
    g = (Scalar.zeta(order) if ring == cyclotomic_ring(order)
         else Scalar.zeta(order) + Scalar.zeta(order, -1))
    return [sum((row[t * width + j] * g ** t for t in range(ring.degree)), Scalar.zero(order))
            for j in range(width)]


def test_forward_elimination_is_an_echelon_basis_of_the_same_span():
    # reduced=False updates only the rows below each pivot: the rows are in
    # echelon form with positive rational pivots, their number is the rank
    # of the reduced rows, and they span what echelon_rows spans
    rng = random.Random(20261020)
    deficient_seen = 0
    for ring, ints, a, width in ring_cases(rng):
        order = a[0][0].order
        forward = primitive_echelon_rows(ints, ring, reduced=False)
        reduced = primitive_echelon_rows(ints, ring)
        expect = echelon_rows(a)
        assert len(forward) == len(reduced) == len(expect) == exact_rank(a)
        deficient_seen += len(forward) < min(len(a), width)
        leads = []
        for row in forward:
            entries = ring_scalars(row, ring, order, width)
            lead = next(j for j, x in enumerate(entries) if x)
            assert entries[lead].is_rational() and entries[lead].as_rational() > 0
            leads.append(lead)
        assert leads == sorted(set(leads))
        assert echelon_rows([ring_scalars(row, ring, order, width) for row in forward]) == expect
    assert deficient_seen >= 15

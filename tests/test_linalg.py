import random
from fractions import Fraction

from dinfnichols.field import Scalar
from dinfnichols.linalg import echelon_rows, exact_rank, numeric_rank

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


def sparse_matrix(rng, rows, cols, deficient):
    """A rows x cols matrix whose entries are nonzero with probability 0.3.

    When ``deficient``, some rows are replaced by multiples of earlier rows
    and one row by zeros, so the rank falls below the number of rows."""
    zero = Scalar.zero(ORDER)
    a = [[random_scalar(rng) if rng.random() < 0.3 else zero for _ in range(cols)]
         for _ in range(rows)]
    if deficient:
        for r in rng.sample(range(1, rows), rows // 3):
            f = random_scalar(rng)
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

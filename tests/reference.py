"""The reference elimination: Gauss-Jordan over Q(zeta_N) on Scalars.

The library eliminates on integer rows only (linalg.primitive_echelon_rows);
this module keeps the textbook elimination in field arithmetic, one field
inversion per pivot, as the independent check on it.  Its exact_rank and
nullspace have the signatures of the library's.
"""

from dinfnichols.field import Scalar


def row_reduce(a):
    """Reduced row echelon form by Gauss-Jordan elimination.

    Returns (rows, pivots): rows[r] for r < len(pivots) has a 1 in column
    pivots[r] and 0 in every other pivot column; the remaining rows are
    zero.  A row update touches only the columns where the pivot row is
    nonzero.
    """
    rows = [list(r) for r in a]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        piv = next((r for r in range(top, len(rows)) if not rows[r][col].is_zero()), None)
        if piv is None:
            continue
        rows[top], rows[piv] = rows[piv], rows[top]
        inv = rows[top][col].inverse()
        prow = rows[top] = [inv * c for c in rows[top]]
        support = [(j, p) for j, p in enumerate(prow) if not p.is_zero()]
        for r, row in enumerate(rows):
            f = row[col]
            if r != top and not f.is_zero():
                for j, p in support:
                    row[j] = row[j] - f * p
        pivots.append(col)
    return rows, pivots


def echelon_rows(a):
    """The nonzero rows of the reduced row echelon form of a: a basis of
    the row space of a over Q(zeta_N)."""
    rows, pivots = row_reduce(a)
    return rows[:len(pivots)]


def exact_rank(a) -> int:
    """Exact rank over Q(zeta_N)."""
    return len(echelon_rows(a))


def nullspace(a):
    """Basis of the right kernel, one vector per free column: 1 there and
    minus that column of the reduced rows at their pivots."""
    if not a or not a[0]:
        return []
    order = a[0][0].order
    rows, pivots = row_reduce(a)
    zero, one = Scalar.zero(order), Scalar.one(order)
    basis = []
    for fc in range(len(a[0])):
        if fc in pivots:
            continue
        vec = [zero] * len(a[0])
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis

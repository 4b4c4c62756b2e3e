"""Small exact linear algebra over Scalar matrices.

Matrices are lists of lists (rows) of Scalar, all of one cyclotomic order.
Sizes here are small (the Nichols layer hands over one letter-content
block at a time), so everything is dense.  Row basis, rank and kernel all
go through one Gauss-Jordan elimination over Q(zeta_N).
"""

from __future__ import annotations

from .field import Scalar

Matrix = list


def zeros(rows: int, cols: int, order: int) -> list[list[Scalar]]:
    z = Scalar.zero(order)
    return [[z] * cols for _ in range(rows)]


def identity(n: int, order: int) -> list[list[Scalar]]:
    out = zeros(n, n, order)
    one = Scalar.one(order)
    for i in range(n):
        out[i][i] = one
    return out


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = None
            for t in range(k):
                if a[i][t].is_zero() or b[t][j].is_zero():
                    continue
                term = a[i][t] * b[t][j]
                acc = term if acc is None else acc + term
            row.append(acc if acc is not None else Scalar.zero(a[i][0].order))
        out.append(row)
    return out


def mat_eq(a, b) -> bool:
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def _row_reduce(a):
    """Reduced row echelon form by Gauss-Jordan elimination.

    Returns (rows, pivots): rows[r] for r < len(pivots) has a 1 in column
    pivots[r] and 0 in every other pivot column; the remaining rows are
    zero.  One field inversion per pivot; a row update touches only the
    columns where the pivot row is nonzero.
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
    """The nonzero rows of the reduced row echelon form of a.

    They are a basis of the row space of a over Q(zeta_N).
    """
    rows, pivots = _row_reduce(a)
    return rows[:len(pivots)]


def exact_rank(a) -> int:
    """Exact rank over Q(zeta_N)."""
    return len(echelon_rows(a))


def nullspace(a):
    """Basis of the right kernel, as coefficient vectors (lists of Scalar)."""
    if not a:
        return []
    order = a[0][0].order
    rows, pivots = _row_reduce(a)
    ncols = len(rows[0])
    zero, one = Scalar.zero(order), Scalar.one(order)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis


NUMERIC_RANK_TOL = 1e-8


def numeric_rank(a) -> int:
    """Floating-point SVD rank of the complex embedding (independent oracle)."""
    import numpy as np

    if not a or not a[0]:
        return 0
    m = np.array([[c.to_complex() for c in row] for row in a], dtype=complex)
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0:
        return 0
    cutoff = NUMERIC_RANK_TOL * max(float(s[0]), 1.0)
    return int((s > cutoff).sum())

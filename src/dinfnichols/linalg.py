"""Small exact linear algebra over Scalar matrices and integer rows.

Matrices are lists of lists (rows) of Scalar, all of one cyclotomic order.
Sizes here are small (the Nichols layer hands over one letter-content
block at a time), so everything is dense.  Row basis, rank and kernel of
a Scalar matrix go through one Gauss-Jordan elimination over Q(zeta_N)
(_row_reduce).

A rational matrix, its rows cleared of denominators, can also go through
primitive_echelon_rows: the same Gauss-Jordan elimination run
fraction-free on integer rows, for the Nichols layer's rational
braidings.  The tests check it against echelon_rows, which stays the
reference.
"""

from __future__ import annotations

import math

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


def _primitive(row):
    """row divided by the gcd of its entries (a zero row is returned as is)."""
    g = math.gcd(*row)
    return row if g < 2 else [x // g for x in row]


def primitive_echelon_rows(a):
    """Row basis of an integer matrix by fraction-free Gauss-Jordan elimination.

    Over Q a row may be rescaled freely, so rows stay primitive integer
    vectors (entries with gcd 1): a row update is R <- (p/g) R - (f/g) P,
    where P is the pivot row, p its pivot, f the entry of R in the pivot
    column and g = gcd(p, f); the result is divided by its content.  Every
    row is thereby a nonzero rational multiple of the row that exact
    elimination over Q would hold at the same step, so the pivots, hence
    the rank, are exact, and the returned rows are the nonzero rows of the
    reduced row echelon form of a, each scaled to be primitive with a
    positive pivot.  Content removal keeps every row the primitive
    multiple of its exact counterpart, so entries do not grow with the
    number of updates a row has taken.
    """
    rows = [_primitive(list(r)) for r in a]
    top = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        prow = rows[piv]
        if prow[col] < 0:
            prow = [-x for x in prow]
        rows[piv], rows[top] = rows[top], prow
        p = prow[col]
        for r, row in enumerate(rows):
            f = row[col]
            if f and r != top:
                g = math.gcd(p, f)
                s, t = p // g, f // g
                rows[r] = _primitive([s * x - t * y for x, y in zip(row, prow)])
        top += 1
    return rows[:top]


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

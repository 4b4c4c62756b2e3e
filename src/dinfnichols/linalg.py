"""Small exact linear algebra over Scalar matrices and integer rows.

Matrices are lists of lists (rows) of Scalar, all of one cyclotomic order.
Sizes here are small (the Nichols layer hands over one letter-content
block at a time), so everything is dense.  Row basis, rank and kernel of
a Scalar matrix go through one Gauss-Jordan elimination over Q(zeta_N)
(_row_reduce).

A matrix over Q(zeta_N), its rows cleared of denominators, can also go
through primitive_echelon_rows: the same Gauss-Jordan elimination run
fraction-free on integer rows over Z[zeta_N], each row one flat int list
of phi(N) coefficient planes (a plain integer row when phi = 1).  Pivots
are made rational integers by the product of their other Galois
conjugates (field.conjugate_product), so a row update is an integer
combination of whole integer lists.  The Nichols layer eliminates every
block this way.  The tests check it against echelon_rows, which stays the
reference, as do exact_rank and nullspace for the representation layer.
"""

from __future__ import annotations

import math

from .field import Scalar, conjugate_product, zeta_phi


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


def primitive_echelon_rows(a, order: int = 1):
    """Row basis of a matrix over Z[zeta_N] by fraction-free Gauss-Jordan elimination.

    Each row is one flat list of ints holding phi = phi(N) planes of
    equal width: plane t holds the z^t coefficients of the entries, so the
    entry in column j of a row of width w is sum_t row[t*w + j] z^t.  For
    phi = 1 (``order`` 1 or 2, the default) a row is a plain integer row.

    Over Q(zeta_N) a row may be rescaled freely, so rows stay primitive
    integer vectors (all their ints together have gcd 1).  A pivot row is
    first multiplied by the product of the other Galois conjugates of its
    pivot entry (field.conjugate_product), which makes the pivot the
    rational integer N(pivot); it is then made primitive with a positive
    pivot p.  A row update is R <- (p/g) R - sum_a (f_a/g) z^a P, where P
    is the pivot row, f = sum_a f_a z^a the entry of R in the pivot column
    and g = gcd(p, f_0, ..., f_(phi-1)); the result is divided by its
    content.  Each step scales a row by a nonzero rational, so every row is
    a rational multiple of the row that exact elimination over Q(zeta_N)
    would hold at the same step.  The pivots, hence the rank, are exact,
    and the returned rows are the nonzero rows of the reduced row echelon
    form of a, each scaled to be primitive with a positive rational pivot.
    Content removal keeps every row the primitive multiple of its exact
    counterpart, so entries do not grow with the number of updates a row
    has taken.
    """
    if order > 2:  # phi(N) = 1 only for N = 1, 2
        return _cyclotomic_echelon(a, order)
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


def _zeta_powers(row, width, wrap, count):
    """[row, z row, ..., z^(count-1) row] for a flat row of planes of width
    ``width``; z^phi = sum_j c z^j over the pairs (j, c) of ``wrap``."""
    out = [row]
    for _ in range(count - 1):
        top = row[-width:]
        row = [0] * width + row[:-width]
        for j, c in wrap:
            lo = j * width
            row[lo:lo + width] = [x + c * y for x, y in zip(row[lo:lo + width], top)]
        out.append(row)
    return out


def _combine(coeffs, vectors):
    """sum_a coeffs[a] vectors[a] over the nonzero coefficients."""
    acc = None
    for c, v in zip(coeffs, vectors):
        if c:
            acc = [c * y for y in v] if acc is None else [x + c * y for x, y in zip(acc, v)]
    return acc


def _cyclotomic_echelon(a, order):
    """primitive_echelon_rows for phi > 1 (see there)."""
    phi = len(Scalar.one(order).nums)
    rows = [_primitive(list(r)) for r in a]
    width = len(rows[0]) // phi if rows else 0
    wrap = zeta_phi(order)
    top = 0
    for col in range(width):
        found = [(r, e) for r in range(top, len(rows)) for e in (rows[r][col::width],) if any(e)]
        if not found:
            continue
        # any of them will do; one with a rational entry needs no conjugate product
        piv, pentry = next((f for f in found if not any(f[1][1:])), found[0])
        # the pivot row on its support only: compact planes of len(cols)
        prow = rows[piv]
        cols = [j for j in range(width) if any(prow[j::width])]
        idx = [t * width + j for t in range(phi) for j in cols]
        n = len(cols)
        compact = [prow[k] for k in idx]
        if any(pentry[1:]):
            compact = _combine(conjugate_product(order, pentry),
                               _zeta_powers(compact, n, wrap, phi))
        compact = _primitive(compact)
        p = compact[cols.index(col)]
        if p < 0:
            compact, p = [-x for x in compact], -p
        prow = [0] * (phi * width)
        for k, x in zip(idx, compact):
            prow[k] = x
        rows[piv], rows[top] = rows[top], prow
        powers = _zeta_powers(compact, n, wrap, phi)
        for r, row in enumerate(rows):
            f = row[col::width]
            if r != top and any(f):
                g = math.gcd(p, *f)
                s = p // g
                if s != 1:
                    row = [s * x for x in row]
                if g != 1:
                    f = [x // g for x in f]
                for k, d in zip(idx, _combine(f, powers)):
                    row[k] -= d
                rows[r] = _primitive(row)
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

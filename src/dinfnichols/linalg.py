"""Small exact linear algebra over Scalar matrices and integer rows.

Matrices are lists of lists (rows) of Scalar, all of one cyclotomic order.
Sizes here are small (the Nichols layer hands over one letter-content
block at a time), so everything is dense.  Row basis, rank and kernel of
a Scalar matrix go through one Gauss-Jordan elimination over Q(zeta_N)
(_row_reduce).

A matrix over a number field, its rows cleared of denominators, can also
go through primitive_echelon_rows: the same elimination run fraction-free
on integer rows over an integer ring of the field, one loop for every
ring.  The ring comes as data (field.Ring): its degree (the number of
coefficient planes of a row), ``wrap`` (its generator g to the power of the
degree, in lower powers) and ``conj`` (the product of the other Galois
conjugates of an element).  Z (field.INTEGERS, a plain integer row),
Z[zeta_N] (field.cyclotomic_ring, the ring of Scalar arithmetic) and the
real Z[zeta_N + zeta_N^-1] (field.real_ring) all fit; a ring of degree 1,
such as Z[zeta_2] = Z, takes plain integer rows whatever its wrap.
Pivots are made rational integers by conj, so a row update is an integer
combination of whole integer lists.  The Nichols layer eliminates every
block this way, forward only when it needs just the rank.  The tests check
it against echelon_rows, which stays the reference, as do exact_rank and
nullspace for the representation layer.
"""

from __future__ import annotations

import math
from itertools import compress

from .field import INTEGERS, Ring, Scalar


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


def primitive_echelon_rows(a, ring: Ring = INTEGERS, reduced: bool = True):
    """Row basis of a matrix over an integer ring by fraction-free elimination.

    ``ring`` is Z (the default), Z[zeta_N] or the real Z[w] of ``field``.
    Each row is one flat list of ints holding ring.degree planes of equal
    width: plane t holds the g^t coefficients of the entries for the
    ring's generator g, so the entry in column j of a row of width w is
    sum_t row[t*w + j] g^t.  Over Z a row is a plain integer row.

    Over the fraction field a row may be rescaled freely, so rows stay
    primitive integer vectors (all their ints together have gcd 1).  A
    pivot row whose pivot entry is not rational is first multiplied by the
    product of the other Galois conjugates of that entry (ring.conj),
    which makes the pivot its norm, a rational integer; it is then made
    primitive with a positive pivot p.  A row update is
    R <- (p/g) R - sum_a (f_a/g) g^a P, where P is the pivot row,
    f = sum_a f_a g^a the entry of R in the pivot column and
    g = gcd(p, f_0, ..., f_(degree-1)); the result is divided by its
    content.  Each step scales a row by a nonzero rational, so every row is
    a rational multiple of the row that exact elimination would hold at the
    same step, and the pivots, hence the rank, are exact.  Content removal
    keeps entries from growing with the number of updates a row has taken.

    With ``reduced`` (Gauss-Jordan) the returned rows are the nonzero rows
    of the reduced row echelon form of a, each scaled to be primitive with
    a positive rational pivot.  Without it only the rows below a pivot are
    updated (forward elimination): the rows are in echelon form, each with
    a positive rational pivot, and span the same space, so their number is
    still the exact rank.
    """
    degree, wrap, conj = ring
    rows = [_primitive(list(r)) for r in a]
    width = len(rows[0]) // degree if rows else 0
    planar = degree > 1
    top = 0
    for col in range(width):
        # any row will do; one with a rational entry needs no conjugate product
        piv = None
        for r in range(top, len(rows)):
            row = rows[r]
            irrational = planar and any(row[col + width::width])
            if not irrational and row[col]:
                piv = r
                break
            if irrational and piv is None:
                piv = r
        if piv is None:
            continue
        prow = rows[piv]
        entry = prow[col::width]
        if any(entry[1:]):
            prow = _primitive(_combine(conj(entry), _powers(prow, width, wrap, degree)))
        p = prow[col]
        if p < 0:
            prow, p = [-x for x in prow], -p
        rows[piv], rows[top] = rows[top], prow
        first = 0 if reduced else top + 1
        if not planar:
            # plain integer rows: a whole-row update, one gcd for the content
            for r in range(first, len(rows)):
                row = rows[r]
                f = row[col]
                if f and r != top:
                    g = math.gcd(p, f)
                    s, t = p // g, f // g
                    rows[r] = _primitive([s * x - t * y for x, y in zip(row, prow)])
            top += 1
            continue
        # the pivot row and its powers, whole and on their support only
        live = map(any, zip(*[prow[lo:lo + width] for lo in range(0, degree * width, width)]))
        cols = list(compress(range(width), live))
        idx = [lo + j for lo in range(0, degree * width, width) for j in cols]
        powers = _powers(prow, width, wrap, degree)
        compact = [[v[k] for k in idx] for v in powers]
        for r in range(first, len(rows)):
            row = rows[r]
            if (row[col] or any(row[col + width::width])) and r != top:
                rows[r] = _eliminate(row, col, width, p, powers, idx, compact)
        top += 1
    return rows[:top]


def _eliminate(row, col, width, p, powers, idx, compact):
    """row made zero in column col by the pivot row P, whose entry there is
    the positive integer p: (p/g) row - sum_a (f_a/g) g^a P, made primitive
    (see primitive_echelon_rows).  powers[a] is g^a P, compact[a] the same
    at the positions idx, outside which every g^a P vanishes: a row that
    needs no scaling (p/g = 1) is updated in place there only."""
    f = row[col::width]
    g = math.gcd(p, *f)
    s = p // g
    if not any(f[1:]):  # a rational entry: one term
        t = f[0] // g
        if s != 1:
            return _primitive([s * x - t * y for x, y in zip(row, powers[0])])
        for k, y in zip(idx, compact[0]):
            row[k] -= t * y
        return _primitive(row)
    f = [x // g for x in f]
    if s != 1:
        return _primitive([s * x - y for x, y in zip(row, _combine(f, powers))])
    if len(f) == 2:  # the real rings of M = 5, 8, 10, 12: one fused pass
        t, u = f
        for k, y, z in zip(idx, *compact):
            row[k] -= t * y + u * z
        return _primitive(row)
    for k, y in zip(idx, _combine(f, compact)):
        row[k] -= y
    return _primitive(row)


def _powers(row, width, wrap, count):
    """[row, g row, ..., g^(count-1) row] for a flat row of planes of width
    ``width``; g^degree = sum_j c g^j over the pairs (j, c) of ``wrap``."""
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

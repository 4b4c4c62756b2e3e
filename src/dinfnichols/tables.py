"""Closed-form braidings of the four families and the table-vs-composition checker.

This module is the one place that knows each family's closed form: one
table for both reflection families, which differ only in the twist t of
the coset basis u_k (:data:`REFLECTION_TABLE`), and the q-matrix
[[a, a^-1], [a^-1, a]] (h-class) or all ones (one-class, the plain flip)
of the finite families (:func:`closed_form_q`).  These transcriptions are
*checked against* the braiding computed from the coaction-then-action
composition, which is the ground truth; any mismatch is reported with a
witness instead of being patched over.  The reflection table is checked
for all indices, piece by piece, as an identity of affine forms.  Raw
reflection-table output may use boundary labels (b with index 0, or b_1
for the gh-class) that alias scalar multiples of a-vectors; both sides of
a label comparison are canonicalized first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable

from .field import Scalar
from .repn import CheckResult
from .ydmod import (
    BREAK_LABELS,
    Affine,
    BasisVector,
    BraidTerm,
    HClassModule,
    OneClassModule,
    ReflectionClassModule,
    YDModule,
    reported,
)

# Raw table entries: (sign, kind, index) with sign in {+1, -1}.
RawEntry = tuple[int, str, int]
TableFunc = Callable[[BasisVector, BasisVector], RawEntry]

# c(v (x) w) on both reflection families, for v of kind vk and index m, w of
# kind wk and index n, twist t and rho = +-1: one affine piece
# (vk + wk, below, e, kind, index) per kind pair and branch, giving
# rho^e * kind_index (x) v with index the row over (m, n, t, 1).  A piece
# holds where (2m - n < t) is ``below``, or everywhere when that is None.
REFLECTION_TABLE = (
    ("ab", None, 0, "a", (2, 1, -1, 0)),
    ("ba", None, 0, "b", (2, 1, -1, 0)),
    ("aa", True, 0, "b", (-2, 1, 1, 0)),
    ("aa", False, 1, "a", (2, -1, 0, 0)),
    ("bb", True, 0, "a", (-2, 1, 1, 0)),
    ("bb", False, 1, "b", (2, -1, 0, 0)),
)


def _index(row, m, n, t):
    # ints or Affine forms alike
    return row[0] * m + row[1] * n + (row[2] * t + row[3])


def reflection_table(twist: int, rep_sign: int) -> TableFunc:
    """c on a reflection family, read from REFLECTION_TABLE: twist 0 is the
    g-class, 1 the gh-class; rep_sign = rho of the class base point
    (+1 eps / -1 sign)."""

    def entry(v: BasisVector, w: BasisVector) -> RawEntry:
        m, n = v.index, w.index
        for kinds, below, e, kind, row in REFLECTION_TABLE:
            if kinds == v.kind + w.kind and below in (None, 2 * m - n < twist):
                return rep_sign ** e, kind, _index(row, m, n, twist)

    return entry


def closed_form_q(m: YDModule) -> list[list[Scalar]]:
    """The braiding matrix (q_ij) of a finite family, from its parameters."""
    if isinstance(m, HClassModule):
        a, a_inv = m.a, m.a_inv
        return [[a, a_inv], [a_inv, a]]
    if isinstance(m, OneClassModule):
        return [[Scalar.one(m.order)] * m.dim for _ in range(m.dim)]
    raise TypeError(f"no closed-form braiding matrix for {m!r}")


def canonicalize(m: ReflectionClassModule, raw: RawEntry):
    """Resolve boundary aliases to the module's canonical labels: the raw
    label is read as its coset pair by ``m._to_internal`` and spelled back
    by ``m._from_internal``, so b_k with k <= t becomes rho * a_(t-k)."""
    sign, kind, index = raw
    if kind == "a" and index < 0:
        raise ValueError(f"table produced invalid label a_{index}")
    coeff, label = m._from_internal(*m._to_internal(kind, index))
    return (coeff if sign > 0 else -coeff), label


@dataclass(frozen=True)
class TableWitness:
    pair: tuple
    computed: str
    expected: str


def _reflection_table_check(m: ReflectionClassModule) -> CheckResult:
    """Each REFLECTION_TABLE piece against the braiding the module composes
    from its own coaction and action, as an identity in (m, n); then
    ``m.braid`` against the table on the pairs of BREAK_LABELS.

    The pieces are compared in the coset coordinates (s, k) of rho^s u_k,
    in which canonicalize is the identity: the label kind_i is
    ``m._to_internal(kind, i)``, and c(v (x) w) moves w's pair by
    ``m._degree`` of v's coset index.
    """
    mv, nv = Affine.variables("mn")
    t = m.twist
    for kinds, below, e, kind, row in REFLECTION_TABLE:
        deg = m._degree(m._to_internal(kinds[0], mv)[1])
        s, k = m._act_pair(deg.reflection, deg.exponent, *m._to_internal(kinds[1], nv))
        st, kt = m._to_internal(kind, _index(row, mv, nv, t))
        if k != kt or m._units[s] != m._units[st ^ e]:
            branch = {None: "all m, n", True: f"2m-n<{t}", False: f"2m-n>={t}"}[below]
            return CheckResult(False, TableWitness(
                (f"{kinds[0]}_m", f"{kinds[1]}_n", branch),
                computed=f"({m._units[s]})*u_({k})", expected=f"({m._units[st ^ e]})*u_({kt})"))
    table = reflection_table(t, m.rho_sign)
    return _label_check(m, product(BREAK_LABELS, repeat=2),
                        lambda v, w: canonicalize(m, table(v, w)))


def _label_check(m: YDModule, pairs, expected) -> CheckResult:
    for v, w in pairs:
        t = m.braid(v, w)
        coeff, vec = expected(v, w)
        if t.coeff != coeff or t.left != vec or t.right != v:
            witness = TableWitness((str(v), str(w)), computed=str(t),
                                   expected=str(BraidTerm(coeff, vec, v)))
            return CheckResult(False, witness)
    return CheckResult(True)


def braiding_table_check(m: YDModule) -> CheckResult:
    """Compare braid(m, v, w) from act/coact with the closed form.

    For the infinite families each piece of :data:`REFLECTION_TABLE` is
    compared with the module's composed braiding for all indices, then
    ``m.braid`` with the canonicalized table on every pair of
    ``ydmod.BREAK_LABELS``; an exception the module raises is a failure.
    The finite families are checked exhaustively against
    :func:`closed_form_q`.  Returns the first mismatch as a witness.
    """
    if isinstance(m, ReflectionClassModule):
        return reported(_reflection_table_check, m)
    q = closed_form_q(m)
    basis = m.basis()
    position = {v: i for i, v in enumerate(basis)}
    return _label_check(m, product(basis, repeat=2),
                        lambda v, w: (q[position[v]][position[w]], w))

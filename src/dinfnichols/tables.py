"""Closed-form braidings of the four families and the table-vs-composition checker.

This module is the one place that knows each family's closed form: one
table for both reflection families, which differ only in the twist t of
the coset basis u_k (:func:`reflection_table`), and the q-matrix
[[a, a^-1], [a^-1, a]] (h-class) or all ones (one-class, the plain flip)
of the finite families (:func:`closed_form_q`).  These transcriptions are
*checked against* the braiding computed from the coaction-then-action
composition, which is the ground truth; any mismatch is reported with a
witness instead of being patched over.  Raw reflection-table output may use
boundary labels (b with index 0, or b_1 for the gh-class) that alias scalar
multiples of a-vectors; both sides of the comparison are canonicalized first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .field import Scalar
from .repn import CheckResult
from .ydmod import (
    A,
    B,
    BasisVector,
    BraidTerm,
    HClassModule,
    OneClassModule,
    ReflectionClassModule,
    YDModule,
)

# Raw table entries: (sign, kind, index) with sign in {+1, -1}.
RawEntry = tuple[int, str, int]
TableFunc = Callable[[BasisVector, BasisVector], RawEntry]

_OTHER_KIND = {"a": "b", "b": "a"}


def reflection_table(twist: int, rep_sign: int) -> TableFunc:
    """c on a reflection family: twist 0 is the g-class, 1 the gh-class;
    rep_sign = rho of the class base point (+1 eps / -1 sign)."""

    def entry(v: BasisVector, w: BasisVector) -> RawEntry:
        m, n = v.index, w.index
        if v.kind != w.kind:
            return (1, v.kind, 2 * m + n - twist)
        if 2 * m - n < twist:
            return (1, _OTHER_KIND[v.kind], n - 2 * m + twist)
        return (rep_sign, v.kind, 2 * m - n)

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
    """Resolve boundary aliases to the module's canonical labels."""
    sign, kind, index = raw
    if kind == "a":
        if index < 0:
            raise ValueError(f"table produced invalid label a_{index}")
        return m.signs[sign], A(index)
    # b_k = rho * u_{twist - k}; canonical form uses a-labels for k <= twist
    if index > m.twist:
        return m.signs[sign], B(index)
    return m.signs[sign * m.rho_sign], A(m.twist - index)


@dataclass(frozen=True)
class TableWitness:
    pair: tuple
    computed: str
    expected: str


def braiding_table_check(m: YDModule, window: int) -> CheckResult:
    """Compare braid(m, v, w) from act/coact with the closed form.

    For the infinite families all label pairs with indices <= window are
    checked against :func:`reflection_table`; the finite families are
    checked exhaustively against :func:`closed_form_q` (window ignored).
    Returns the first mismatch as a witness.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if isinstance(m, ReflectionClassModule):
        table = reflection_table(m.twist, m.rho_sign)

        def expected(v, w):
            return canonicalize(m, table(v, w))
    else:
        q = closed_form_q(m)
        position = {v: i for i, v in enumerate(m.basis())}

        def expected(v, w):
            return q[position[v]][position[w]], w

    basis = m.basis_window(window)
    for v in basis:
        for w in basis:
            t = m.braid(v, w)
            coeff, vec = expected(v, w)
            if t.coeff != coeff or t.left != vec or t.right != v:
                witness = TableWitness((str(v), str(w)), computed=str(t),
                                       expected=str(BraidTerm(coeff, vec, v)))
                return CheckResult(False, witness)
    return CheckResult(True)

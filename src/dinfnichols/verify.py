"""Property suites behind the `verify` CLI subcommand.

Each suite runs a batch of exact checks and reports one line per check; the
CLI exits nonzero if anything fails.  No suite samples anything or reads
a window, so none takes a seed or a window.

The alambda suite checks finite identities that imply its facts for every
input.  The unit, the 32 generator triples and the defining relations of the
product table (``repn.structure_check``) make word reduction right for all
words; the corner squares (``repn.corner_square_check``) give the corner
power identity for all n.  It proves these facts, the idempotent pair and
the radical lines once with lambda an indeterminate (``repn.LambdaPoly``)
and specialises the proof to each sampled lambda whose product table is the
indeterminate's evaluated there (``repn.table_specialises``).  Otherwise, or
when the proof over Q(zeta_N)[lambda] fails, that lambda is checked on its
own numbers: the idempotent pair once, its corners read from that verified
pair, and a verification that raises recorded as a FAIL line.

The braid, yd and tables suites prove their facts for the reflection
modules for all indices: ``ydmod.reflection_braid_check``,
``ydmod.reflection_yd_check`` and ``tables.braiding_table_check`` run the
module's own action and coaction on affine forms in the indices, and check
``m.act``, ``m.coact`` and ``m.braid`` on the fixed labels
``ydmod.BREAK_LABELS`` around the label translation's break and the
table's branch line.  The braid suite composes the affine braiding
c(u_j (x) u_k) = rho * u_(2j-k) (x) u_j from those helpers, then through
both sides of the braid equation.  A proof step that raises is a FAIL line
with the exception as its witness.  The finite modules are checked against
the data that defines them: their braid equation follows from diagonal type
(``ydmod.diagonal_type``), their relations g^2 = 1 and g h g = h^-1 are
checked on the matrices G and H their action is built from
(``repn.FinRep.axiom``).
"""

from __future__ import annotations

from fractions import Fraction

from .classify import ParamGrid, enumerate_families
from .field import DEFAULT_ORDER, Scalar
from .group import GroupElement
from .repn import (
    CheckResult,
    LambdaPoly,
    corner_data,
    corner_square_check,
    idempotent_pair,
    is_irreducible,
    simple_modules,
    structure_check,
    table_specialises,
)
from .tables import braiding_table_check
from .ydmod import (
    ReflectionClassModule,
    diagonal_type,
    reflection_braid_check,
    reflection_yd_check,
    yd_compat_check,
)


class SuiteResult:
    def __init__(self):
        self.lines = []
        self.failed = 0

    def record(self, name: str, ok: bool, detail: str = ""):
        mark = "PASS" if ok else "FAIL"
        suffix = f"  {detail}" if detail else ""
        self.lines.append(f"[{mark}] {name}{suffix}")
        if not ok:
            self.failed += 1

    def extend(self, other: "SuiteResult"):
        self.lines.extend(other.lines)
        self.failed += other.failed


def _sample_modules(order: int = DEFAULT_ORDER):
    a_values = (Scalar.one(order), -Scalar.one(order),
                Scalar.from_rational(2, order), Scalar.zeta(order, order // 3))
    lambdas = (Scalar.zero(order), Scalar.from_rational(2, order))
    grid = ParamGrid((1, 2), a_values, lambdas)
    return [i.module for i in enumerate_families(grid, order)]


def braid_suite(order: int = DEFAULT_ORDER) -> SuiteResult:
    """The braid equation of each sample module.  The reflection modules are
    proven for all indices by ``ydmod.reflection_braid_check``.  A finite
    module passes when its braiding is of diagonal type: then
    c(x_i (x) x_j) = q_ij x_j (x) x_i, and both sides of the braid equation
    send x_i (x) x_j (x) x_k to q_ij q_ik q_jk x_k (x) x_j (x) x_i."""
    res = SuiteResult()
    for m in _sample_modules(order):
        if isinstance(m, ReflectionClassModule):
            check = reflection_braid_check(m)
        else:
            check = _diagonal_check(m)
        res.record(f"braid equation: {m!r}", check.ok, _failure(check))
    return res


def _diagonal_check(m) -> CheckResult:
    """Diagonal type of a finite module; the witness is the first basis
    pair (v, w), in basis order, with c(v (x) w) not a multiple of w (x) v,
    as (pair, braided, expected) strings."""
    if diagonal_type(m) is not None:
        return CheckResult(True)
    basis = m.basis()
    v, w, t = next((v, w, t) for v in basis for w in basis
                   for t in (m.braid(v, w),) if (t.left, t.right) != (w, v))
    return CheckResult(False, (f"c({v}(x){w})", str(t), f"q*{w}(x){v}"))


def yd_suite(order: int = DEFAULT_ORDER) -> SuiteResult:
    """Three yd facts per sample module.  The reflection modules are proven
    for all indices by ``ydmod.reflection_yd_check``.  A finite module's
    compatibility and degrees are checked on its basis, its relations on the
    matrices G and H that its action is built from."""
    res = SuiteResult()
    for m in _sample_modules(order):
        if isinstance(m, ReflectionClassModule):
            (compat, relations, degrees), distinct = reflection_yd_check(m), "all"
        else:
            compat, relations, degrees, distinct = _finite_yd_checks(m)
        res.record(f"yd compatibility: {m!r}", compat.ok, _failure(compat))
        res.record(f"relations g.(g.v)=v, g.(h.(g.v))=h^-1.v: {m!r}", relations.ok,
                   _failure(relations))
        res.record(f"coaction degrees lie in support and cover: {m!r}", degrees.ok,
                   _failure(degrees) or f"distinct={distinct}")
    return res


def _failure(check: CheckResult) -> str:
    return "" if check.ok or check.witness is None else str(check.witness)


def _finite_yd_checks(m):
    g = GroupElement.g()
    # h-class modules act through <g, h^n>
    rot = GroupElement.h(m.step)
    basis = m.basis()
    compat = all(yd_compat_check(m, x, v) for x in (g, rot) for v in basis)
    degs = {m.coact(v) for v in basis}
    in_class = all(m.support.contains(d) for d in degs)
    count_ok = len(degs) == (2 if m.dim == 2 and m.support.tag == "HPower" else 1)
    return (CheckResult(compat), m.rep.axiom, CheckResult(in_class and count_ok),
            len(degs))


def tables_suite(order: int = DEFAULT_ORDER) -> SuiteResult:
    """``tables.braiding_table_check`` proves the reflection tables for all
    indices and checks the finite ones on their whole basis."""
    res = SuiteResult()
    mods = _sample_modules(order)
    for m in mods:
        check = braiding_table_check(m)
        res.record(f"closed-form table: {m!r}", check.ok, _failure(check))
    for m in mods:
        if m.dim is not None:
            res.record(f"diagonal type exists: {m!r}", diagonal_type(m) is not None)
    return res


def alambda_suite(order: int = DEFAULT_ORDER) -> SuiteResult:
    """The A_lambda facts of five lambdas, proven once with lambda an
    indeterminate (``repn.LambdaPoly``) and specialised to each.

    Each check is an identity between polynomials in lambda, so a proof
    over Q(zeta_N)[lambda] holds at every lambda whose product table is the
    indeterminate's evaluated there (``repn.table_specialises``).  A
    nonzero polynomial can still vanish at one lambda: when the proof over
    Q(zeta_N)[lambda] fails, or a lambda's table does not specialise, that
    lambda's checks run on its own numbers and report their own witnesses.
    """
    res = SuiteResult()
    lambdas = [Scalar.zero(order), Scalar.from_rational(2, order),
               Scalar.from_rational(-2, order), Scalar.from_rational(Fraction(3, 2), order),
               Scalar.zeta(order, order // 3)]
    symbolic = LambdaPoly.indeterminate(order)
    proven = all(ok for ok, _ in _alambda_checks(symbolic))
    for lam in lambdas:
        if proven and table_specialises(symbolic, lam):
            checks = [(True, "")] * len(_ALAMBDA_CHECKS)
        else:
            checks = _alambda_checks(lam)
        for name, (ok, detail) in zip(_ALAMBDA_CHECKS, checks):
            res.record(name.format(lam), ok, detail)
    for lam in lambdas[:3] + [Scalar.from_rational(3, order)]:
        for label, rep in simple_modules(lam).items():
            if rep.axiom.ok:
                res.record(f"simple module irreducible: lambda={lam} {label}",
                           is_irreducible(rep))
            else:
                res.record(
                    f"candidate flagged (expected for lambda not 0,+-2): "
                    f"lambda={lam} {label}",
                    not rep.axiom.ok, f"witness: {rep.axiom.witness}")
    return res


_ALAMBDA_CHECKS = ("word reduction closed and associative: lambda={}",
                   "idempotents verified: lambda={}",
                   "corner power identity: lambda={}",
                   "radical line squares to zero: lambda={} plus",
                   "radical line squares to zero: lambda={} minus")


def _alambda_checks(lam) -> list[tuple[bool, str]]:
    """(ok, witness) of each check of ``_ALAMBDA_CHECKS`` for lam, a Scalar
    or the indeterminate."""
    structure = structure_check(lam)
    out = [(structure.ok, structure.witness or "")]
    # a corrupted table makes the idempotent or radical verification
    # raise; each failure is a FAIL line, so every check still reports
    try:
        pair, failure = idempotent_pair(lam), ""
    except ArithmeticError as exc:
        pair, failure = None, str(exc)
    out.append((pair is not None, failure))
    squares = [corner_square_check(lam, side) for side in ("plus", "minus")]
    out.append((all(squares), "; ".join(c.witness for c in squares if not c.ok)))
    for side in ("plus", "minus"):
        if pair is None:
            failure = "idempotent pair not verified"
        else:
            try:
                # raises unless r^2 = 0 and r kills the corner
                corner_data(pair, side)
                failure = ""
            except ArithmeticError as exc:
                failure = str(exc)
        out.append((not failure, failure))
    return out


SUITES = {"braid": braid_suite, "yd": yd_suite, "tables": tables_suite,
          "alambda": alambda_suite}


def run_suites(names, order: int = DEFAULT_ORDER) -> SuiteResult:
    res = SuiteResult()
    for name in names:
        res.extend(SUITES[name](order=order))
    return res

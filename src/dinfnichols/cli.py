"""Command-line interface.

Subcommands:
  alambda   structure of A_lambda: products, idempotents, radicals, simples
  braiding  braiding table of one family (text or JSON)
  nichols   truncated Hilbert series (CSV) plus a growth verdict (JSON)
  classify  the full classification report against the five-entry list
  verify    run the property suites; exits nonzero on any failure
"""

from __future__ import annotations

import argparse
import json
import sys

from .classify import (
    ParamGrid,
    default_grid,
    report_csv,
    report_json,
    report_text,
    theorem_table,
)
from .field import DEFAULT_ORDER, Scalar
from .nichols import graded_dims, growth_fit
from .repn import alambda_report, simple_modules
from .tables import braiding_table_check
from .verify import SUITES, run_suites
from .ydmod import EPS, REFLECTION_FAMILIES, SIGN, HClassModule, OneClassModule


def _build_module(args, order):
    family = args.family
    try:
        if family == "h-class":
            if args.a is None:
                raise SystemExit("h-class requires --a")
            return HClassModule(args.n, Scalar.parse(args.a, order))
        if family in REFLECTION_FAMILIES:
            if args.rep not in (SIGN, EPS):
                raise SystemExit(f"{family} requires --rep sign|eps")
            return REFLECTION_FAMILIES[family](args.rep, order)
        if family == "one-class":
            if args.rep not in ("s0+", "s0-", "slam+", "slam-"):
                raise SystemExit("one-class requires --rep s0+|s0-|slam+|slam-")
            lam = Scalar.parse(args.lam, order) if args.lam is not None else None
            if args.rep in ("s0+", "s0-"):
                lam = Scalar.zero(order) if lam is None else lam
            elif lam is None:
                raise SystemExit("one-class slam+/slam- requires --lambda")
            rep = simple_modules(lam).get(args.rep)
            if rep is None:
                raise SystemExit(f"no candidate {args.rep} at lambda={lam}")
            if not rep.axiom.ok:
                raise SystemExit(f"candidate {args.rep} at lambda={lam} fails module "
                                 f"axioms: {rep.axiom.witness}")
            return OneClassModule(rep, args.rep)
    except ValueError as exc:
        raise SystemExit(f"{family}: {exc}") from None
    raise SystemExit(f"unknown family {family}")


def _cmd_alambda(args):
    try:
        lam = Scalar.parse(args.lam, args.zeta_order)
    except ValueError as exc:
        raise SystemExit(f"alambda: {exc}") from None
    report = alambda_report(lam)
    if args.report != "structure":
        keys = {"idempotents": ["lambda", "idempotents"],
                "radical": ["lambda", "corners"],
                "simples": ["lambda", "simple_modules"]}[args.report]
        report = {k: report[k] for k in keys}
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_braiding(args):
    order = args.zeta_order
    m = _build_module(args, order)
    basis = m.basis_window(args.window)
    entries = []
    for v in basis:
        for w in basis:
            t = m.braid(v, w)
            entries.append({"left": str(v), "right": str(w),
                            "coeff": str(t.coeff),
                            "out_left": str(t.left), "out_right": str(t.right)})
    if args.format == "json":
        print(json.dumps({"family": args.family, "window": args.window,
                          "entries": entries}, indent=2))
    else:
        for e in entries:
            print(f"c({e['left']} (x) {e['right']}) = "
                  f"({e['coeff']}) {e['out_left']} (x) {e['out_right']}")
    check = braiding_table_check(m)
    if not check.ok:
        print(f"closed-form table mismatch: {check.witness}", file=sys.stderr)
        return 1
    return 0


def _cmd_nichols(args):
    order = args.zeta_order
    m = _build_module(args, order)
    if m.dim is None:
        raise SystemExit("nichols requires a finite-dimensional family "
                         "(infinite support is classified by rule R1)")
    if args.max_degree < 3:
        raise SystemExit(f"nichols: --max-degree {args.max_degree} is below 3, "
                         "the least degree the growth fit needs")
    try:
        prefix = graded_dims(m, args.max_degree)
    except ValueError as exc:
        raise SystemExit(f"nichols: {exc}") from None
    print("degree,dim")
    for n, d in enumerate(prefix):
        print(f"{n},{d}")
    print(json.dumps({"growth": growth_fit(prefix).as_json()}))
    return 0


def _load_grid(path, order):
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"grid file {path} is not JSON: {exc}") from None
    if not isinstance(raw, dict) or not {"n", "a", "lambda"} <= raw.keys():
        raise ValueError(f"grid file {path} must hold a JSON object with keys "
                         "n, a, lambda")
    if not (isinstance(raw["n"], list) and all(type(n) is int for n in raw["n"])):
        raise ValueError("grid key n must be a list of integers")
    for key in ("a", "lambda"):
        if not (isinstance(raw[key], list)
                and all(isinstance(s, str) for s in raw[key])):
            raise ValueError(f"grid key {key} must be a list of scalar strings")
    return ParamGrid.from_strings(raw["n"], raw["a"], raw["lambda"], order)


def _cmd_classify(args):
    order = args.zeta_order
    try:
        grid = _load_grid(args.grid, order) if args.grid else default_grid(order)
        report = theorem_table(grid, order)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"classify: {exc}") from None
    if args.format == "json":
        print(report_json(report))
    elif args.format == "csv":
        print(report_csv(report))
    else:
        print(report_text(report))
    return 0


def _cmd_verify(args):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    res = run_suites(names, order=args.zeta_order)
    for line in res.lines:
        print(line)
    print(f"{len(res.lines) - res.failed}/{len(res.lines)} checks passed")
    return 1 if res.failed else 0


def _add_zeta(p):
    p.add_argument("--zeta-order", type=int, default=DEFAULT_ORDER,
                   help="cyclotomic order N of the scalar field Q(zeta_N)")


def _add_family(p):
    p.add_argument("--family", required=True,
                   choices=["h-class", "g-class", "gh-class", "one-class"])
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--a")
    p.add_argument("--rep")
    p.add_argument("--lambda", dest="lam")


def _add_alambda(sub):
    p = sub.add_parser("alambda", help="structure of A_lambda")
    _add_zeta(p)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--report", default="structure",
                   choices=["structure", "idempotents", "radical", "simples"])
    p.set_defaults(func=_cmd_alambda)


def _add_braiding(sub):
    p = sub.add_parser("braiding", help="braiding table of one family")
    _add_zeta(p)
    _add_family(p)
    p.add_argument("--window", type=int, default=4)
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(func=_cmd_braiding)


def _add_nichols(sub):
    p = sub.add_parser("nichols", help="truncated Hilbert series")
    _add_zeta(p)
    _add_family(p)
    p.add_argument("--max-degree", type=int, default=6)
    p.set_defaults(func=_cmd_nichols)


def _add_classify(sub):
    p = sub.add_parser("classify", help="classification report")
    _add_zeta(p)
    p.add_argument("--all", action="store_true",
                   help="classify every family on the grid (default behaviour)")
    p.add_argument("--grid", help="JSON file with keys n, a, lambda")
    p.add_argument("--format", default="text", choices=["text", "json", "csv"])
    p.set_defaults(func=_cmd_classify)


def _add_verify(sub):
    p = sub.add_parser("verify", help="run property suites")
    _add_zeta(p)
    p.add_argument("--suite", default="all",
                   choices=sorted(SUITES) + ["all"])
    p.add_argument("--window", type=int, default=8,
                   help="accepted for older scripts; no suite reads it, so it changes no output")
    p.add_argument("--seed", type=int, default=0,
                   help="accepted for older scripts; no suite samples, so it "
                        "changes no output")
    p.set_defaults(func=_cmd_verify)


# subcommand name -> builder of its subparser, in the order of the help text
SUBCOMMANDS = {"alambda": _add_alambda, "braiding": _add_braiding,
               "nichols": _add_nichols, "classify": _add_classify,
               "verify": _add_verify}


def _parser(only=None):
    """The argument parser, with every subcommand or only the one named.

    The top-level usage line lists the subcommands that were built, so
    every message that prints it (help, a missing or unknown command, the
    range checks of main) comes from the full parser.
    """
    parser = argparse.ArgumentParser(
        prog="dinfnichols",
        description="Yetter-Drinfeld modules, braidings and truncated Nichols "
                    "algebras over the infinite dihedral group")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, build in SUBCOMMANDS.items():
        if only in (None, name):
            build(sub)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a known subcommand parses with its own subparser only
    args, extra = _parser(argv[0] if argv and argv[0] in SUBCOMMANDS else None
                          ).parse_known_args(argv)
    if extra:
        _parser().error(f"unrecognized arguments: {' '.join(extra)}")
    if getattr(args, "window", 1) < 1:
        _parser().error("--window must be >= 1")
    if args.zeta_order < 1:
        _parser().error("--zeta-order must be >= 1")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

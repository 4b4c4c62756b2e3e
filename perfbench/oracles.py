"""Output oracles for the benchmark's operations.

None of them calls the exact-rank path: Hilbert prefixes come from closed
forms, the classification report is checked against its JSON schema, the
closed forms and a golden copy made at the commit that added the benchmark,
and the verify suites against their fixed check counts.  Each check returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import copy
import json
from fractions import Fraction
from pathlib import Path

GOLDEN_REPORT = Path(__file__).resolve().parent / "golden" / "classify-default.json"
GOLDEN_GENERIC_A = "2"        # the a^2 != 1 value of the default grid

# Lines printed per verify suite, independent of --window and --seed:
#   braid    one per sample module (8 h-class, 4 reflection, 4 one-class)
#   yd       three per sample module
#   tables   one per sample module plus one per finite sample module (12)
#   alambda  five per lambda (5 lambdas) plus one per simple-module
#            candidate at lambda in {0, 2, -2, 3} (2 each)
VERIFY_CHECKS = {"braid": 16, "yd": 48, "tables": 28, "alambda": 33}

# h-class with a = z^4 (order 3) over Q(zeta_12).  No closed form is used
# here; the values are the exact ranks at the commit that added the
# benchmark, cross-checked against linalg.numeric_rank (floating-point SVD)
# of nichols.quantum_symmetrizer at every degree; selftest.py repeats the
# cross-check.
Z4_PREFIX = (1, 2, 4, 6, 10, 16, 24)


def generic_prefix(max_degree: int) -> list[int]:
    """Hilbert prefix of B(V) for h-class a not a root of unity of order
    <= max_degree: B(V) is U_q^+(A1^(1)) (Rosso 1998), with series
    prod_{m odd} (1 - t^m)^-2 * prod_{m even} (1 - t^m)^-1."""
    series = [1] + [0] * max_degree
    for m in range(1, max_degree + 1):
        for _ in range(2 if m % 2 else 1):
            for k in range(m, max_degree + 1):
                series[k] += series[k - m]
    return series


def expected_prefix(a: str, max_degree: int) -> list[int]:
    """dim B^k(V) for k = 0..max_degree of the h-class family with
    parameter a, where a is 1, -1, z^4, a rational other than +-1, or a
    primitive 12th root of unity."""
    if a == "1":                                  # symmetric algebra, (1-t)^-2
        return list(range(1, max_degree + 2))
    if a == "-1":                                 # exterior algebra, (1+t)^2
        return [1, 2, 1] + [0] * (max_degree - 2)
    if a == "z^4":
        return list(Z4_PREFIX[:max_degree + 1])
    return generic_prefix(max_degree)


def check_hilbert(code: int, out: str, a: str, max_degree: int) -> list[str]:
    """Output of `nichols --family h-class ... --max-degree D`."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    lines = out.splitlines()
    if len(lines) != max_degree + 3 or lines[0] != "degree,dim":
        return problems + [f"malformed output: {out[:200]!r}"]
    try:
        rows = [tuple(int(x) for x in line.split(",")) for line in lines[1:-1]]
        json.loads(lines[-1])["growth"]
    except (ValueError, KeyError) as exc:
        return problems + [f"malformed output ({exc}): {out[:200]!r}"]
    if [k for k, _ in rows] != list(range(max_degree + 1)):
        problems.append(f"degrees {[k for k, _ in rows]}")
    dims = [d for _, d in rows]
    want = expected_prefix(a, max_degree)
    if dims != want:
        problems.append(f"a={a}: prefix {dims} != expected {want}")
    return problems


def check_verify(code: int, out: str, suite: str) -> list[str]:
    """Output of `verify --suite S`: every line passes, and there are as
    many lines as the suite has checks."""
    lines = out.splitlines()
    want = VERIFY_CHECKS[suite]
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if not lines or lines[-1] != f"{want}/{want} checks passed":
        problems.append(f"summary {lines[-1:]!r}, expected {want}/{want}")
    checks = lines[:-1]
    if len(checks) != want:
        problems.append(f"{len(checks)} check lines, expected {want}")
    problems += [f"not passed: {line}" for line in checks
                 if not line.startswith("[PASS] ")]
    return problems


def _row_key(row) -> str:
    return json.dumps([row["family"], row["params"]], sort_keys=True)


def check_report(code: int, out: str, grid: dict, golden: str) -> list[str]:
    """Output of `classify --all --format json` on a grid that is the
    default grid with its a^2 != 1 value (a rational) replaced by another."""
    import jsonschema
    from dinfnichols.classify import REPORT_SCHEMA

    problems = [f"exit code {code}"] if code != 0 else []
    try:
        report = json.loads(out)
    except ValueError as exc:
        return problems + [f"report is not JSON: {exc}"]
    problems += [f"schema: {err.message}" for err in
                 jsonschema.Draft7Validator(REPORT_SCHEMA).iter_errors(report)]
    if problems:
        return problems

    reference = json.loads(golden)
    generic = [a for a in grid["a"] if a not in ("1", "-1")]
    if report["grid"] != grid or len(generic) != 1:
        problems.append(f"grid {report['grid']} != {grid}")
    if report["theorem_comparison"] != reference["theorem_comparison"]:
        problems.append("theorem comparison differs from the golden report")

    # expected rows: the golden rows, with the generic a swapped in
    a = generic[0] if generic else GOLDEN_GENERIC_A
    a_inv = str(1 / Fraction(a))
    expected = {}
    for row in reference["families"]:
        row = copy.deepcopy(row)
        if row["family"] == "h-class" and row["params"]["a"] == GOLDEN_GENERIC_A:
            row["params"]["a"] = a
            row["evidence"]["braiding_matrix"] = [[a, a_inv], [a_inv, a]]
        expected[_row_key(row)] = row
    got = {_row_key(row): row for row in report["families"]}
    if len(got) != len(report["families"]) or got.keys() != expected.keys():
        problems.append(f"family rows {sorted(got)} != {sorted(expected)}")
    for key, row in got.items():
        if key in expected and row != expected[key]:
            problems.append(f"row {key} differs from the expected row")
        problems += _closed_form_problems(row)

    if a == GOLDEN_GENERIC_A and out != golden:
        problems.append("report is not byte-identical to the golden copy")
    return problems


def _closed_form_problems(row) -> list[str]:
    prefix = row["evidence"].get("hilbert_prefix")
    if prefix is None:
        return []
    degree = len(prefix) - 1
    params = row["params"]
    if row["family"] == "h-class":
        want = expected_prefix(params["a"], degree)
    elif params["rep"] in ("s0+", "s0-"):         # trivial braiding, dim 2
        want = list(range(1, degree + 2))
    else:                                         # trivial braiding, dim 1
        want = [1] * (degree + 1)
    if prefix != want:
        return [f"{row['family']} {params}: prefix {prefix} != closed form {want}"]
    return []

"""The benchmark's workloads: lists of CLI operations with their oracles.

Each workload is a closed loop of operations driven from one client in one
process; an operation is one call of ``dinfnichols.cli.main`` with the argv a
user would type.  The seed picks the inputs; seed 0 is the canonical input.

* classify-report: the headline command, ``classify --all --format json``.
  Its evidence cache shares work: the 15 finite-dimensional instances of the
  default grid need only 4 symmetrizer computations.  A seed other than 0
  swaps the grid's a^2 != 1 value for another rational from RATIONALS.
* hilbert-sweep: ``nichols`` for the h-class at degree 6, once per arithmetic
  regime of the exact rank: a = +-1 (rational, many zeros), a rational
  (Fraction height growth), a primitive 12th root of unity (dense cyclotomic
  coefficients) and z^4 (order 3).  No work is shared between operations.
  Degree 7 is left out: one such operation takes most of a run.
* verify-suites: the four ``verify`` suites at window 8.  About 120k
  braidings and almost no rank work, so it is the control for changes to
  nichols/linalg; its ~350k field products are tiny (braiding coefficients)
  where elimination multiplies large operands.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import oracles

WORKLOADS = ("classify-report", "hilbert-sweep", "verify-suites")

RATIONALS = ("2", "3", "1/2", "-2", "3/2")     # a^2 != 1, not roots of unity
ROOTS = ("z", "z^5", "z^7", "z^11")             # primitive 12th roots of unity
N_VALUES = (1, 2, 3)
SUITES = ("braid", "yd", "tables", "alambda")

DEGREE, SMOKE_DEGREE = 6, 4
WINDOW, SMOKE_WINDOW = 8, 3


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]
    check: Callable[[int, str], list]   # (exit code, stdout) -> problems
    scalars: tuple[str, ...] = ()       # field inputs the operation parses


def build(workload: str, seed: int, workdir: Path, smoke: bool = False) -> list[Op]:
    """The operations of one pass over ``workload`` for ``seed``.

    ``workdir`` receives input files (the classify grid).  ``smoke`` lowers
    the degree and window so that a pass takes seconds; the classifier's
    evidence degree is fixed in the program, so classify-report is the same.
    """
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if workload == "classify-report":
        return [_classify_op(seed, workdir)]
    if workload == "hilbert-sweep":
        degree = SMOKE_DEGREE if smoke else DEGREE
        n = N_VALUES[seed % len(N_VALUES)]
        values = ("1", "-1", RATIONALS[seed % len(RATIONALS)],
                  ROOTS[seed % len(ROOTS)], "z^4")
        return [Op(f"nichols n={n} a={a}",
                   ("nichols", "--family", "h-class", "--n", str(n), f"--a={a}",
                    "--max-degree", str(degree)),
                   partial(oracles.check_hilbert, a=a, max_degree=degree), (a,))
                for a in values]
    if workload == "verify-suites":
        window = SMOKE_WINDOW if smoke else WINDOW
        return [Op(f"verify {suite}",
                   ("verify", "--suite", suite, "--window", str(window),
                    "--seed", str(seed)),
                   partial(oracles.check_verify, suite=suite))
                for suite in SUITES]
    raise ValueError(f"unknown workload {workload!r}")


def _classify_op(seed: int, workdir: Path) -> Op:
    from dinfnichols.classify import default_grid

    grid = default_grid().as_json()
    golden = oracles.GOLDEN_REPORT.read_text()
    argv = ("classify", "--all", "--format", "json")
    if seed:
        generic = [i for i, a in enumerate(grid["a"]) if a not in ("1", "-1")]
        grid["a"][generic[0]] = RATIONALS[seed % len(RATIONALS)]
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / f"grid-seed{seed}.json"
        path.write_text(json.dumps(grid))
        argv += ("--grid", str(path))
    return Op(f"classify a={grid['a']}", argv,
              partial(oracles.check_report, grid=grid, golden=golden),
              tuple(grid["a"] + grid["lambda"]))

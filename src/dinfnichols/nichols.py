"""Degree-truncated Nichols algebra computation for diagonal braidings.

Every finite-dimensional family here is of diagonal type,
c(x_i (x) x_j) = q_ij x_j (x) x_i with (q_ij) from ydmod.diagonal_type.
The degree-n component of the Nichols algebra is the image of the quantum
symmetrizer Sym_n, the sum over S_n of the braid lifts of permutations, and
dim B^n(V) is its exact rank over Q(zeta_N).

The length-additive coset factorization
  Sym_n = (sum_{j=1..n} c_j c_{j+1} ... c_{n-1}) . (Sym_{n-1} (x) id)
reads, on words u, w of letter indices (letter i is m.basis()[i]),
  Sym_n[u, w] = sum_{j: u_j = w_n} prod_{k>j} q(u_k, u_j) Sym_{n-1}[u - u_j, w - w_n]
with Sym_0 = 1; it is the same matrix as the naive n!-term sum (the tests
compare the two for small n).  A diagonal braiding only permutes letters, so
Sym_n is block diagonal by letter content (the multiset of letters of a
word) and its rank is the sum of the block ranks.

Infinite-dimensional modules and braidings that are not diagonal are
rejected.  Operations refuse degrees past DEGREE_CAP instead of switching to
approximation; the floating-point route exists only as an independent
cross-check oracle (linalg.numeric_rank).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Optional

from . import linalg
from .field import Scalar
from .ydmod import YDModule, diagonal_type

DEGREE_CAP = 8


def _braiding_matrix(m: YDModule):
    """(q_ij) of m, rows and columns in the order of ``m.basis()``."""
    q = diagonal_type(m)  # raises ValueError for infinite modules
    if q is None:
        raise ValueError(f"{m!r} is not of diagonal type")
    return q


def _check_degree(degree: int):
    if degree > DEGREE_CAP:
        raise ValueError(f"degree {degree} exceeds the degree cap {DEGREE_CAP}")


def _symmetrizer_rows(q, order: int):
    """row(u) = {w: Sym_n[u, w]} for a word u of letter indices, n = len(u).

    The keys w have the letter content of u.  Rows are memoized for the
    lifetime of the returned function.
    """
    one = Scalar.one(order)
    memo = {(): {(): one}}

    def row(u):
        if u not in memo:
            out = {}
            for j, x in enumerate(u):
                coeff = math.prod((q[y][x] for y in u[j + 1:]), start=one)
                for w, v in row(u[:j] + u[j + 1:]).items():
                    key, term = w + (x,), coeff * v
                    out[key] = out[key] + term if key in out else term
            memo[u] = out
        return memo[u]

    return row


def quantum_symmetrizer(m: YDModule, degree: int):
    """Matrix of Sym_n in the word basis of V^(x)n; column w is Sym_n(w).

    Words are ordered lexicographically in the letters of ``m.basis()``.
    The matrix is zero off the letter-content blocks.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    _check_degree(degree)
    q = _braiding_matrix(m)
    row = _symmetrizer_rows(q, m.order)
    words = list(product(range(len(q)), repeat=degree))
    index = {w: k for k, w in enumerate(words)}
    out = linalg.zeros(len(words), len(words), m.order)
    for i, u in enumerate(words):
        for w, v in row(u).items():
            out[i][index[w]] = v
    return out


@dataclass(frozen=True)
class HilbertPrefix:
    """dims[n] = dim B^n(V) for n = 0..N."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if not self.dims or self.dims[0] != 1:
            raise ValueError("dims[0] must be 1")
        if any(d < 0 for d in self.dims):
            raise ValueError("graded dimensions are non-negative")

    def __iter__(self):
        return iter(self.dims)

    def __getitem__(self, i):
        return self.dims[i]

    def __len__(self):
        return len(self.dims)


def graded_dims(m: YDModule, max_degree: int) -> HilbertPrefix:
    """Exact graded dimensions of the Nichols algebra up to max_degree."""
    _check_degree(max_degree)
    q = _braiding_matrix(m)
    row = _symmetrizer_rows(q, m.order)
    zero = Scalar.zero(m.order)
    dims = [1]
    for n in range(1, max_degree + 1):
        blocks = {}
        for u in product(range(len(q)), repeat=n):
            blocks.setdefault(tuple(sorted(u)), []).append(u)
        dims.append(sum(
            linalg.exact_rank([[row(u).get(w, zero) for w in words] for u in words])
            for words in blocks.values()))
    return HilbertPrefix(tuple(dims))


# -- growth analysis ----------------------------------------------------------

POLYNOMIAL = "PolynomialDegree"
TERMINATES = "TerminatesAt"
SUPERPOLYNOMIAL = "SuperPolynomialSuspected"
INCONCLUSIVE = "Inconclusive"

_RATIO_MARGIN = 0.25


@dataclass(frozen=True)
class GrowthFit:
    kind: str
    value: Optional[int] = None

    def __str__(self):
        if self.value is None:
            return self.kind
        return f"{self.kind}({self.value})"

    def as_json(self):
        out = {"kind": self.kind}
        if self.value is not None:
            out["value"] = self.value
        return out


def growth_fit(prefix) -> GrowthFit:
    """Heuristic GK-dimension estimate from a Hilbert prefix.

    Order of tests: a tail of >= 3 zeros means the algebra terminates
    (estimate 0); persistently large dim ratios suggest superpolynomial
    growth; otherwise the estimate is the minimal degree of a polynomial
    interpolating the cumulative sums on the last half of the prefix.
    Always an estimate from a truncation, never a proof.
    """
    dims = list(prefix.dims if isinstance(prefix, HilbertPrefix) else prefix)
    if len(dims) < 4:
        raise ValueError("growth_fit needs a prefix of length >= 4")
    # a zero followed by a nonzero cannot happen for monomial braidings;
    # treat it as evidence of a bug rather than growth data
    for i in range(len(dims) - 1):
        if dims[i] == 0 and dims[i + 1] != 0:
            return GrowthFit(INCONCLUSIVE)
    if dims[-1] == 0:
        zeros = 0
        for d in reversed(dims):
            if d != 0:
                break
            zeros += 1
        if zeros >= 3:
            return GrowthFit(TERMINATES, len(dims) - zeros)
        return GrowthFit(INCONCLUSIVE)
    half = (len(dims) + 1) // 2
    ratios = [dims[i + 1] / dims[i] for i in range(len(dims) - 1)]
    tail = ratios[-half:]
    if tail and all(r >= 1 + _RATIO_MARGIN for r in tail):
        return GrowthFit(SUPERPOLYNOMIAL)
    sums = []
    acc = 0
    for d in dims:
        acc += d
        sums.append(acc)
    pts = sums[-half:]
    level = pts
    degree = 0
    while len(set(level)) > 1:
        level = [b - a for a, b in zip(level, level[1:])]
        degree += 1
    return GrowthFit(POLYNOMIAL, degree)

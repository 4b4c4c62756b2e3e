"""Degree-truncated Nichols algebra computation for diagonal braidings.

Every finite-dimensional family here is of diagonal type,
c(x_i (x) x_j) = q_ij x_j (x) x_i with (q_ij) from ydmod.diagonal_type.
The degree-n component of the Nichols algebra is the image of the quantum
symmetrizer Sym_n, the sum over S_n of the braid lifts of permutations, and
dim B^n(V) is its exact rank over Q(zeta_N).

The length-additive coset factorization
  Sym_n = T_n . (Sym_{n-1} (x) id),  T_n = sum_{j=1..n} c_j c_{j+1} ... c_{n-1},
reads, on words u, w of letter indices (letter i is m.basis()[i]),
  Sym_n[u, w] = sum_{j: u_j = w_n} prod_{k>j} q(u_k, u_j) Sym_{n-1}[u - u_j, w - w_n]
with Sym_0 = 1; it is the same matrix as the naive n!-term sum (the tests
compare the two for small n).  A diagonal braiding only permutes letters, so
Sym_n is block diagonal by letter content (the multiset of letters of a
word) and its rank is the sum of the block ranks.

graded_dims never builds Sym_n.  The factorization gives
  im Sym_n = T_n(im Sym_{n-1} (x) V),
and T_n(u (x) x) inserts the letter x into the word u at every position,
with coefficient prod q(u_k, x) over the letters u_k it passes.  So a basis
of B^n on a content block comes from eliminating the images T_n(b (x) x) of
the basis vectors b of B^{n-1}, and the work per degree scales with
dim B^{n-1} . dim V instead of the number of words.  quantum_symmetrizer
keeps the full matrix as the independent oracle.

A basis of B^n on a block is needed only up to its span, so each basis
vector may be rescaled by any nonzero scalar, and the recursion runs on
integer rows for every braiding, over Z[zeta_M] with M = N/e and e the
gcd of N and every exponent of z in the q_ij (_subfield): a row is one
flat int list of phi(M) coefficient planes, and a rational (q_ij) (the
h-class at a = +-1 and a rational a^2 != 1, the one-class modules) is
M = 1, a plain integer row.  Insertion coefficients are cleared of
denominators once per block and letter.  Each block is eliminated
fraction-free (linalg.primitive_echelon_rows); a pivot row is multiplied
by the product of the other Galois conjugates of its pivot, which makes
the pivot a rational integer, so a row update is an integer combination
of integer lists.  Every step scales a row by a nonzero rational, so each
row stays a rational multiple of the row exact elimination over
Q(zeta_M) would give, and the ranks (those over Q(zeta_N)) are exact.
linalg.echelon_rows on Scalar rows stays the oracle.

Infinite-dimensional modules and braidings that are not diagonal are
rejected.  Operations refuse degrees past DEGREE_CAP instead of switching to
approximation; the floating-point route exists only as an independent
cross-check oracle (linalg.numeric_rank).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Optional

from . import linalg
from .field import Scalar, cyclotomic_polynomial, mul_nums, zeta_phi
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


def _insertion_map(num, den, one, words, rows, x, memo):
    """T_n(u (x) x) for each word u of a block, as [(word, coefficient)].

    Inserting x at position j of u passes the letters u_k, k >= j, so the
    coefficient is prod_{k>=j} q(u_k, x).  With q = num / den entrywise it
    is computed as prod_{k>=j} num(u_k, x) . prod_{k<j} den(u_k, x), that
    is multiplied by prod_k den(u_k, x); that factor depends only on the
    letter content of u, so it is one integer for the whole block (den is
    None when every den is 1).  The products over a suffix of u are kept
    in memo, keyed by (x, suffix), for the other words that end in it.
    Equal words from adjacent positions are merged and zero sums dropped;
    words on which every row of the block vanishes get an empty list.
    """
    imap = []
    for u, column in zip(words, zip(*rows)):
        merged = {}
        if any(column):
            if den is not None:
                kept = [1]
                for y in u:
                    kept.append(kept[-1] * den[y][x])
            passed = one
            for j in range(len(u), -1, -1):
                w = u[:j] + (x,) + u[j:]
                c = passed if den is None else kept[j] * passed
                merged[w] = merged[w] + c if w in merged else c
                if j:
                    key = (x, u[j - 1:])
                    if key not in memo:
                        memo[key] = passed * num[u[j - 1]][x]
                    passed = memo[key]
        imap.append([(w, c) for w, c in merged.items() if c])
    return imap


def _planar_insertion_map(num, den, one, mul, words, rows, x, memo):
    """_insertion_map over Z[zeta_N], split by powers of z.

    The num entries and the coefficients are lists of phi ints, multiplied
    by ``mul``; rows are flat lists of phi planes over words.  Returns
    (s, imap_s) for each s where some coefficient has a nonzero z^s part,
    imap_s[k] = [(word, that part)] for the k-th word.
    """
    width = len(words)
    live = [any(col) for col in zip(*rows)]
    imap = []
    for k, u in enumerate(words):
        merged = {}
        if any(live[k::width]):
            if den is not None:
                kept = [1]
                for y in u:
                    kept.append(kept[-1] * den[y][x])
            passed = one
            for j in range(len(u), -1, -1):
                w = u[:j] + (x,) + u[j:]
                c = passed if den is None else [kept[j] * y for y in passed]
                merged[w] = [a + b for a, b in zip(merged[w], c)] if w in merged else c
                if j:
                    key = (x, u[j - 1:])
                    if key not in memo:
                        memo[key] = mul(passed, num[u[j - 1]][x])
                    passed = memo[key]
        imap.append(merged.items())
    out = []
    for s in range(len(one)):
        part = [[(w, c[s]) for w, c in targets if c[s]] for targets in imap]
        if any(part):
            out.append((s, part))
    return out


def _accumulate(out, plane, imap):
    """out += the image of a row (or one plane of it) under imap."""
    for v, targets in zip(plane, imap):
        if v:
            for w, c in targets:
                p = v * c
                out[w] = out[w] + p if w in out else p
    return out


def _planar_image(b, imaps, width, wrap):
    """T_n(b (x) x) as one {word: int} per plane, for a row b of planes.

    Plane t of b times the z^s part of the insertion map lands on
    z^(t+s).  z^e for e >= phi is folded back, highest e first, as
    z^(e-phi) z^phi with z^phi = sum_j r z^j over the pairs (j, r) of wrap.
    """
    planes = len(b) // width
    out = [{} for _ in range(2 * planes - 1)]
    for t in range(planes):
        plane = b[t * width:(t + 1) * width]
        for s, imap in imaps:
            _accumulate(out[t + s], plane, imap)
    for e in range(2 * planes - 2, planes - 1, -1):
        for j, r in wrap:
            o = out[e - planes + j]
            for w, v in out[e].items():
                o[w] = o[w] + r * v if w in o else r * v
    return out[:planes]


def _rational_block(parts, num, den, memo):
    """(words, integer rows) spanning a block when every q_ij is rational."""
    gens = []
    for words, rows, x in parts:
        imap = _insertion_map(num, den, 1, words, rows, x, memo)
        gens.extend(_accumulate({}, b, imap) for b in rows)
    words = sorted(set().union(*gens))
    return words, linalg.primitive_echelon_rows([[g.get(w, 0) for w in words] for g in gens])


def _cyclotomic_block(parts, num, den, order, one, wrap, memo):
    """(words, rows of planes over Z[zeta_order]) spanning a block."""
    mul = partial(mul_nums, order)
    gens = []
    for words, rows, x in parts:
        imaps = _planar_insertion_map(num, den, one, mul, words, rows, x, memo)
        gens.extend(_planar_image(b, imaps, len(words), wrap) for b in rows)
    words = sorted(set().union(*(o for g in gens for o in g)))
    return words, linalg.primitive_echelon_rows(
        [[o.get(w, 0) for o in g for w in words] for g in gens], order)


def _mirrored(rows, planes):
    """rows with each of their planes reversed."""
    if planes == 1:
        return [r[::-1] for r in rows]
    out = []
    for r in rows:
        width, rev = len(r) // planes, r[::-1]
        out.append([v for lo in range(len(r) - width, -1, -width) for v in rev[lo:lo + width]])
    return out


def _subfield(q, order):
    """(M, numerators) of (q_ij) over Z[w], w = z^e a primitive M-th root.

    e is the gcd of N = ``order`` and every i with a nonzero z^i part in
    some q_ij, and M = N/e.  numerators[i][j] is v.nums[::e] of v = q_ij,
    zero-padded to phi(M) ints: its coefficients over 1, w, ..., already
    reduced, as j e < phi(e M) <= e phi(M).  A rational (q_ij) is M = 1.
    Not always the least field: z^3 at N = 15 has order 5, but its inverse
    z^12 reduces off the multiples of 3, so M stays 15.
    """
    e = math.gcd(order, *(i for row in q for v in row for i, c in enumerate(v.nums) if c))
    phi = len(cyclotomic_polynomial(order // e)) - 1
    return order // e, [[list(v.nums[::e]) + [0] * (phi - len(v.nums[::e])) for v in row]
                        for row in q]


def graded_dims(m: YDModule, max_degree: int) -> HilbertPrefix:
    """Exact graded dimensions of the Nichols algebra up to max_degree.

    The image recursion of the module docstring.  blocks[c] = (words,
    rows) for the block of letter content c (c[i] = how often letter i
    occurs): rows is a basis of B^n on that block, each row a list of
    coefficients over words, the words of content c that occur in the
    images spanning the block, in lexicographic order.  A degree-n
    block c is spanned by T_n(b (x) x) over the letters x in c and the
    rows b of blocks[c - x]; one elimination per block gives its basis,
    and dim B^n is the sum of the block dimensions.

    Only the span of a block matters, so a row may be multiplied by any
    nonzero scalar, and the recursion runs on integer rows over the
    Z[zeta_M] of _subfield.  Write q_ij = num_ij / den_ij with num_ij in
    Z[zeta_M] and den_ij a positive integer (Scalar.den); the insertion
    maps are scaled to Z[zeta_M] (see _insertion_map).  A row is one flat
    int list of phi(M) planes, plane t holding the zeta_M^t coefficients
    over the block's words; for M = 1 it is a plain integer row.
    linalg.primitive_echelon_rows eliminates each block fraction-free and
    returns the rows of the exact reduced echelon form over Q(zeta_M),
    each scaled by a nonzero rational (pivots are made rational integers
    by the product of their other Galois conjugates), so the ranks are
    those over Q(zeta_N) and no Scalar or Fraction arises between degrees.

    When the letter reversal s(i) = d - 1 - i fixes q, that is
    q[s(i)][s(j)] = q[i][j] (for two letters: q_11 = q_22 and q_12 = q_21),
    relabelling every word by s maps Sym_n on block c onto Sym_n on block
    c[::-1] entry for entry, by induction on the row recursion.  Only one
    of the two blocks is then eliminated, and its basis relabelled by s
    serves for the other.  s reverses the lexicographic order of words of
    one length, so the relabelled rows are the rows reversed plane by
    plane.
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    _check_degree(max_degree)
    q = _braiding_matrix(m)
    d = len(q)
    mirror = all(q[d - 1 - i][d - 1 - j] == q[i][j] for i in range(d) for j in range(d))
    den = [[v.den for v in row] for row in q]
    if all(v == 1 for row in den for v in row):
        den = None
    memo = {}
    order, num = _subfield(q, m.order)
    planes = len(num[0][0])
    one = [1] + [0] * (planes - 1)
    if planes == 1:
        # plain ints: the planar route on one-int lists cost classify-report
        # 16%, and one insertion map for both routes graded_dims 4-5%
        num = [[n for n, in row] for row in num]
        block = partial(_rational_block, num=num, den=den, memo=memo)
    else:
        block = partial(_cyclotomic_block, num=num, den=den, order=order, one=one,
                        wrap=zeta_phi(order), memo=memo)
    blocks = {(0,) * d: ([()], [one])}
    dims = [1]
    for _ in range(max_degree):
        spans = {}
        for c, (words, rows) in blocks.items():
            for x in range(d):
                target = c[:x] + (c[x] + 1,) + c[x + 1:]
                if not (mirror and target[::-1] > target):
                    spans.setdefault(target, []).append((words, rows, x))
        blocks = {}
        for c, parts in spans.items():
            words, rows = block(parts)
            if rows:
                blocks[c] = (words, rows)
                if mirror and c[::-1] != c:
                    blocks[c[::-1]] = ([tuple(d - 1 - i for i in w) for w in reversed(words)],
                                       _mirrored(rows, planes))
        dims.append(sum(len(rows) for _, rows in blocks.values()))
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

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
integer rows for every braiding.  The field is Q(zeta_M) with M = N/e and
e the gcd of N and every exponent of z in the q_ij (_subfield), and _ring
picks the ring of the rows once: Z for a rational (q_ij) (the h-class at
a = +-1 and a rational a^2 != 1, the one-class modules); the real
Z[zeta_M + zeta_M^-1] for a unitary one (the h-class at every other root
of unity); Z[zeta_M] otherwise.  A row is one flat int list of the ring's
coefficient planes, phi(M)/2 of them over the real ring (one, plain
integers, for M = 3, 4, 6) and phi(M) over Z[zeta_M].

The real form rests on a lemma (proof in graded_dims): if
sigma(q_ij) q_ji = 1 for all i, j, with sigma the complex conjugation
z -> z^-1, then sigma(im Sym_n) = im Sym_n on every block, because
reversing words relates Sym_n(q) to both Sym_n(q^-1) and Sym_n(q^T).
So each block's span has a basis over the real subfield Q(zeta_M)^+, and
each generator g = g0 + zeta_M g1 contributes its two real parts g0, g1
(Galois descent; Andruskiewitsch-Schneider, MSRI Publ. 43, 2002).

Insertion coefficients are cleared of denominators once per block and
letter.  Each block is eliminated fraction-free
(linalg.primitive_echelon_rows); a pivot row is multiplied by the product
of the other Galois conjugates of its pivot, which makes the pivot a
rational integer, so a row update is an integer combination of integer
lists.  Every step scales a row by a nonzero rational, so each row stays a
rational multiple of the row exact elimination over the ring's field would
give, and the ranks (those over Q(zeta_N)) are exact.  The last degree is
only counted: its blocks are eliminated forward only.  The tests check
the ranks against Gauss-Jordan elimination on Scalar rows, which they keep
as the reference.

Infinite-dimensional modules and braidings that are not diagonal are
rejected.  Operations refuse degrees past DEGREE_CAP instead of switching to
approximation; the floating-point route exists only as an independent
cross-check oracle (linalg.numeric_rank).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import compress, product
from typing import Optional

from . import linalg
from .field import INTEGERS, Scalar, cyclotomic_ring, mul_nums, real_parts, real_ring
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


def _insertion_map(num, den, scale, one, words, n, x, live, memo):
    """T_n(u (x) x) for each word u of a block, as [(word, coefficient)].

    A word of length n over d letters is the integer sum_k u_k d^(n-1-k),
    so lexicographic order is integer order.  Inserting x at position j of
    u gives (hi d + x) d^(n-j) + lo with hi, lo = divmod(u, d^(n-j)), and
    passes the letters u_k, k >= j, so the coefficient is
    prod_{k>=j} q(u_k, x).  With q = num / den entrywise it is computed as
    prod_{k>=j} num(u_k, x) . prod_{k<j} den(u_k, x), that is multiplied by
    prod_k den(u_k, x); that factor depends only on the letter content of
    u, so it is one integer for the whole block, ``scale`` (_den_product;
    den is None when every den is 1), and position j - 1 divides it by
    den(u_(j-1), x).
    The products over a suffix of u are kept in memo, keyed by
    (x, d^length, suffix), for the other words that end in it.  Equal words
    from adjacent positions are merged and zero sums dropped; words that
    are not live (every row of the block vanishes on them) get an empty list.
    """
    d = len(num)
    imap = []
    for u, alive in zip(words, live):
        merged = {}
        if alive:
            passed, kept, p = one, scale, 1
            for j in range(n, -1, -1):
                hi, lo = divmod(u, p)
                w = (hi * d + x) * p + lo
                c = passed if kept == 1 else kept * passed
                merged[w] = merged[w] + c if w in merged else c
                if j:
                    y = hi % d
                    key = (x, p * d, y * p + lo)
                    if key not in memo:
                        memo[key] = passed * num[y][x]
                    passed = memo[key]
                    if den is not None:
                        kept //= den[y][x]
                    p *= d
        imap.append([(w, c) for w, c in merged.items() if c])
    return imap


def _planar_insertion_map(num, den, scale, one, mul, split, words, n, x, live, memo):
    """_insertion_map with coefficients over Z[zeta_M], split by planes.

    The num entries and the coefficients are lists of phi(M) ints,
    multiplied by ``mul``.  ``split`` maps a merged coefficient to its
    parts over the ring of the rows, each a list of ints over the powers
    of the ring's generator g (see _ring).  Returns, for each part, imap with imap[k] = [(s, word, int)]
    for the k-th word: the nonzero g^s coefficients of that part.
    """
    d = len(num)
    imap = []
    for u, alive in zip(words, live):
        merged = {}
        if alive:
            passed, kept, p = one, scale, 1
            for j in range(n, -1, -1):
                hi, lo = divmod(u, p)
                w = (hi * d + x) * p + lo
                c = passed if kept == 1 else [kept * y for y in passed]
                merged[w] = [a + b for a, b in zip(merged[w], c)] if w in merged else c
                if j:
                    y = hi % d
                    key = (x, p * d, y * p + lo)
                    if key not in memo:
                        memo[key] = mul(passed, num[y][x])
                    passed = memo[key]
                    if den is not None:
                        kept //= den[y][x]
                    p *= d
        imap.append([(w, split(c)) for w, c in merged.items()])
    return [[[(s, w, v) for w, c in targets for s, v in enumerate(c[k]) if v]
             for targets in imap] for k in range(len(split(one)))]


def _accumulate(out, plane, imap):
    """out += the image of an integer row under imap."""
    for v, targets in zip(plane, imap):
        if v:
            for w, c in targets:
                p = v * c
                out[w] = out[w] + p if w in out else p
    return out


def _planar_image(b, imap, width, wrap):
    """T_n(b (x) x) as one {word: int} per plane, for a row b of planes.

    Plane t of b times the g^s part of the insertion map lands on
    g^(t+s).  g^e for e >= degree is folded back, highest e first, as
    g^(e-degree) g^degree with g^degree = sum_j r g^j over the pairs (j, r)
    of wrap.
    """
    planes = len(b) // width
    out = [{} for _ in range(2 * planes - 1)]
    for t in range(planes):
        plane = b[t * width:(t + 1) * width]
        for k in compress(range(width), plane):
            v = plane[k]
            for s, w, c in imap[k]:
                o = out[t + s]
                o[w] = o[w] + v * c if w in o else v * c
    for e in range(2 * planes - 2, planes - 1, -1):
        for j, r in wrap:
            o = out[e - planes + j]
            for w, v in out[e].items():
                o[w] = o[w] + r * v if w in o else r * v
    return out[:planes]


def _den_product(den, content, x):
    """prod_y den(y, x)^content[y], the scale of _insertion_map."""
    return 1 if den is None else math.prod(r[x] ** k for r, k in zip(den, content))


def _rational_block(parts, n, reduced, num, den, memo):
    """(words, integer rows) spanning a block when every q_ij is rational."""
    gens = []
    for content, words, rows, x in parts:
        live = [any(col) for col in zip(*rows)]
        imap = _insertion_map(num, den, _den_product(den, content, x), 1, words, n, x, live, memo)
        gens.extend(_accumulate({}, b, imap) for b in rows)
    words = sorted(set().union(*gens))
    return words, linalg.primitive_echelon_rows([[g.get(w, 0) for w in words] for g in gens],
                                                reduced=reduced)


def _planar_block(parts, n, reduced, num, den, one, mul, ring, split, memo):
    """(words, rows of planes over the ring) spanning a block; its
    generators are the images of each row under each part of the
    insertion map."""
    gens = []
    for content, words, rows, x in parts:
        width = len(words)
        columns = [any(col) for col in zip(*rows)]
        live = [any(columns[k::width]) for k in range(width)]
        for imap in _planar_insertion_map(num, den, _den_product(den, content, x), one, mul,
                                          split, words, n, x, live, memo):
            gens.extend(_planar_image(b, imap, width, ring.wrap) for b in rows)
    words = sorted(set().union(*(o for g in gens for o in g)))
    return words, linalg.primitive_echelon_rows(
        [[o.get(w, 0) for o in g for w in words] for g in gens], ring, reduced)


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
    phi = cyclotomic_ring(order // e).degree
    return order // e, [[list(v.nums[::e]) + [0] * (phi - len(v.nums[::e])) for v in row]
                        for row in q]


def _unitary(q) -> bool:
    """sigma(q_ij) q_ji = 1 for all i, j, sigma: z -> z^-1 the complex
    conjugation; then sigma fixes im Sym_n (see graded_dims)."""
    return all(v.conjugate() * q[j][i] == 1 for i, row in enumerate(q) for j, v in enumerate(row))


def _ring(q, order):
    """(M, numerators, ring, split): where the recursion runs.

    The one choice of ring, over the Z[zeta_M] of _subfield:

    * M = 1, a rational (q_ij): Z, numerators as ints, split None;
    * a unitary (q_ij) (_unitary): the real Z[w], w = zeta_M + zeta_M^-1,
      of degree phi(M)/2 (field.real_ring; Z for M = 3, 4, 6); split(c) is
      (c0, c1) over Z[w] with c = c0 + zeta_M c1, kept in a cache that
      lives as long as split;
    * otherwise Z[zeta_M] itself, split(c) = (c,).
    """
    order, num = _subfield(q, order)
    if len(num[0][0]) == 1:
        return order, [[n for n, in row] for row in num], INTEGERS, None
    if not _unitary(q):
        return order, num, cyclotomic_ring(order), lambda c: (c,)
    cache = {}

    def split(c):
        key = tuple(c)
        if key not in cache:
            cache[key] = real_parts(order, c)
        return cache[key]

    return order, num, real_ring(order), split


def graded_dims(m: YDModule, max_degree: int) -> HilbertPrefix:
    """Exact graded dimensions of the Nichols algebra up to max_degree.

    The image recursion of the module docstring.  blocks[c] = (words,
    rows) for the block of letter content c (c[i] = how often letter i
    occurs): rows is a basis of B^n on that block, each row a list of
    coefficients over words, the words of content c that occur in the
    images spanning the block, as integers in increasing order (see
    _insertion_map).  A degree-n block c is spanned by T_n(b (x) x) over
    the letters x in c and the rows b of blocks[c - x]; one elimination per
    block gives its basis, and dim B^n is the sum of the block dimensions.
    No later degree reads the rows of max_degree, so its blocks are
    eliminated forward only (linalg.primitive_echelon_rows with reduced
    False), for their rank.

    Only the span of a block matters, so a row may be multiplied by any
    nonzero scalar, and the recursion runs on integer rows over the ring
    of _ring.  Write q_ij = num_ij / den_ij with num_ij in Z[zeta_M] and
    den_ij a positive integer (Scalar.den); the insertion maps are scaled
    to Z[zeta_M] (see _insertion_map).  A row is one flat int list of
    ring.degree planes, plane t holding the g^t coefficients over the
    block's words for the ring's generator g; over Z it is a plain integer
    row.  linalg.primitive_echelon_rows eliminates each block fraction-free
    and returns the rows of the exact reduced echelon form over the
    ring's field, each scaled by a nonzero rational (pivots are made
    rational integers by the product of their other Galois conjugates), so
    the ranks are those over Q(zeta_N) and no Scalar or Fraction arises
    between degrees.

    The real form.  Let sigma be the complex conjugation z -> z^-1.  If
    sigma(q_ij) q_ji = 1 for all i, j (_unitary: the h-class at a root of
    unity, whose q is symmetric, and every unitary q), then
    sigma(im Sym_n) = im Sym_n on every block:

    1. reversing the output word turns the inversion set of a permutation
       into its complement, so R Sym_n(q) = Sym_n(q^-1) D, with R the
       reversal of words and D diagonal and invertible;
    2. R Sym_n(q) R = Sym_n(q^T);
    3. by 1 and 2, im Sym_n(q^-1) = im Sym_n(q^T) for every q, so
       sigma(im Sym_n(q)) = im Sym_n(sigma q) = im Sym_n((q^T)^-1)
       = im Sym_n(q).

    Descent: with w = zeta + zeta^-1, Z[zeta] = Z[w] + zeta Z[w], since
    zeta^2 = w zeta - 1.  A generator over Z[w] rows is g = g0 + zeta g1
    with g0, g1 over Z[w] (the insertion coefficients split by _ring).
    The span is sigma-stable, so g1 = (g - sigma g)/(zeta - zeta^-1) and
    g0 = g - zeta g1 lie in it, and the block's span has the basis that
    {g0, g1} has over Z[w]: rows of phi(M)/2 planes instead of phi(M).

    When the letter reversal s(i) = d - 1 - i fixes q, that is
    q[s(i)][s(j)] = q[i][j] (for two letters: q_11 = q_22 and q_12 = q_21),
    relabelling every word by s maps Sym_n on block c onto Sym_n on block
    c[::-1] entry for entry, by induction on the row recursion.  Only one
    of the two blocks is then eliminated, and its basis relabelled by s
    serves for the other (at max_degree only its rank is read).  s sends
    the word u of length n to d^n - 1 - u and reverses the order of words,
    so the relabelled rows are the rows reversed plane by plane.
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
    order, num, ring, split = _ring(q, m.order)
    if split is None:
        # plain ints: the planar route on one-int lists cost classify-report
        # 16%, and one insertion map for both routes graded_dims 4-5%
        block = partial(_rational_block, num=num, den=den, memo=memo)
    else:
        one = [1] + [0] * (len(num[0][0]) - 1)
        block = partial(_planar_block, num=num, den=den, one=one, mul=partial(mul_nums, order),
                        ring=ring, split=split, memo=memo)
    blocks = {(0,) * d: ([0], [[1] + [0] * (ring.degree - 1)])}
    dims = [1]
    for n in range(max_degree):
        top = n + 1 == max_degree
        spans = {}
        for c, (words, rows) in blocks.items():
            for x in range(d):
                target = c[:x] + (c[x] + 1,) + c[x + 1:]
                if not (mirror and target[::-1] > target):
                    spans.setdefault(target, []).append((c, words, rows, x))
        blocks, dim = {}, 0
        for c, parts in spans.items():
            words, rows = block(parts, n, not top)
            twin = mirror and c[::-1] != c
            dim += len(rows) * (2 if twin else 1)
            if rows and not top:
                blocks[c] = (words, rows)
                if twin:
                    blocks[c[::-1]] = ([d ** (n + 1) - 1 - w for w in reversed(words)],
                                       _mirrored(rows, ring.degree))
        dims.append(dim)
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

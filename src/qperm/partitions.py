"""Set partitions and the Gram/Weingarten moment calculus.

Partitions of {1..k} are stored as restricted-growth strings.  The two
integration families are ALL (partitions of k points) and NONCROSSING;
EVEN_NONCROSSING exists for enumeration-based oracle checks only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ._exact import bareiss_det, fraction_matrix_inverse
from .errors import ShapeMismatch, SingularGram


class PartitionFamily(Enum):
    ALL = "all"
    NONCROSSING = "noncrossing"
    EVEN_NONCROSSING = "even_noncrossing"


def bell_number(k):
    """Number of partitions of a k-element set."""
    row = [1]
    for _ in range(k):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def catalan_number(k):
    return math.comb(2 * k, k) // (k + 1)


# ---------------------------------------------------------------------------
# SetPartition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SetPartition:
    """Partition of {1..size} as a restricted-growth string (0-indexed)."""

    size: int
    rgs: tuple

    def __post_init__(self):
        if len(self.rgs) != self.size:
            raise ShapeMismatch("rgs length must equal size")
        seen = -1
        for label in self.rgs:
            if label > seen + 1:
                raise ValueError("not a restricted-growth string")
            seen = max(seen, label)

    @classmethod
    def from_labels(cls, labels):
        """Canonicalize an arbitrary block-label sequence."""
        relabel = {}
        rgs = []
        for lab in labels:
            if lab not in relabel:
                relabel[lab] = len(relabel)
            rgs.append(relabel[lab])
        return cls(len(rgs), tuple(rgs))

    @property
    def block_count(self):
        return max(self.rgs) + 1 if self.size else 0

    def blocks(self):
        """Blocks as tuples of 1-based points, ordered by first occurrence."""
        out = [[] for _ in range(self.block_count)]
        for pt, lab in enumerate(self.rgs, start=1):
            out[lab].append(pt)
        return [tuple(b) for b in out]

    def is_noncrossing(self):
        for (a, b), (c, d) in itertools.combinations(
            [(i, j) for blk in self.blocks()
             for i, j in zip(blk, blk[1:])], 2
        ):
            if a < c < b < d or c < a < d < b:
                return False
        return True


def join(p, q):
    """Smallest partition refined by both p and q (union-find on points)."""
    if p.size != q.size:
        raise ShapeMismatch("sizes differ")
    parent = list(range(p.size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for part in (p, q):
        first = {}
        for pt, lab in enumerate(part.rgs):
            if lab in first:
                union(first[lab], pt)
            else:
                first[lab] = pt
    return SetPartition.from_labels([find(x) for x in range(p.size)])


@lru_cache(maxsize=None)
def enum_partitions(k, family=PartitionFamily.ALL):
    """All partitions of {1..k} in the family, in lexicographic RGS order."""
    if k == 0:
        return (SetPartition(0, ()),)
    noncrossing = family in (
        PartitionFamily.NONCROSSING,
        PartitionFamily.EVEN_NONCROSSING,
    )
    even = family is PartitionFamily.EVEN_NONCROSSING
    out = []
    rgs = [0] * k
    # per-block (min, max, size); blocks appear in label order
    stats = []

    def rec(pos):
        if pos == k:
            if not even or all(sz % 2 == 0 for _, _, sz in stats):
                out.append(SetPartition(k, tuple(rgs)))
            return
        if even:
            odd_open = sum(1 for _, _, sz in stats if sz % 2 == 1)
            if odd_open > k - pos:
                return
        nblocks = len(stats)
        for lab in range(nblocks + 1):
            if lab < nblocks:
                mn, mx, sz = stats[lab]
                if noncrossing and any(
                    stats[o][0] < mx < stats[o][1]
                    for o in range(nblocks)
                    if o != lab
                ):
                    continue
                rgs[pos] = lab
                stats[lab] = (mn, pos, sz + 1)
                rec(pos + 1)
                stats[lab] = (mn, mx, sz)
            else:
                rgs[pos] = lab
                stats.append((pos, pos, 1))
                rec(pos + 1)
                stats.pop()

    rec(0)
    return tuple(out)


# ---------------------------------------------------------------------------
# partition maps
# ---------------------------------------------------------------------------


def t_pi_matrix(part, n, upper=0):
    """Matrix of the partition map for a (upper, lower)-partition.

    The partition covers upper + lower points; points 1..upper carry the
    column multi-index, the rest carry the row multi-index.  Multi-indices
    are row-major with the first point most significant.
    """
    lower = part.size - upper
    if lower < 0:
        raise ShapeMismatch("upper exceeds partition size")
    rows, cols = n ** lower, n ** upper
    mat = np.zeros((rows, cols), dtype=np.int64)
    nblocks = part.block_count
    for vals in itertools.product(range(n), repeat=nblocks):
        ci = ri = 0
        for pt in range(upper):
            ci = ci * n + vals[part.rgs[pt]]
        for pt in range(upper, part.size):
            ri = ri * n + vals[part.rgs[pt]]
        mat[ri, ci] = 1
    return mat


def _delta(part, idx):
    """1 when the index tuple is constant on every block of part."""
    vals = {}
    for pt, lab in enumerate(part.rgs):
        if vals.setdefault(lab, idx[pt]) != idx[pt]:
            return 0
    return 1


# ---------------------------------------------------------------------------
# Gram and Weingarten
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GramWeingarten:
    """Exact Gram matrix n^|pi v sigma| and its rational inverse."""

    family: PartitionFamily
    k: int
    n: int
    partitions: tuple
    gram: tuple
    weingarten: tuple | None  # None when the Gram matrix is singular

    @property
    def is_singular(self):
        return self.weingarten is None


@lru_cache(maxsize=None)
def _join_sizes(k, family):
    parts = enum_partitions(k, family)
    m = len(parts)
    sizes = [[0] * m for _ in range(m)]
    for a in range(m):
        for b in range(a, m):
            sz = join(parts[a], parts[b]).block_count
            sizes[a][b] = sizes[b][a] = sz
    return parts, tuple(tuple(r) for r in sizes)


@lru_cache(maxsize=None)
def gram_weingarten(family, k, n):
    """Gram/Weingarten data for k points over the family at dimension n."""
    if n < 1:
        raise ValueError("n must be positive")
    parts, sizes = _join_sizes(k, family)
    gram = tuple(tuple(n ** s for s in row) for row in sizes)
    inv = fraction_matrix_inverse([list(r) for r in gram])
    wg = tuple(tuple(r) for r in inv) if inv is not None else None
    return GramWeingarten(family, k, n, parts, gram, wg)


def integrate_monomial(family, n, i, j):
    """Exact Haar integral of u_{i1 j1} ... u_{ik jk} for the family's group.

    ALL integrates over the symmetric group S_n (valid for n >= k, where
    the Gram matrix is invertible); NONCROSSING over its quantum version.
    """
    if family not in (PartitionFamily.ALL, PartitionFamily.NONCROSSING):
        raise ValueError("integration supports families ALL and NONCROSSING")
    if len(i) != len(j):
        raise ShapeMismatch("index tuples must have equal length")
    k = len(i)
    if k == 0:
        return Fraction(1)
    if any(not 1 <= x <= n for x in tuple(i) + tuple(j)):
        raise ValueError("indices must lie in 1..n")
    gw = gram_weingarten(family, k, n)
    if gw.is_singular:
        raise SingularGram(f"Gram matrix singular for k={k}, n={n}")
    parts = gw.partitions
    di = [_delta(p, tuple(i)) for p in parts]
    dj = [_delta(p, tuple(j)) for p in parts]
    total = Fraction(0)
    for a, pa in enumerate(parts):
        if not di[a]:
            continue
        row = gw.weingarten[a]
        for b, pb in enumerate(parts):
            if dj[b]:
                total += row[b]
    return total


def _gram_is_singular(family, k, n):
    """Whether G_kn is singular, decided without inverting it.

    For ALL, det G = prod over partitions of the falling factorial (n)_|tau|,
    which vanishes exactly when n < k.  For NONCROSSING with n >= 4 every
    factor of gram_det_free is positive.  Otherwise the exact determinant
    decides.
    """
    if family is PartitionFamily.ALL:
        return n < k
    if family is PartitionFamily.NONCROSSING and n >= 4:
        return False
    return gram_det_exact(family, k, n) == 0


def char_moment(family, n, k):
    """Exact k-th moment of the main character, Tr(G_kn W_kn).

    W_kn is the inverse of G_kn, so the trace is the number of partitions:
    Bell(k) for ALL with n >= k, Catalan(k) for NONCROSSING.
    """
    if k == 0:
        return Fraction(1)
    if n < 1:
        raise ValueError("n must be positive")
    if _gram_is_singular(family, k, n):
        raise SingularGram(f"Gram matrix singular for k={k}, n={n}")
    return Fraction(len(enum_partitions(k, family)))


def truncated_char_moment(family, n, s, k):
    """Exact k-th moment of the truncated character chi_t, s = floor(tn).

    Computed as Tr(G_ks W_kn); G_ks needs no inversion so any 0 <= s is fine.
    """
    if k == 0:
        return Fraction(1)
    if not 0 <= s <= n:
        raise ValueError("s must lie in 0..n")
    gw = gram_weingarten(family, k, n)
    if gw.is_singular:
        raise SingularGram(f"Gram matrix singular for k={k}, n={n}")
    _, sizes = _join_sizes(k, family)
    m = len(gw.partitions)
    total = Fraction(0)
    for a in range(m):
        for b in range(m):
            total += (s ** sizes[a][b]) * gw.weingarten[b][a]
    return total


def truncated_moment_limit(family, t, k):
    """Limit of the truncated moments: sum of t^|pi| over the family.

    The moments converge at rate O(1/n).  For the classical family, with
    s = tn, truncated_char_moment(ALL, n, s, k) = sum_m S(k,m) (s)_m/(n)_m
    (S the Stirling numbers of the second kind), and the error is

        limit - moment = c_k/n + O(1/n^2),
        c_k = (1/t - 1) sum_m S(k,m) t^m m(m-1)/2.

    At t = 1/2 the error approaches c_k/n from above (c_2 = 1/4,
    c_3 = 9/8, c_4 = 35/8).  The sign of the O(1/n^2) term depends on t
    and k: at t = 1/10, k = 4 the error approaches c_k/n from below.
    """
    t = Fraction(t)
    return sum((t ** p.block_count for p in enum_partitions(k, family)),
               Fraction(0))


# ---------------------------------------------------------------------------
# Gram determinants
# ---------------------------------------------------------------------------


def gram_det_exact(family, k, n):
    """Exact Gram determinant by fraction-free elimination (oracle)."""
    _, sizes = _join_sizes(k, family)
    return bareiss_det([[n ** s for s in row] for row in sizes])


def gram_det_classical(k, n):
    """Closed form: product over partitions of falling factorials."""
    if n < k:
        raise ValueError("closed form requires n >= k")
    det = 1
    for part in enum_partitions(k, PartitionFamily.ALL):
        b = part.block_count
        det *= math.factorial(n) // math.factorial(n - b)
    return det


def _binom(n, k):
    return math.comb(n, k) if 0 <= k <= n else 0


def _f_exponent(k, r):
    return _binom(2 * k, k - r) - _binom(2 * k, k - r - 1)


def _sqrt_pair_mul(a, b, n):
    return (a[0] * b[0] + a[1] * b[1] * n, a[0] * b[1] + a[1] * b[0])


def _sqrt_pair_pow(base, e, n):
    out = (1, 0)
    while e:
        if e & 1:
            out = _sqrt_pair_mul(out, base, n)
        base = _sqrt_pair_mul(base, base, n)
        e >>= 1
    return out


def _chebycheff_at_sqrt(r, n):
    """P_r evaluated at sqrt(n), as a pair (a, b) = a + b*sqrt(n)."""
    p_prev, p_cur = (1, 0), (0, 1)  # P_0, P_1
    if r == 0:
        return p_prev
    for _ in range(r - 1):
        p_prev, p_cur = p_cur, tuple(
            x - y for x, y in zip(_sqrt_pair_mul((0, 1), p_cur, n), p_prev)
        )
    return p_cur


def free_gram_convention():
    """Name of the exponent convention of gram_det_free (see the README)."""
    return "f(k,r)-f(k,r+1)"


def gram_det_free(k, n):
    """Closed form for the noncrossing Gram determinant (k >= 1, n >= 4).

    det = sqrt(n)^C_k * prod_{r=1..k} P_r(sqrt n)^a(k,r), with the
    Chebyshev recurrence P_0 = 1, P_1 = x, P_{r+1} = x P_r - P_{r-1}.
    Evaluated exactly in Z[sqrt n]: factors with a negative exponent
    collect in a denominator, divided out once at the end.  Each P_r is
    even or odd, so every factor is a pure a or b*sqrt(n); P_r(x) > 0 for
    x >= 2, so the denominator's norm a^2 - n b^2 is nonzero.
    """
    if n < 4:
        raise ValueError("closed form requires n >= 4")
    if k < 1:
        raise ValueError("closed form requires k >= 1")
    num = _sqrt_pair_pow((0, 1), catalan_number(k), n)
    den = (1, 0)
    for r in range(1, k + 1):
        a = _f_exponent(k, r) - _f_exponent(k, r + 1)
        power = _sqrt_pair_pow(_chebycheff_at_sqrt(r, n), abs(a), n)
        if a >= 0:
            num = _sqrt_pair_mul(num, power, n)
        else:
            den = _sqrt_pair_mul(den, power, n)
    value, _ = _sqrt_pair_mul(num, (den[0], -den[1]), n)
    return value // (den[0] ** 2 - n * den[1] ** 2)


# ---------------------------------------------------------------------------
# representation-theoretic counts
# ---------------------------------------------------------------------------


def clebsch_dim(n, a):
    """Dimension of the a-th irreducible in the free quantum permutation
    fusion ring at parameter n; integer recurrence, exact at n = 4 too."""
    if a < 0:
        raise ValueError("a must be >= 0")
    s_prev, s_cur = 0, 1  # S_0, S_1
    for _ in range(a):
        s_prev, s_cur = s_cur, (n - 2) * s_cur - s_prev
    # dim(r_a) = S_{a+1} + S_a
    return s_cur + s_prev


def free_bessel_even_moment(k, t):
    """Even moment of the free Bessel law: sum_b (1/b) C(k-1,b-1) C(2k,b-1) t^b."""
    if k == 0:
        return Fraction(1)
    t = Fraction(t)
    total = Fraction(0)
    for b in range(1, k + 1):
        total += Fraction(math.comb(k - 1, b - 1) * math.comb(2 * k, b - 1), b) \
            * t ** b
    return total

"""Complex Hadamard matrices: construction, classification, obstructions.

A matrix is held either exactly (ButsonForm: level l and an integer exponent
matrix, entry = zeta_l^e) or numerically (ComplexForm).  Classification is
exact on the Butson path and compares floats by `scalars._tolerance_keys`.

A catalog parameter is a rational turn q -> e^{2 pi i q} (exact) or a
unimodular complex number (float).  The one-parameter families, Haagerup's
H_6(q) and Petrescu's P_7(q), are patterns of entries zeta_base^w q^s read
by one builder; the Dita deformations F_4(q), F_6^(2)(r, s) and
F_6^(3)(r, s) are `dita` products of Fourier matrices.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._exact import _root_powers, is_prime, zero_test_primes
from .errors import (
    BudgetExceeded,
    MalformedMatrix,
    OrderTooLarge,
    ParseError,
    ShapeMismatch,
    UnknownName,
    VerifyFailed,
)
from .scalars import (
    DEFAULT_TOL,
    NormVerdict,
    _tolerance_keys,
    factored_norm_solvable,
    factorize,
)

LEVEL_INFINITE = math.inf


@functools.lru_cache(maxsize=None)
def _root_images(level, n):
    """The zero-test prime p for sums of n level-th roots, and zeta^e mod p.

    Row s holds zeta^e, e < level, at the s-th embedding of the one prime
    of `_exact.zero_test_primes(level, n, n)`.  A sum of at most n roots
    is bounded by n at every embedding, so it is zero exactly when it
    vanishes mod p in every row; n p^2 < 2^53 keeps int64 sums of n
    residue products exact.  Cached per (level, n), read-only.
    """
    [(p, roots)] = zero_test_primes(level, n, n)
    pows = np.array([_root_powers(r, p, level) for r in roots])
    pows.flags.writeable = False
    return p, pows


# ---------------------------------------------------------------------------
# the matrix type
# ---------------------------------------------------------------------------


class Hadamard:
    """A candidate complex Hadamard matrix (exact Butson or float form)."""

    def __init__(self, entries=None, exponents=None, level=None,
                 provenance="", tol=DEFAULT_TOL):
        if (exponents is None) == (entries is None):
            raise MalformedMatrix(
                "provide exactly one of entries / (exponents, level)"
            )
        self.provenance = provenance
        self._entries_cache = None
        if exponents is not None:
            if level is None or level < 1:
                raise MalformedMatrix("exponent form needs a positive level")
            exp = np.asarray(exponents, dtype=np.int64)
            if exp.ndim != 2 or exp.shape[0] != exp.shape[1]:
                raise MalformedMatrix("matrix must be square")
            self.exponents = exp % level
            self.level = int(level)
            self.n = exp.shape[0]
        else:
            ent = np.asarray(entries, dtype=np.complex128)
            if ent.ndim != 2 or ent.shape[0] != ent.shape[1]:
                raise MalformedMatrix("matrix must be square")
            if not np.allclose(np.abs(ent), 1.0, atol=tol, rtol=0):
                raise MalformedMatrix("entries must have modulus 1")
            self.exponents = None
            self.level = None
            self.n = ent.shape[0]
            self._entries_cache = ent
        if self.n == 0:
            raise MalformedMatrix("matrix must have order at least 1")

    # -- basic views -------------------------------------------------------

    @property
    def is_exact(self):
        return self.exponents is not None

    @property
    def entries(self):
        if self._entries_cache is None:
            self._entries_cache = np.exp(
                2j * np.pi * self.exponents / self.level
            )
        return self._entries_cache

    def reduced_level(self):
        """Minimal l such that all entries are l-th roots (exact form)."""
        g = math.gcd(self.level, int(np.gcd.reduce(self.exponents, axis=None)))
        return self.level // g

    def with_level(self, new_level):
        """Re-express the exponent matrix at a multiple of the level."""
        if new_level % self.level:
            raise ShapeMismatch("new level must be a multiple")
        scale = new_level // self.level
        return Hadamard(exponents=self.exponents * scale, level=new_level,
                        provenance=self.provenance)

    # -- verification ------------------------------------------------------

    def verify(self, tol=DEFAULT_TOL):
        """True iff all distinct row pairs are orthogonal."""
        return self.failing_pair(tol) is None

    def failing_pair(self, tol=DEFAULT_TOL):
        """First non-orthogonal row pair (i < j), or None.

        Exact input forms H·H* modulo the prime of `_root_images` at each
        embedding, from the images of E and -E.
        """
        if self.is_exact:
            p, pows = _root_images(self.level, self.n)
            e = self.exponents
            gram = pows[:, e] @ pows[:, -e % self.level].swapaxes(1, 2)
            bad = (gram % p).any(axis=0)
        else:
            gram = self.entries @ self.entries.conj().T
            bad = np.abs(gram) > self.n * tol
        pairs = np.argwhere(np.triu(bad, 1))
        return tuple(int(x) for x in pairs[0]) if len(pairs) else None

    def __repr__(self):
        form = f"level={self.level}" if self.is_exact else "complex"
        tag = f", {self.provenance}" if self.provenance else ""
        return f"Hadamard(n={self.n}, {form}{tag})"


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def fourier(n):
    """Fourier matrix F_n = (w^{ij}), w = e^{2 pi i/n}, as level-n Butson."""
    if n < 1:
        raise MalformedMatrix("n must be positive")
    idx = np.arange(n)
    return Hadamard(exponents=np.outer(idx, idx) % n, level=n,
                    provenance=f"fourier({n})")


def dephase(h):
    """Equivalent matrix with all-ones first row and column (idempotent)."""
    if h.is_exact:
        e = h.exponents
        out = (e - e[0][None, :] - e[:, 0][:, None] + e[0, 0]) % h.level
        return Hadamard(exponents=out, level=h.level, provenance=h.provenance)
    m = h.entries
    out = m * m[0].conj()[None, :] * m[:, 0].conj()[:, None] * m[0, 0]
    return Hadamard(entries=out, provenance=h.provenance)


def _param_kind(q):
    """Classify a unit-circle parameter: turns (exact) or complex (float).

    Rational and integer inputs are read as turns: q -> e^{2 pi i q}.
    """
    if isinstance(q, (int, Fraction)):
        t = Fraction(q) % 1
        return "exact", t.numerator, t.denominator
    if isinstance(q, (complex, float)):
        z = complex(q)
        if abs(abs(z) - 1.0) > DEFAULT_TOL:
            raise MalformedMatrix("parameter must have modulus 1")
        return "float", z, None
    raise MalformedMatrix(f"unsupported parameter type {type(q)!r}")


def tensor(h, k):
    """Tensor product; order n*m, level lcm on the exact path."""
    return dita(h, k, None)


def dita(h, k, l_params):
    """Deformed tensor product with entry H_ij * L_aj * K_ab.

    Row index (i,a) maps to i*m + a (i outer), columns likewise.  L must be
    an m x n array of unit-modulus parameters; None means all ones.  Exact
    when both factors are exact and L is given in turns (rationals).
    """
    n, m = h.n, k.n
    arr = np.zeros((m, n), dtype=object) if l_params is None else \
        np.asarray(l_params, dtype=object)
    if arr.shape != (m, n):
        raise ShapeMismatch(
            f"parameter matrix must be {m}x{n}, got {arr.shape}")
    kinds = [_param_kind(q) for q in arr.flat]
    label = f"dita({h.provenance or 'H'},{k.provenance or 'K'})"
    if all(kd[0] == "exact" for kd in kinds):
        l_lev = math.lcm(*(den for _, _, den in kinds))
        le = np.array([num * (l_lev // den) for _, num, den in kinds],
                      dtype=np.int64).reshape(m, n)
        if h.is_exact and k.is_exact:
            lev = math.lcm(h.level, k.level, l_lev)
            he = h.exponents * (lev // h.level)
            ke = k.exponents * (lev // k.level)
            le = le * (lev // l_lev)
            out = (he[:, None, :, None] + le[None, :, :, None]
                   + ke[None, :, None, :]).reshape(n * m, n * m)
            return Hadamard(exponents=out % lev, level=lev, provenance=label)
        lm = np.exp(2j * np.pi * le / l_lev)
    else:
        lm = np.array([x if kd == "float" else
                       np.exp(2j * np.pi * x / den) for kd, x, den in kinds]
                      ).reshape(m, n)
    # (H_ij * L_aj) * K_ab, in that order, entry (i*m + a, j*m + b)
    out = (h.entries[:, None, :, None] * lm[None, :, :, None]
           * k.entries[None, :, None, :]).reshape(n * m, n * m)
    return Hadamard(entries=out, provenance=label)


def dita_fourier_params(n, m):
    """The parameter matrix L_aj = w^{(a-1)(j-1)}, w = e^{2 pi i/(nm)},
    in turns; dita(F_n, F_m, L) is then equivalent to F_{nm}."""
    return [[Fraction((a * j) % (n * m), n * m) for j in range(n)]
            for a in range(m)]


def tao():
    """The 6x6 level-3 matrix with index-symmetric block pattern."""
    rows = [
        [0, 0, 0, 0, 0, 0],
        [0, 0, 1, 1, 2, 2],
        [0, 1, 0, 2, 2, 1],
        [0, 1, 2, 0, 1, 2],
        [0, 2, 2, 1, 0, 1],
        [0, 2, 1, 2, 1, 0],
    ]
    return Hadamard(exponents=rows, level=3, provenance="tao")


def _one_parameter(name, base, unit, pattern, q):
    """The matrix with entries zeta_base^w q^s over a pattern of (w, s).

    A rational turn q = num/den gives the Butson form at level
    lcm(base, den); a unimodular complex q gives the float form, each entry
    unit**w * q**s with unit the float value of zeta_base.
    """
    kind, x, den = _param_kind(q)
    if kind == "exact":
        lev = math.lcm(base, den)
        exps = [[w * (lev // base) + s * x * (lev // den) for w, s in row]
                for row in pattern]
        return Hadamard(exponents=np.array(exps) % lev, level=lev,
                        provenance=f"{name}({x}/{den})")
    ent = [[(unit ** w) * (x ** s) for w, s in row] for row in pattern]
    return Hadamard(entries=np.array(ent), provenance=f"{name}(float)")


def haagerup(q):
    """The 6x6 one-parameter family with entries {1, +-i, +-q, +-qbar}."""
    return _one_parameter("haagerup", 4, 1j, [
        [(0, 0)] * 6,
        [(0, 0), (2, 0), (1, 0), (1, 0), (3, 0), (3, 0)],
        [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (2, 1)],
        [(0, 0), (1, 0), (3, 0), (2, 0), (2, 1), (0, 1)],
        [(0, 0), (3, 0), (0, -1), (2, -1), (1, 0), (2, 0)],
        [(0, 0), (3, 0), (2, -1), (0, -1), (2, 0), (1, 0)],
    ], q)


def petrescu(q):
    """The 7x7 one-parameter family over sixth roots of unity."""
    return _one_parameter("petrescu", 6, np.exp(2j * np.pi / 6), [
        [(0, 0)] * 7,
        [(0, 0), (1, 1), (4, 1), (5, 0), (3, 0), (3, 0), (1, 0)],
        [(0, 0), (4, 1), (1, 1), (3, 0), (5, 0), (3, 0), (1, 0)],
        [(0, 0), (5, 0), (3, 0), (1, -1), (4, -1), (1, 0), (3, 0)],
        [(0, 0), (3, 0), (5, 0), (4, -1), (1, -1), (1, 0), (3, 0)],
        [(0, 0), (3, 0), (3, 0), (1, 0), (1, 0), (4, 0), (5, 0)],
        [(0, 0), (1, 0), (1, 0), (3, 0), (3, 0), (5, 0), (4, 0)],
    ], q)


def bjorck_froberg():
    """The circulant 6x6 matrix built on the non-root-of-unity point a."""
    # a is the root of a^2 - (1 - sqrt(3))a + 1 = 0 with positive
    # imaginary part; |a| = 1 since the constant term is 1.
    b = 1 - math.sqrt(3)
    a = complex(b / 2, math.sqrt(4 - b * b) / 2)
    first = np.array([1, 1j * a, -a, -1j, -a.conjugate(),
                      1j * a.conjugate()])
    out = np.empty((6, 6), dtype=np.complex128)
    for i in range(6):
        out[i] = np.roll(first, i)
    return Hadamard(entries=out, provenance="bjorck_froberg")


def f4q(q):
    """The one-parameter 4x4 family deforming F_2 tensor F_2."""
    return dita(fourier(2), fourier(2), [[0, 0], [0, q]])


def f6_two_three(r, s):
    """Deformation of F_2 tensor F_3 with column parameter matrix."""
    return dita(fourier(2), fourier(3), [[0, 0], [0, r], [0, s]])


def f6_three_two(r, s):
    """Deformation of F_3 tensor F_2 with row parameter matrix."""
    return dita(fourier(3), fourier(2), [[0, 0, 0], [0, r, s]])


_CATALOG = {
    "fourier": (fourier, 1),
    "tao": (tao, 0),
    "haagerup": (haagerup, 1),
    "petrescu": (petrescu, 1),
    "bjorck_froberg": (bjorck_froberg, 0),
    "f4q": (f4q, 1),
    "f6_two_three": (f6_two_three, 2),
    "f6_three_two": (f6_three_two, 2),
}


def named(name, *params):
    """Catalog constructor dispatch; raises UnknownName."""
    if name not in _CATALOG:
        raise UnknownName(f"unknown catalog name {name!r}; "
                          f"known: {sorted(_CATALOG)}")
    fn, arity = _CATALOG[name]
    if len(params) != arity:
        raise UnknownName(f"{name} takes {arity} parameter(s), "
                          f"got {len(params)}")
    return fn(*params)


def catalog_names():
    return sorted(_CATALOG)


# ---------------------------------------------------------------------------
# level detection
# ---------------------------------------------------------------------------


def level(h, tol=DEFAULT_TOL, max_level=256):
    """Smallest l with all entries l-th roots of unity, or LEVEL_INFINITE.

    Levels live in {2, 3, ...}; an all-ones matrix reports 2, the smallest
    admissible value.
    """
    if h.is_exact:
        return max(h.reduced_level(), 2)
    total = 1
    for z in h.entries.flat:
        angle = (math.atan2(z.imag, z.real) / (2 * math.pi)) % 1.0
        frac = Fraction(angle).limit_denominator(max_level)
        root = complex(math.cos(2 * math.pi * float(frac)),
                       math.sin(2 * math.pi * float(frac)))
        if abs(z - root) > tol:
            return LEVEL_INFINITE
        total = math.lcm(total, frac.denominator)
        if total > max_level:
            return LEVEL_INFINITE
    return max(total, 2)


# ---------------------------------------------------------------------------
# regularity
# ---------------------------------------------------------------------------


@dataclass
class RegularityReport:
    regular: bool
    certificates: dict = field(default_factory=dict)
    failing_pair: tuple | None = None

    def __bool__(self):
        return self.regular


def _cycle_cover(keys, rotations):
    """Partition a multiset of value keys into rotated prime cycles.

    rotations[p][k] lists the keys of the value of key k times the p-th
    roots of unity, and the cycle (p, k) covers that list.  Returns the
    cycles as (p, base key) pairs, or None.  The least live key lies on
    the cycle it generates, so taking it as the next base loses no cover.
    """
    counts = Counter(keys)

    def rec():
        live = [e for e, c in counts.items() if c > 0]
        if not live:
            return []
        base = min(live)
        for p, table in rotations.items():
            members = table[base]
            if all(counts[m] > 0 for m in members):
                for m in members:
                    counts[m] -= 1
                rest = rec()
                if rest is not None:
                    return [(p, base)] + rest
                for m in members:
                    counts[m] += 1
        return None

    return rec()


def _row_product_keys(h, i, j, tol):
    """Keys of the products H_ik conj(H_jk) over k, their rotation tables
    for `_cycle_cover`, and the certificate value of each key.  Exactly, a
    key is an exponent and the primes divide the level (a p-cycle of l-th
    roots has an l-th root as ratio); in float form the primes run up to n
    and the products and their rotations share `_tolerance_keys`, numbered
    by least angle in (-pi, pi], each standing for its first product."""
    if h.is_exact:
        lev = h.level
        prods = (h.exponents[i] - h.exponents[j]) % lev
        turned = [(prods[:, None] + np.arange(0, lev, lev // p)) % lev
                  for p in factorize(lev)]
        flat = np.concatenate([prods] + [t.ravel() for t in turned])
    else:
        prods = h.entries[i] * h.entries[j].conj()
        turned = [prods[:, None] * np.exp(2j * np.pi * np.arange(p) / p)
                  for p in range(2, h.n + 1) if is_prime(p)]
        flat = _tolerance_keys(
            np.concatenate([prods] + [t.ravel() for t in turned]), tol)
        least = np.full(flat.max() + 1, np.inf)
        np.minimum.at(least, flat[:h.n], np.angle(prods))
        flat = np.argsort(np.argsort(least, kind="stable"))[flat]
    keys = flat[:h.n].tolist()
    blocks = np.split(flat[h.n:], np.cumsum([t.size for t in turned]))
    rotations = {t.shape[1]: dict(zip(keys, b.reshape(t.shape).tolist()))
                 for t, b in zip(turned, blocks)}
    return keys, rotations, dict(zip(keys[::-1], prods.tolist()[::-1]))


def is_regular(h, tol=DEFAULT_TOL):
    """Do all row scalar products decompose into rotated prime cycles?
    A cycle (p, c) covers c zeta_p^t: c is an exponent or a product."""
    report = RegularityReport(True)
    for i, j in itertools.permutations(range(h.n), 2):
        keys, rotations, value = _row_product_keys(h, i, j, tol)
        cover = _cycle_cover(keys, rotations)
        if cover is None:
            return RegularityReport(False, failing_pair=(i, j))
        report.certificates[(i, j)] = [(p, value[c]) for p, c in cover]
    return report


def certificate_resum(h, report, tol=DEFAULT_TOL):
    """Check each certificate reproduces its scalar-product multiset."""
    if not report.regular:
        return False
    for (i, j), cycles in report.certificates.items():
        if h.is_exact:
            lev = h.level
            keys = np.concatenate([(h.exponents[i] - h.exponents[j]) % lev, [
                (c + t * lev // p) % lev for p, c in cycles for t in range(p)]])
        else:
            keys = _tolerance_keys(np.concatenate([
                h.entries[i] * h.entries[j].conj(),
                [c * cmath.exp(2j * math.pi * t / p)
                 for p, c in cycles for t in range(p)]]), tol)
        if Counter(keys[:h.n].tolist()) != Counter(keys[h.n:].tolist()):
            return False
    return True


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------


def _quadruples(h):
    """Q[i, k, j, l] = H_ij H*_kj H*_il H_kl, as exponents mod the level or
    as complex values; Q[:, r, :, c] is H dephased at row r, column c."""
    if h.is_exact:
        e = h.exponents
        rows = e[:, None, :] - e[None, :, :]
        return (rows[:, :, :, None] - rows[:, :, None, :]) % h.level
    m = h.entries
    rows = m[:, None, :] * m[None, :, :].conj()
    return rows[:, :, :, None] * rows[:, :, None, :].conj()


def fingerprint(h):
    """Haagerup's invariant Lambda(H): the multiset of quadruple products
    H_ij H*_kj H*_il H_kl over all i, k, j, l.

    It is invariant under row/column permutations and unimodular scalings.
    On Butson input it is exact: the quadruple exponents q mod l, divided by
    g = gcd(l, all q), as the pair (l/g, histogram of q/g).  Every dephased
    entry is a quadruple and every quadruple a product of dephased entries,
    so l/g is the level of the dephased matrix, whatever level H is written
    at.  On float input it is the array z[i, k, j, l] of the products,
    compared as a multiset of `scalars._tolerance_keys` (see `equivalent`).
    """
    q = _quadruples(h)
    if not h.is_exact:
        return q
    g = math.gcd(h.level, int(np.gcd.reduce(q, axis=None)))
    lev = h.level // g
    hist = np.bincount((q // g).ravel(), minlength=lev)
    return lev, tuple(hist.tolist())


def _perm_equal_search(a_keys, b_keys):
    """Is there a row perm + column perm taking A to B?  Depth-first over
    the columns of A; a partial column map is kept only while the rows of A
    and B, restricted to the mapped columns, agree as multisets."""
    a_rows, b_rows = a_keys.tolist(), b_keys.tolist()
    n = len(a_rows)
    a_cols = [Counter(col) for col in zip(*a_rows)]
    b_cols = [Counter(col) for col in zip(*b_rows)]

    def rec(mapping):
        depth = len(mapping)
        if depth == n:
            return True
        prefix_a = Counter(tuple(row[:depth + 1]) for row in a_rows)
        for v in range(n):
            if v in mapping or b_cols[v] != a_cols[depth]:
                continue
            mapping.append(v)
            prefix_b = Counter(tuple(row[c] for c in mapping)
                               for row in b_rows)
            if prefix_a == prefix_b and rec(mapping):
                return True
            mapping.pop()
        return False

    return rec([])


def equivalent(h, k, max_order=8):
    """Decide equivalence under row/column permutations and scalings.

    Two Butson matrices are compared exactly; an exact/float pair is
    compared in float form.  The search compares H dephased at each pivot
    with K dephased, read off the quadruples as exponents at the common
    level or as the joint tolerance keys of the two float fingerprints.
    """
    if h.n != k.n:
        return False
    if h.is_exact != k.is_exact:
        h, k = (Hadamard(entries=x.entries, provenance=x.provenance)
                for x in (h, k))
    if h.is_exact:
        if fingerprint(h) != fingerprint(k):
            return False
        common = math.lcm(h.level, k.level)
        qh, qk = (_quadruples(x) * (common // x.level) for x in (h, k))
    else:
        qh, qk = _tolerance_keys(np.stack([fingerprint(h), fingerprint(k)]))
        if not np.array_equal(np.sort(qh, axis=None), np.sort(qk, axis=None)):
            return False
    if h.n > max_order:
        raise OrderTooLarge(
            f"order {h.n} > {max_order}: fingerprints match but the "
            "exhaustive search is out of range (verdict Unknown)"
        )
    b_keys = qk[:, 0, :, 0]
    return any(_perm_equal_search(qh[:, r, :, c], b_keys)
               for r in range(h.n) for c in range(h.n))


def random_equivalent(h, seed):
    """Apply a random equivalence move (perms + unimodular scalings)."""
    rng = np.random.default_rng(seed)
    pr = rng.permutation(h.n)
    pc = rng.permutation(h.n)
    if h.is_exact:
        dr = rng.integers(0, h.level, h.n)
        dc = rng.integers(0, h.level, h.n)
        out = (h.exponents[pr][:, pc] + dr[:, None] + dc[None, :]) % h.level
        return Hadamard(exponents=out, level=h.level,
                        provenance=h.provenance + "+move")
    dr = np.exp(2j * np.pi * rng.random(h.n))
    dc = np.exp(2j * np.pi * rng.random(h.n))
    out = h.entries[pr][:, pc] * dr[:, None] * dc[None, :]
    return Hadamard(entries=out, provenance=h.provenance + "+move")


# ---------------------------------------------------------------------------
# Butson enumeration
# ---------------------------------------------------------------------------


@dataclass
class EnumerationResult:
    n: int
    level: int
    mode: str
    matrices: list
    complete: bool
    nodes: int
    configurations: int


def _zero_sum_pool(n, lev):
    """The zero-sum indicator over [lev]^{n-1} and the dephased row pool.

    zero[e] holds when 1 + sum_j zeta^{e_j} = 0, that is when the row with
    exponents (0, e) is orthogonal to the all-ones first row.  The sums are
    built at every embedding from the rows of `_root_images(lev, n)` with
    n - 1 broadcast additions, each adding a leading coordinate (the sum is
    symmetric, so the order of the coordinates does not matter), and
    reduced once modulo its prime.  The pool is the (m, n-1) array of the
    true indices of zero in lexicographic (`itertools.product`) order.
    """
    p, pows = _root_images(lev, n)
    sums = pows[:, :1]
    for _ in range(n - 1):
        sums = (pows[:, :, None] + sums[:, None]).reshape(len(pows), -1)
    zero = ~(sums % p).any(axis=0).reshape((lev,) * (n - 1))
    return np.argwhere(zero), zero


def _orthogonal_rows(pool, zero, lev, idx):
    """Mask of the pool rows s orthogonal to the pool row r = pool[idx].

    1 + sum_j zeta^{r_j - s_j} = 0 exactly when (r - s) mod lev is in the
    pool, so each mask is one lookup in the zero-sum indicator.
    """
    return zero[tuple(((pool[idx] - pool) % lev).T)]


@functools.lru_cache(maxsize=None)
def _column_orders(n, lev):
    """Weights that read a dephased row as base-lev codes, one per order of
    its n - 1 non-pivot columns, and those columns for each pivot column.

    weights[t, s] = lev^(n - 2 - the place of t in order s), so that a row
    x over the non-pivot columns has code (x @ weights)[s] with the first
    column of order s most significant; order 0 is the identity.  others[c]
    lists the columns other than c in increasing order.  Cached per
    (n, lev), read-only.
    """
    orders = np.array(list(itertools.permutations(range(n - 1))))
    weights = lev ** (n - 2 - np.argsort(orders, axis=1).T)
    others = np.array([[j for j in range(n) if j != c] for c in range(n)])
    weights.flags.writeable = others.flags.writeable = False
    return weights, others


def _form_keys(codes, lev):
    """One fixed-width key per row of an (F, k) array of row codes < lev^k.

    The codes are packed, first code most significant, into big-endian
    int64 words of 63 // b codes each, lev^k < 2^b, so every word stays
    below 2^63, and each row of words is viewed as one void item.  Sorting, `searchsorted` and == then
    compare whole rows, and the byte order of big-endian non-negative
    words is the lexicographic order of the code rows.
    """
    f, k = codes.shape
    base = lev ** k
    per = 63 // base.bit_length()
    words = -(-k // per)
    padded = np.zeros((f, words * per), dtype=np.int64)
    padded[:, :k] = codes
    packed = padded.reshape(f, words, per) @ (
        base ** np.arange(per - 1, -1, -1, dtype=np.int64))
    return packed.astype(">i8").view(f"V{8 * words}").ravel()


def _orbit_keys(e, lev):
    """The keys of every dephased form of a Hadamard exponent matrix e.

    For each pivot (r, c) and each order of the other n - 1 columns: e
    dephased at (r, c), d_ij = e_ij - e_rj - e_ic + e_rc mod lev, its rows
    read as base-lev codes over the columns in that order (one batched
    int64 matmul against the weights of `_column_orders`), sorted, and the
    pivot row's code 0 dropped (every other row of a dephased Hadamard
    matrix is orthogonal to it, so not zero).  n^2 (n-1)! keys by
    `_form_keys`, repeats kept: 4320 at n = 6, 322 560 at n = 8.
    """
    n = len(e)
    weights, others = _column_orders(n, lev)
    rows = e[None, :, :] - e[:, None, :]         # [r, i, j]: e_ij - e_rj
    dephased = (rows[:, :, others] - rows[:, :, :, None]) % lev  # [r, i, c, t]
    codes = (weights.T @ dephased.transpose(0, 2, 3, 1)).reshape(-1, n)
    codes.sort(axis=1)                            # [(r, c, order), i]
    return _form_keys(codes[:, 1:], lev)


def _class_representatives(configs, lev):
    """Indices of the first configuration of each equivalence class.

    configs is the (C, n, n) stack of exponent matrices the search emits,
    in search order.  Each is in normal form: first row and column zero,
    rows strictly increasing as base-lev codes.  A matrix equivalent to h
    in normal form is h dephased at some pivot, its other columns in some
    order and its rows sorted, so it is equivalent to h exactly when its
    row codes are among the keys of `_orbit_keys(h)`; a match is itself
    the witnessing move.  Search order is the lexicographic order of the
    row codes, so the configuration keys are sorted as emitted, and each
    new class's keys are looked up among them with one `searchsorted`.
    Walking the configurations in order, each one not yet covered starts
    a class: the same representatives, in the same order, as a pairwise
    `equivalent` test against every earlier representative.
    """
    if not len(configs):
        return []
    n = configs.shape[1]
    weights, _ = _column_orders(n, lev)
    keys = _form_keys(configs[:, 1:, 1:] @ weights[:, 0], lev)
    covered = np.zeros(len(keys), dtype=bool)
    reps = []
    for first in range(len(keys)):
        if covered[first]:
            continue
        reps.append(first)
        forms = _orbit_keys(configs[first], lev)
        at = np.minimum(np.searchsorted(keys, forms), len(keys) - 1)
        covered[at[keys[at] == forms]] = True
    return reps


def butson_enumerate(n, lev, mode="any_witness", budget=10_000_000):
    """Backtracking enumeration of dephased Butson matrices.

    Rows after the first are drawn from the zero-sum pool in strictly
    increasing lexicographic order (rows of a Hadamard matrix are distinct,
    so this loses no class).  One boolean indicator over [lev]^{n-1}
    (`_zero_sum_pool`) gives both the pool and every compatibility mask:
    two dephased rows are orthogonal exactly when their difference mod lev
    is in the pool.  The search either runs to the end, so an empty result
    proves the class is empty, or raises BudgetExceeded.

    Class mode keeps the first configuration of each equivalence class
    (`_class_representatives`): every configuration is a normal form, so
    it joins a class exactly when its row codes are among the dephased
    forms of the class's first member, a table of n^2 (n-1)! keys built
    once per class.  Both modes take n <= 8 and lev <= 6; the budget
    bounds the search.
    """
    if mode not in ("any_witness", "all_dephased_classes"):
        raise ValueError(f"unknown mode {mode!r}")
    if n < 1 or lev < 1 or budget < 0:
        raise ValueError("need n >= 1, l >= 1 and budget >= 0")
    if n > 8 or lev > 6:
        raise OrderTooLarge("Butson enumeration supported for n<=8, l<=6")
    if n == 1:
        h = Hadamard(exponents=[[0]], level=lev)
        return EnumerationResult(n, lev, mode, [h], True, 1, 1)

    pool, zero = _zero_sum_pool(n, lev)
    m = len(pool)
    nodes = 0
    found = []
    compat_cache = {}

    def compat_mask(idx):
        if idx not in compat_cache:
            compat_cache[idx] = _orthogonal_rows(pool, zero, lev, idx)
        return compat_cache[idx]

    def rec(chosen, mask):
        nonlocal nodes
        if len(chosen) == n - 1:
            found.append(chosen)
            return mode == "any_witness"
        lo = chosen[-1] + 1 if chosen else 0
        for idx in range(lo, m):
            if not mask[idx]:
                continue
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(
                    f"enumeration exceeded {budget} nodes at ({n},{lev})"
                )
            if rec(chosen + [idx], mask & compat_mask(idx)):
                return True
        return False

    rec([], np.ones(m, dtype=bool))

    configs = np.zeros((len(found), n, n), dtype=np.int64)
    if found:
        configs[:, 1:, 1:] = pool[np.array(found)]
    keep = (_class_representatives(configs, lev)
            if mode == "all_dephased_classes" else range(len(found)))
    matrices = [Hadamard(exponents=configs[i], level=lev,
                         provenance=f"butson_enumerate({n},{lev})")
                for i in keep]
    return EnumerationResult(n, lev, mode, matrices, True, nodes, len(found))


# ---------------------------------------------------------------------------
# obstructions
# ---------------------------------------------------------------------------


RULE_ORDER = ("LamLeung", "Sylvester", "DeLauney",
              "SylvesterGen1", "SylvesterGen2", "Haagerup5")


@dataclass(frozen=True)
class RuleVerdict:
    rule: str
    applies: bool
    obstructs: bool
    detail: str


def _lam_leung(n, lev):
    primes = sorted(factorize(lev))
    reachable = [False] * (n + 1)
    reachable[0] = True
    for p in primes:
        for v in range(p, n + 1):
            if reachable[v - p]:
                reachable[v] = True
    ok = reachable[n]
    detail = (f"n={n} {'is' if ok else 'is not'} a sum of multiples of "
              f"{primes}")
    return RuleVerdict("LamLeung", True, not ok, detail)


def _de_launey(n, lev):
    # v_q(n^n) = n v_q(n): n^n itself is never formed or factored
    verdict = factored_norm_solvable(
        lev, {q: n * e for q, e in factorize(n).items()})
    if verdict is NormVerdict.INCONCLUSIVE:
        return RuleVerdict(
            "DeLauney", True, False,
            f"norm equation |d|^2 = {n}^{n} undecided at level {lev}"
        )
    obstructs = verdict is NormVerdict.UNSOLVABLE
    detail = (f"{n}^{n} {'is not' if obstructs else 'is'} a norm "
              f"in the order-{lev} cyclotomic integers")
    return RuleVerdict("DeLauney", True, obstructs, detail)


def _sylvester(n, lev):
    if lev != 2:
        return RuleVerdict("Sylvester", False, False, "only applies at l=2")
    ok = n in (1, 2) or n % 4 == 0
    return RuleVerdict("Sylvester", True, not ok,
                       f"real case requires n=2 or 4|n; n={n}")


def _sylvester_gen1(n, lev):
    p = n - 2
    if p < 3 or not is_prime(p):
        return RuleVerdict("SylvesterGen1", False, False,
                           "applies when n-2 is an odd prime")
    f = factorize(lev)
    if f.get(2) == 1 and set(f) == {2, p}:
        return RuleVerdict("SylvesterGen1", True, True,
                           f"n={p}+2 and l=2*{p}^{f[p]}")
    return RuleVerdict("SylvesterGen1", True, False,
                       f"l={lev} is not of the form 2*{p}^b")


def _sylvester_gen2(n, lev):
    q = n // 2
    if n % 2 or q < 3 or not is_prime(q):
        return RuleVerdict("SylvesterGen2", False, False,
                           "applies when n = 2q with q an odd prime")
    f = factorize(lev)
    a = f.pop(2, 0)
    if len(f) == 1 and max(f) > q:
        (p, b), = f.items()
        return RuleVerdict("SylvesterGen2", True, True,
                           f"n=2*{q} and l=2^{a}*{p}^{b} with {p}>{q}")
    return RuleVerdict("SylvesterGen2", True, False,
                       f"l={lev} is not of the form 2^a*p^b with p>{q}")


def _haagerup5(n, lev):
    if n != 5:
        return RuleVerdict("Haagerup5", False, False, "applies only at n=5")
    return RuleVerdict("Haagerup5", True, lev % 5 != 0,
                       f"order 5 requires 5|l; l={lev}")


_RULES = (_lam_leung, _sylvester, _de_launey, _sylvester_gen1,
          _sylvester_gen2, _haagerup5)  # in RULE_ORDER


def obstructions(n, lev):
    """Evaluate every obstruction rule at (n, l); any Obstructed verdict
    certifies the Butson class is empty."""
    if n < 1 or lev < 2:
        raise ValueError("need n >= 1 and l >= 2")
    if n == 1:
        return [RuleVerdict(r, False, False, "trivial order") for r in
                RULE_ORDER]
    return [rule(n, lev) for rule in _RULES]


def strongest_obstruction(n, lev):
    """First obstructing rule in precedence order, or None."""
    for v in obstructions(n, lev):
        if v.obstructs:
            return v
    return None


# ---------------------------------------------------------------------------
# existence table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellSummary:
    n: int
    level: int
    outcome: str  # "exists" | "obstructed" | "unknown"
    witness: str | None = None
    rule: str | None = None


@functools.lru_cache(maxsize=None)
def _catalog_witness(n, lev):
    """Search the constructive catalog for a member of H_n(l).

    Generators: Fourier F_n for n | l, the three named 6x6/7x7 matrices at
    root-of-unity parameters, and tensor products of smaller witnesses.
    Returns (human-readable expression, matrix) or None.
    """
    if n == 1:
        return "[1]", Hadamard(exponents=[[0]], level=1)
    if lev % n == 0:
        return f"fourier({n})", fourier(n)
    if n == 6 and lev % 3 == 0:
        return "tao()", tao()
    if n == 6 and lev % 4 == 0:
        return "haagerup(1)", haagerup(1)
    if n == 7 and lev % 6 == 0:
        return "petrescu(1)", petrescu(1)
    for d in range(2, n):
        if n % d == 0:
            left = _catalog_witness(d, lev)
            right = _catalog_witness(n // d, lev)
            if left and right:
                return (f"tensor({left[0]},{right[0]})",
                        tensor(left[1], right[1]))
    return None


def obstruction_table(n_max, l_max):
    """Existence grid over the orders 2..n_max and the levels 2..l_max:
    witness, strongest obstruction, or Unknown."""
    if n_max < 2 or l_max < 2:
        raise ValueError("table needs n_max >= 2 and l_max >= 2")
    if n_max > 10 or l_max > 14:
        raise OrderTooLarge("table supported for n_max <= 10, l_max <= 14")
    grid = []
    for n in range(2, n_max + 1):
        row = []
        for lev in range(2, l_max + 1):
            found = _catalog_witness(n, lev)
            if found is not None:
                expr, w = found
                if not w.verify():
                    raise VerifyFailed(f"catalog witness failed at ({n},{lev})")
                row.append(CellSummary(n, lev, "exists", witness=expr))
                continue
            hit = strongest_obstruction(n, lev)
            if hit is not None:
                row.append(CellSummary(n, lev, "obstructed", rule=hit.rule))
            else:
                row.append(CellSummary(n, lev, "unknown"))
        grid.append(row)
    return grid


# ---------------------------------------------------------------------------
# 1-norm and Haar estimates
# ---------------------------------------------------------------------------


def one_norm(mat):
    """Entrywise 1-norm; for unitary U it is at most n*sqrt(n), with
    equality exactly when sqrt(n)*U is Hadamard."""
    return float(np.abs(np.asarray(mat)).sum())


@dataclass(frozen=True)
class IGEstimate:
    group: str
    n: int
    k: int
    samples: int
    value: float
    stderr: float


def haar_sample(group, n, size, rng):
    """Haar-distributed orthogonal/unitary matrices via sign-fixed QR."""
    if group == "ORTHOGONAL":
        g = rng.standard_normal((size, n, n))
    elif group == "UNITARY":
        g = (rng.standard_normal((size, n, n))
             + 1j * rng.standard_normal((size, n, n))) / math.sqrt(2)
    else:
        raise ValueError("group must be ORTHOGONAL or UNITARY")
    q, r = np.linalg.qr(g)
    d = np.einsum("...ii->...i", r)
    phase = d / np.abs(d)
    return q * phase[:, None, :]


def i_g_estimate(group, n, k, samples, seed):
    """Monte-Carlo estimate of (integral of ||U||_1^k)^{1/k} over the group.

    Deterministic per seed; the standard error is propagated through the
    k-th root by the delta method.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = np.random.default_rng(seed)
    norms = np.empty(samples, dtype=np.float64)
    done = 0
    while done < samples:
        size = min(4096, samples - done)
        u = haar_sample(group, n, size, rng)
        norms[done:done + size] = np.abs(u).sum(axis=(1, 2))
        done += size
    x = norms ** k
    mean = float(x.mean())
    value = mean ** (1.0 / k)
    if samples > 1:
        se_mean = float(x.std(ddof=1)) / math.sqrt(samples)
        stderr = se_mean / (k * mean ** ((k - 1.0) / k)) if mean > 0 else 0.0
    else:
        stderr = 0.0
    return IGEstimate(group, n, k, samples, value, stderr)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def write_but(h, path):
    if not h.is_exact:
        raise MalformedMatrix("only ButsonForm can be written as .but")
    with open(path, "w") as fh:
        fh.write(f"{h.n} {h.level}\n")
        for row in h.exponents:
            fh.write(" ".join(str(int(e)) for e in row) + "\n")


def write_cmat(h, path):
    m = h.entries
    with open(path, "w") as fh:
        fh.write(f"{h.n}\n")
        for row in m:
            fh.write(" ".join(
                f"{z.real:.17g}{z.imag:+.17g}j" for z in row) + "\n")


def _file_lines(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty file", line=1)
    return lines


def _parse_rows(lines, n, conv, what):
    """The n rows after the header line, each of n tokens read by conv."""
    if len(lines) < n + 1:
        raise ParseError(f"expected {n} rows, file has {len(lines) - 1}",
                         line=len(lines))
    rows = []
    for lineno, line in enumerate(lines[1:n + 1], start=2):
        toks = line.split()
        if len(toks) != n:
            raise ParseError(f"expected {n} {what} entries, found {len(toks)}",
                             line=lineno)
        rows.append([])
        for col, t in enumerate(toks, start=1):
            try:
                rows[-1].append(conv(t))
            except ValueError as exc:
                raise ParseError(f"bad {what} token {t!r}: {exc}",
                                 line=lineno, column=col) from None
    return rows


def read_but(path):
    lines = _file_lines(path)
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError("header must be 'n l'", line=1)
    try:
        n, lev = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError("header must contain two integers", line=1) from None
    if n < 1 or lev < 1:
        raise ParseError("n and l must be positive", line=1)
    return Hadamard(exponents=_parse_rows(lines, n, int, "exponent"),
                    level=lev, provenance=f"file:{path}")


def read_cmat(path):
    lines = _file_lines(path)
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise ParseError("header must be the order n", line=1) from None
    if n < 1:
        raise ParseError("n must be positive", line=1)
    return Hadamard(entries=_parse_rows(lines, n, complex, "complex"),
                    provenance=f"file:{path}")

"""Complex Hadamard matrices: construction, classification, obstructions.

A matrix is held either exactly (ButsonForm: level l and an integer exponent
matrix, entry = zeta_l^e) or numerically (ComplexForm).  All classification
routines are exact on the Butson path and tolerance-guarded on the float path.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._exact import is_prime
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
    factorize,
    hermitian_norm_solvable,
    root_reduction_table,
)

LEVEL_INFINITE = math.inf

_FINGERPRINT_DIGITS = 6


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
        g = self.level
        for e in self.exponents.flat:
            g = math.gcd(g, int(e))
            if g == 1:
                break
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
        """First non-orthogonal row pair, or None."""
        if self.is_exact:
            table = root_reduction_table(self.level)
            for i in range(self.n):
                for j in range(i + 1, self.n):
                    d = (self.exponents[i] - self.exponents[j]) % self.level
                    if table[d].sum(axis=0).any():
                        return (i, j)
            return None
        gram = self.entries @ self.entries.conj().T
        np.fill_diagonal(gram, 0)
        bad = np.argwhere(np.abs(gram) > self.n * tol)
        return tuple(int(x) for x in bad[0]) if len(bad) else None

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
    return Hadamard(exponents=np.outer(idx, idx) % n, level=max(n, 1),
                    provenance=f"fourier({n})")


def dephase(h):
    """Equivalent matrix with all-ones first row and column (idempotent)."""
    return pivot_dephase(h, 0, 0)


def pivot_dephase(h, r, c):
    """Dephase so that row r and column c become all ones."""
    if h.is_exact:
        e = h.exponents
        out = (e - e[r][None, :] - e[:, c][:, None] + e[r, c]) % h.level
        return Hadamard(exponents=out, level=h.level, provenance=h.provenance)
    m = h.entries
    out = m * m[r].conj()[None, :] * m[:, c].conj()[:, None] * m[r, c]
    return Hadamard(entries=out, provenance=h.provenance)


def _param_kind(q):
    """Classify a unit-circle parameter: turns (exact) or complex (float).

    Rational and integer inputs are read as turns: q -> e^{2 pi i q}.
    """
    if isinstance(q, (int, Fraction)):
        t = Fraction(q) % 1
        return "exact", t.numerator, t.denominator
    if isinstance(q, complex) or isinstance(q, float):
        z = complex(q)
        if abs(abs(z) - 1.0) > 1e-9:
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
    exact_l = None
    float_l = None
    if l_params is None:
        exact_l = np.zeros((m, n), dtype=np.int64), 1
    else:
        arr = np.asarray(l_params, dtype=object)
        if arr.shape != (m, n):
            raise ShapeMismatch(
                f"parameter matrix must be {m}x{n}, got {arr.shape}"
            )
        kinds = [_param_kind(q) for q in arr.flat]
        if all(kd[0] == "exact" for kd in kinds):
            den = 1
            for kd in kinds:
                den = math.lcm(den, kd[2])
            exps = np.array(
                [kd[1] * (den // kd[2]) for kd in kinds], dtype=np.int64
            ).reshape(m, n)
            exact_l = exps, den
        else:
            float_l = np.array(
                [complex(kd[1]) if kd[0] == "float"
                 else np.exp(2j * np.pi * kd[1] / kd[2]) for kd in kinds]
            ).reshape(m, n)

    label = f"dita({h.provenance or 'H'},{k.provenance or 'K'})"
    if h.is_exact and k.is_exact and exact_l is not None:
        l_exp, l_lev = exact_l
        lev = math.lcm(h.level, k.level, l_lev)
        he = h.exponents * (lev // h.level)
        ke = k.exponents * (lev // k.level)
        le = l_exp * (lev // l_lev)
        out = np.zeros((n * m, n * m), dtype=np.int64)
        for i in range(n):
            for a in range(m):
                out[i * m + a] = (
                    he[i][:, None] + le[a][:, None] + ke[a][None, :]
                ).reshape(-1)
        return Hadamard(exponents=out % lev, level=lev, provenance=label)
    hm = h.entries
    km = k.entries
    lm = float_l if float_l is not None else np.exp(
        2j * np.pi * exact_l[0] / exact_l[1]
    )
    out = np.zeros((n * m, n * m), dtype=np.complex128)
    for i in range(n):
        for a in range(m):
            out[i * m + a] = (
                hm[i][:, None] * lm[a][:, None] * km[a][None, :]
            ).reshape(-1)
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


def haagerup(q):
    """The 6x6 one-parameter family with entries {1, +-i, +-q, +-qbar}."""
    kind = _param_kind(q)
    # pattern: value = sign * i^ipow * q^qpow  (qpow in {0, 1, -1})
    P = [
        [(1, 0, 0)] * 6,
        [(1, 0, 0), (-1, 0, 0), (1, 1, 0), (1, 1, 0), (-1, 1, 0), (-1, 1, 0)],
        [(1, 0, 0), (1, 1, 0), (-1, 0, 0), (-1, 1, 0), (1, 0, 1), (-1, 0, 1)],
        [(1, 0, 0), (1, 1, 0), (-1, 1, 0), (-1, 0, 0), (-1, 0, 1), (1, 0, 1)],
        [(1, 0, 0), (-1, 1, 0), (1, 0, -1), (-1, 0, -1), (1, 1, 0), (-1, 0, 0)],
        [(1, 0, 0), (-1, 1, 0), (-1, 0, -1), (1, 0, -1), (-1, 0, 0), (1, 1, 0)],
    ]
    if kind[0] == "exact":
        num, den = kind[1], kind[2]
        lev = math.lcm(4, den)
        qe = num * (lev // den)
        exps = [[(0 if s > 0 else lev // 2)
                 + ip * (lev // 4) + qp * qe
                 for (s, ip, qp) in row] for row in P]
        return Hadamard(exponents=np.array(exps) % lev, level=lev,
                        provenance=f"haagerup({num}/{den})")
    z = kind[1]
    ent = [[s * (1j ** ip) * (z ** qp) for (s, ip, qp) in row] for row in P]
    return Hadamard(entries=np.array(ent), provenance="haagerup(float)")


def petrescu(q):
    """The 7x7 one-parameter family over sixth roots of unity."""
    kind = _param_kind(q)
    # entries w^wpow * q^qpow with w = zeta_6
    P = [
        [(0, 0)] * 7,
        [(0, 0), (1, 1), (4, 1), (5, 0), (3, 0), (3, 0), (1, 0)],
        [(0, 0), (4, 1), (1, 1), (3, 0), (5, 0), (3, 0), (1, 0)],
        [(0, 0), (5, 0), (3, 0), (1, -1), (4, -1), (1, 0), (3, 0)],
        [(0, 0), (3, 0), (5, 0), (4, -1), (1, -1), (1, 0), (3, 0)],
        [(0, 0), (3, 0), (3, 0), (1, 0), (1, 0), (4, 0), (5, 0)],
        [(0, 0), (1, 0), (1, 0), (3, 0), (3, 0), (5, 0), (4, 0)],
    ]
    if kind[0] == "exact":
        num, den = kind[1], kind[2]
        lev = math.lcm(6, den)
        qe = num * (lev // den)
        exps = [[wp * (lev // 6) + qp * qe for (wp, qp) in row] for row in P]
        return Hadamard(exponents=np.array(exps) % lev, level=lev,
                        provenance=f"petrescu({num}/{den})")
    z = kind[1]
    w = np.exp(2j * np.pi / 6)
    ent = [[(w ** wp) * (z ** qp) for (wp, qp) in row] for row in P]
    return Hadamard(entries=np.array(ent), provenance="petrescu(float)")


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
    return dita(fourier(2), fourier(2), [[0, 0], [0, _as_turns_or_complex(q)]])


def _as_turns_or_complex(q):
    kind = _param_kind(q)
    if kind[0] == "exact":
        return Fraction(kind[1], kind[2])
    return kind[1]


def f6_two_three(r, s):
    """Deformation of F_2 tensor F_3 with column parameter matrix."""
    zero = Fraction(0)
    params = [[zero, zero],
              [zero, _as_turns_or_complex(r)],
              [zero, _as_turns_or_complex(s)]]
    return dita(fourier(2), fourier(3), params)


def f6_three_two(r, s):
    """Deformation of F_3 tensor F_2 with row parameter matrix."""
    zero = Fraction(0)
    params = [[zero, zero, zero],
              [zero, _as_turns_or_complex(r), _as_turns_or_complex(s)]]
    return dita(fourier(3), fourier(2), params)


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


def _cycle_cover_exact(exponents, lev):
    """Partition a multiset of exponents into rotated prime cycles.

    A cycle with prime p | lev and base c covers {c + t*lev/p : t}.  Returns
    the list of (p, c) cycles or None.  Any unimodular rotation of a p-cycle
    inside the lev-th roots forces the rotation itself to be a lev-th root,
    so searching bases among the present exponents is exhaustive.
    """
    primes = [p for p in factorize(lev)]
    counts = Counter(int(e) % lev for e in exponents)

    def rec():
        live = [e for e, c in counts.items() if c > 0]
        if not live:
            return []
        base = min(live)
        for p in primes:
            step = lev // p
            members = [(base + t * step) % lev for t in range(p)]
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


def _cycle_cover_float(values, n, tol):
    """Float analogue; primes up to the number of values."""
    primes = [p for p in range(2, n + 1) if is_prime(p)]
    vals = list(values)

    def take(target):
        for idx, v in enumerate(vals):
            if v is not None and abs(v - target) <= 10 * tol:
                return idx
        return None

    def rec(remaining):
        if remaining == 0:
            return []
        base_idx = min(
            (i for i, v in enumerate(vals) if v is not None),
            key=lambda i: (round(np.angle(vals[i]), 9), i),
        )
        base = vals[base_idx]
        for p in primes:
            if p > remaining:
                break
            taken = []
            ok = True
            for t in range(p):
                target = base * np.exp(2j * np.pi * t / p)
                idx = take(target)
                if idx is None:
                    ok = False
                    break
                taken.append((idx, vals[idx]))
                vals[idx] = None
            if ok:
                rest = rec(remaining - p)
                if rest is not None:
                    return [(p, base)] + rest
            for idx, v in taken:
                vals[idx] = v
        return None

    return rec(len(vals))


def is_regular(h, tol=DEFAULT_TOL):
    """Do all row scalar products decompose into rotated prime cycles?"""
    report = RegularityReport(True)
    if h.is_exact:
        lev = h.level
        for i in range(h.n):
            for j in range(h.n):
                if i == j:
                    continue
                d = (h.exponents[i] - h.exponents[j]) % lev
                cover = _cycle_cover_exact(d, lev)
                if cover is None:
                    return RegularityReport(False, failing_pair=(i, j))
                report.certificates[(i, j)] = cover
        return report
    m = h.entries
    for i in range(h.n):
        for j in range(h.n):
            if i == j:
                continue
            prods = m[i] * m[j].conj()
            cover = _cycle_cover_float(prods, h.n, tol)
            if cover is None:
                return RegularityReport(False, failing_pair=(i, j))
            report.certificates[(i, j)] = cover
    return report


def certificate_resum(h, report, tol=DEFAULT_TOL):
    """Check each certificate reproduces its scalar-product multiset."""
    if not report.regular:
        return False
    for (i, j), cycles in report.certificates.items():
        if h.is_exact:
            d = Counter(
                int(x) for x in
                (h.exponents[i] - h.exponents[j]) % h.level
            )
            got = Counter()
            for p, c in cycles:
                step = h.level // p
                for t in range(p):
                    got[(c + t * step) % h.level] += 1
            if got != d:
                return False
        else:
            prods = sorted(
                (h.entries[i] * h.entries[j].conj()),
                key=lambda z: (round(z.real, 6), round(z.imag, 6)),
            )
            got = sorted(
                (c * np.exp(2j * np.pi * t / p)
                 for p, c in cycles for t in range(p)),
                key=lambda z: (round(z.real, 6), round(z.imag, 6)),
            )
            if len(prods) != len(got) or any(
                abs(a - b) > 20 * tol for a, b in zip(prods, got)
            ):
                return False
    return True


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------


def fingerprint(h):
    """Haagerup's invariant Lambda(H): the multiset of quadruple products
    H_ij H*_kj H*_il H_kl over all i, k, j, l.

    It is invariant under row/column permutations and unimodular scalings.
    On Butson input it is exact: the quadruple exponents q mod l, divided by
    g = gcd(l, all q), as the pair (l/g, histogram of q/g).  Every dephased
    entry is a quadruple and every quadruple a product of dephased entries,
    so l/g is the level of the dephased matrix, whatever level H is written
    at.  On float input it is the sorted tuple of the products, each rounded
    to _FINGERPRINT_DIGITS decimals.
    """
    if h.is_exact:
        e = h.exponents
        rows = e[:, None, :] - e[None, :, :]
        q = (rows[:, :, :, None] - rows[:, :, None, :]) % h.level
        g = math.gcd(h.level, int(np.gcd.reduce(q, axis=None)))
        lev = h.level // g
        hist = np.bincount((q // g).ravel(), minlength=lev)
        return lev, tuple(hist.tolist())
    m = h.entries
    rows = m[:, None, :] * m[None, :, :].conj()
    z = rows[:, :, :, None] * rows[:, :, None, :].conj()
    return tuple(np.sort(np.round(z, _FINGERPRINT_DIGITS).ravel()).tolist())


def _value_keys(h, common_level):
    """Per-entry keys: exponents at the common level, or rounded entries."""
    if h.is_exact:
        return h.exponents * (common_level // h.level)
    return np.round(h.entries, _FINGERPRINT_DIGITS)


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
    compared in float form.
    """
    if h.n != k.n:
        return False
    if h.is_exact != k.is_exact:
        h, k = (Hadamard(entries=x.entries, provenance=x.provenance)
                for x in (h, k))
    if fingerprint(h) != fingerprint(k):
        return False
    if h.n > max_order:
        raise OrderTooLarge(
            f"order {h.n} > {max_order}: fingerprints match but the "
            "exhaustive search is out of range (verdict Unknown)"
        )
    common = math.lcm(h.level, k.level) if h.is_exact else None
    b_keys = _value_keys(dephase(k), common)
    for r in range(h.n):
        for c in range(h.n):
            a_keys = _value_keys(pivot_dephase(h, r, c), common)
            if _perm_equal_search(a_keys, b_keys):
                return True
    return False


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
    """All vectors e in [lev]^{n-1} with 1 + sum zeta^{e_j} = 0, sorted."""
    table = root_reduction_table(lev)
    pool = []
    for tup in itertools.product(range(lev), repeat=n - 1):
        acc = table[0].copy()
        for e in tup:
            acc += table[e]
        if not acc.any():
            pool.append(tup)
    return pool, table


def butson_enumerate(n, lev, mode="any_witness", budget=10_000_000):
    """Backtracking enumeration of dephased Butson matrices.

    Rows after the first are drawn from the zero-sum pool in strictly
    increasing lexicographic order (rows of a Hadamard matrix are distinct,
    so this loses no class).  Arriving at an empty result with complete=True
    proves the class is empty.
    """
    if mode not in ("any_witness", "all_dephased_classes"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "all_dephased_classes" and (n > 6 or lev > 6):
        raise OrderTooLarge("class enumeration supported for n<=6, l<=6")
    if mode == "any_witness" and (n > 8 or lev > 6):
        raise OrderTooLarge("witness search supported for n<=8, l<=6")
    if n == 1:
        h = Hadamard(exponents=[[0]], level=max(lev, 1))
        return EnumerationResult(n, lev, mode, [h], True, 1, 1)

    pool, table = _zero_sum_pool(n, lev)
    m = len(pool)
    pool_arr = np.array(pool, dtype=np.int64) if m else \
        np.zeros((0, n - 1), dtype=np.int64)
    nodes = 0
    configs = 0
    found = []
    compat_cache = {}

    def compat_mask(idx):
        if idx not in compat_cache:
            diffs = (pool_arr[idx][None, :] - pool_arr) % lev
            sums = table[diffs].sum(axis=1) + table[0][None, :]
            compat_cache[idx] = ~sums.any(axis=1)
        return compat_cache[idx]

    def emit(chosen):
        exps = np.zeros((n, n), dtype=np.int64)
        for r, idx in enumerate(chosen, start=1):
            exps[r, 1:] = pool_arr[idx]
        return Hadamard(exponents=exps, level=lev,
                        provenance=f"butson_enumerate({n},{lev})")

    complete = True

    def rec(chosen, mask):
        nonlocal nodes, configs, complete
        if len(chosen) == n - 1:
            configs += 1
            found.append(emit(chosen))
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

    if mode == "all_dephased_classes":
        buckets = {}
        classes = []
        for h in found:
            reps = buckets.setdefault(fingerprint(h), [])
            if not any(equivalent(h, rep) for rep in reps):
                reps.append(h)
                classes.append(h)
        found = classes
    return EnumerationResult(n, lev, mode, found, complete, nodes, configs)


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
    verdict = hermitian_norm_solvable(lev, n ** n)
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
    rest = lev
    if rest % 2 == 0:
        rest //= 2
        b = 0
        while rest % p == 0:
            rest //= p
            b += 1
        if rest == 1 and b >= 1:
            return RuleVerdict("SylvesterGen1", True, True,
                               f"n={p}+2 and l=2*{p}^{b}")
    return RuleVerdict("SylvesterGen1", True, False,
                       f"l={lev} is not of the form 2*{p}^b")


def _sylvester_gen2(n, lev):
    q = n // 2
    if n % 2 or q < 3 or not is_prime(q):
        return RuleVerdict("SylvesterGen2", False, False,
                           "applies when n = 2q with q an odd prime")
    rest = lev
    a = 0
    while rest % 2 == 0:
        rest //= 2
        a += 1
    if rest > 1:
        ps = factorize(rest)
        if len(ps) == 1:
            (p, b), = ps.items()
            if p > q and b >= 1:
                return RuleVerdict("SylvesterGen2", True, True,
                                   f"n=2*{q} and l=2^{a}*{p}^{b} with {p}>{q}")
    return RuleVerdict("SylvesterGen2", True, False,
                       f"l={lev} is not of the form 2^a*p^b with p>{q}")


def _haagerup5(n, lev):
    if n != 5:
        return RuleVerdict("Haagerup5", False, False, "applies only at n=5")
    return RuleVerdict("Haagerup5", True, lev % 5 != 0,
                       f"order 5 requires 5|l; l={lev}")


def obstructions(n, lev):
    """Evaluate every obstruction rule at (n, l); any Obstructed verdict
    certifies the Butson class is empty."""
    if n < 1 or lev < 2:
        raise ValueError("need n >= 1 and l >= 2")
    if n == 1:
        return [RuleVerdict(r, False, False, "trivial order") for r in
                RULE_ORDER]
    checks = {
        "LamLeung": _lam_leung,
        "Sylvester": _sylvester,
        "DeLauney": _de_launey,
        "SylvesterGen1": _sylvester_gen1,
        "SylvesterGen2": _sylvester_gen2,
        "Haagerup5": _haagerup5,
    }
    return [checks[r](n, lev) for r in RULE_ORDER]


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


def _catalog_witness(n, lev, _cache=None):
    """Search the constructive catalog for a member of H_n(l).

    Generators: Fourier F_n for n | l, the three named 6x6/7x7 matrices at
    root-of-unity parameters, and tensor products of smaller witnesses.
    Returns (human-readable expression, matrix) or None.
    """
    if _cache is None:
        _cache = {}
    key = (n, lev)
    if key in _cache:
        return _cache[key]
    result = None
    if n == 1:
        result = "[1]", Hadamard(exponents=[[0]], level=1)
    elif lev % n == 0:
        result = f"fourier({n})", fourier(n)
    elif n == 6 and lev % 3 == 0:
        result = "tao()", tao()
    elif n == 6 and lev % 4 == 0:
        result = "haagerup(1)", haagerup(1)
    elif n == 7 and lev % 6 == 0:
        result = "petrescu(1)", petrescu(1)
    else:
        for d in range(2, n):
            if n % d == 0:
                left = _catalog_witness(d, lev, _cache)
                right = _catalog_witness(n // d, lev, _cache)
                if left and right:
                    result = (f"tensor({left[0]},{right[0]})",
                              tensor(left[1], right[1]))
                    break
    _cache[key] = result
    return result


def obstruction_table(n_max, l_max):
    """Existence grid: witness, strongest obstruction, or Unknown."""
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


def _parse_tokens(line, lineno, count, conv, what):
    toks = line.split()
    if len(toks) != count:
        raise ParseError(
            f"expected {count} {what} entries, found {len(toks)}",
            line=lineno,
        )
    out = []
    for col, t in enumerate(toks, start=1):
        try:
            out.append(conv(t))
        except ValueError as exc:
            raise ParseError(f"bad {what} token {t!r}: {exc}",
                             line=lineno, column=col) from None
    return out


def read_but(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty file", line=1)
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError("header must be 'n l'", line=1)
    try:
        n, lev = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError("header must contain two integers", line=1) from None
    if n < 1 or lev < 1:
        raise ParseError("n and l must be positive", line=1)
    if len(lines) < n + 1:
        raise ParseError(f"expected {n} rows, file has {len(lines) - 1}",
                         line=len(lines))
    rows = [
        _parse_tokens(lines[i + 1], i + 2, n, int, "exponent")
        for i in range(n)
    ]
    return Hadamard(exponents=rows, level=lev, provenance=f"file:{path}")


def read_cmat(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty file", line=1)
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise ParseError("header must be the order n", line=1) from None
    if n < 1:
        raise ParseError("n must be positive", line=1)
    if len(lines) < n + 1:
        raise ParseError(f"expected {n} rows, file has {len(lines) - 1}",
                         line=len(lines))
    rows = [
        _parse_tokens(lines[i + 1], i + 2, n, complex, "complex")
        for i in range(n)
    ]
    return Hadamard(entries=rows, provenance=f"file:{path}")

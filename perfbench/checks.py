"""Output checks for the benchmark, made apart from the library.

Every check takes plain values (integers, Fractions, nested lists, numpy
arrays) and returns a list of failure messages; an empty list means the
output passed.  The oracles here are small independent implementations
(set partitions, joins, Stirling numbers, fraction-free determinants,
brute force over S_4) or properties the method must have.  This module
never imports qperm.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

# the three largest primes below 2^61, for the modular identity checks
CHECK_PRIMES = (2305843009213693951, 2305843009213693921, 2305843009213693907)


# ---------------------------------------------------------------------------
# combinatorial oracles
# ---------------------------------------------------------------------------


def bell(k):
    """Bell number by the Bell triangle."""
    row = [1]
    for _ in range(k):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def catalan(k):
    return math.comb(2 * k, k) // (k + 1)


def fuss_catalan(k):
    """C(3k, k)/(2k+1): the even moments of the free Bessel law at t = 1."""
    return math.comb(3 * k, k) // (2 * k + 1)


def stirling2(k, m):
    """Stirling numbers of the second kind by the triangular recurrence."""
    table = [[1]]
    for i in range(1, k + 1):
        prev = table[-1]
        row = [0] * (i + 1)
        for j in range(1, i + 1):
            row[j] = j * (prev[j] if j < len(prev) else 0) + prev[j - 1]
        table.append(row)
    return table[k][m] if m <= k else 0


def truncated_moment_oracle(n, s, k):
    """E chi_s^k over S_n: sum_m S(k, m) (s)_m / (n)_m, exactly."""
    return sum((Fraction(stirling2(k, m) * math.perm(s, m), math.perm(n, m))
                for m in range(k + 1)), Fraction(0))


def set_partitions(k, noncrossing=False):
    """Partitions of k points as block-label tuples (restricted growth)."""
    out = []
    for labels in itertools.product(range(k), repeat=k):
        if any(labels[i] > max(labels[:i], default=-1) + 1 for i in range(k)):
            continue
        if noncrossing and _crosses(labels):
            continue
        out.append(labels)
    return out


def _crosses(labels):
    k = len(labels)
    for a, b, c, d in itertools.combinations(range(k), 4):
        if labels[a] == labels[c] and labels[b] == labels[d] \
                and labels[a] != labels[b]:
            return True
    return False


def join_size(p, q):
    """Number of blocks of the join of two partitions (union-find)."""
    parent = list(range(len(p)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for labels in (p, q):
        first = {}
        for pt, lab in enumerate(labels):
            if lab in first:
                a, b = find(first[lab]), find(pt)
                if a != b:
                    parent[b] = a
            else:
                first[lab] = pt
    return len({find(x) for x in range(len(p))})


def gram_matrix(k, n, noncrossing=False):
    parts = set_partitions(k, noncrossing)
    return [[n ** join_size(a, b) for b in parts] for a in parts]


def bareiss(rows):
    """Exact integer determinant, fraction-free elimination."""
    m = [list(r) for r in rows]
    size = len(m)
    sign, prev = 1, 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if size else 1


def fraction_inverse(rows):
    """Inverse over the rationals by Gauss-Jordan (small matrices only)."""
    size = len(rows)
    aug = [[Fraction(x) for x in r] + [Fraction(int(i == j))
                                       for j in range(size)]
           for i, r in enumerate(rows)]
    for c in range(size):
        piv = next(r for r in range(c, size) if aug[r][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(size):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
    return [r[size:] for r in aug]


def free_block_moment(n, m, big_n, k):
    """k-th free moment of sum_{i<=n, j<=m} u_ij over S_N^+ (Weingarten)."""
    parts = set_partitions(k, noncrossing=True)
    w = fraction_inverse(gram_matrix(k, big_n, noncrossing=True))
    return sum((Fraction(n) ** len(set(p)) * Fraction(m) ** len(set(q))
                * w[a][b]
                for a, p in enumerate(parts) for b, q in enumerate(parts)),
               Fraction(0))


def s4_word_average(word):
    """Average over S_4 of u_{i1 j1} ... u_{ik jk}, u the permutation matrix.

    u_ij = 1 exactly when sigma(j) = i.  NC(k) = P(k) for k <= 3, so for
    words of length at most 3 this equals the free integral too.
    """
    hits = sum(all(perm[j - 1] == i for i, j in word)
               for perm in itertools.permutations(range(1, 5)))
    return Fraction(hits, 24)


def haagerup_histogram(exponents, level, common_level=None):
    """Histogram of E_ij - E_kj - E_il + E_kl mod l over all index quadruples.

    It is unchanged by row and column permutations and by row and column
    phase moves, so it separates inequivalent Butson matrices.
    """
    common = common_level or level
    e = np.asarray(exponents, dtype=np.int64) * (common // level)
    q = (e[:, None, :, None] - e[None, :, :, None]
         - e[:, None, None, :] + e[None, :, None, :]) % common
    return tuple(np.bincount(q.ravel(), minlength=common).tolist())


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _mod(x, p):
    x = Fraction(x)
    return x.numerator % p * pow(x.denominator, -1, p) % p


def check_fourier_series(n, values):
    """c_k(F_n) = n^(k-1) for k >= 1, c_0 = 1."""
    want = [1] + [n ** (k - 1) for k in range(1, len(values))]
    got = [int(v) for v in values]
    return [] if got == want else [f"c_k(F_{n}) = {got}, expected {want}"]


def check_series_lower_bound(values):
    """c_0 = c_1 = 1 for a Hadamard matrix and c_k >= Catalan(k)."""
    fails = []
    if [int(v) for v in values[:2]] != [1, 1][:len(values)]:
        fails.append(f"c_0, c_1 = {list(values[:2])}, expected 1, 1")
    for k, v in enumerate(values):
        if int(v) < catalan(k):
            fails.append(f"c_{k} = {v} < Catalan({k}) = {catalan(k)}")
    return fails


def check_equal(what, got, want):
    return [] if got == want else [f"{what}: got {got!r}, expected {want!r}"]


def check_moments(values, oracle):
    """values[k] equals oracle(k) exactly for every k."""
    fails = []
    for k, v in enumerate(values):
        want = oracle(k)
        if Fraction(v) != want:
            fails.append(f"moment k={k}: got {v}, expected {want}")
    return fails


def check_gram_inverse(gram, weingarten, primes=CHECK_PRIMES):
    """G W = I modulo each prime, and G is n^|pi v sigma| in shape."""
    m = len(gram)
    if weingarten is None or len(weingarten) != m \
            or any(len(r) != m for r in weingarten):
        return [f"Weingarten matrix missing or not {m} x {m}"]
    for p in primes:
        g = [[x % p for x in row] for row in gram]
        w = [[_mod(x, p) for x in row] for row in weingarten]
        for i in range(m):
            for j in range(m):
                acc = sum(g[i][t] * w[t][j] for t in range(m)) % p
                if acc != (i == j):
                    return [f"(G W)[{i}][{j}] != {int(i == j)} mod {p}"]
    return []


def check_gram_matches(k, n, noncrossing, partitions, gram):
    """The partitions are the family's, and G = (n^|pi v sigma|) on them."""
    parts = [tuple(p) for p in partitions]
    want = set_partitions(k, noncrossing)
    if sorted(parts) != sorted(want):
        return [f"{len(parts)} partitions returned, expected {len(want)}"]
    for a, p in enumerate(parts):
        for b, q in enumerate(parts):
            if gram[a][b] != n ** join_size(p, q):
                return [f"Gram[{a}][{b}] = {gram[a][b]}, expected "
                        f"{n} ** {join_size(p, q)}"]
    return []


def check_gram_det_all(k, n, det):
    """det G(ALL) = prod over partitions pi of (n)_|pi|."""
    want = 1
    for p in set_partitions(k):
        want *= math.perm(n, len(set(p)))
    return check_equal(f"det G_ALL(k={k}, n={n})", int(det), want)


def check_gram_det_free(k, n, det):
    """det G(NONCROSSING) against a fraction-free determinant made here."""
    want = bareiss(gram_matrix(k, n, noncrossing=True))
    return check_equal(f"det G_NC(k={k}, n={n})", int(det), want)


def check_word(word, value, stderr, sigmas=5.0):
    """A Monte Carlo word estimate lies within 5 SE of the S_4 average."""
    want = float(s4_word_average(word))
    slack = sigmas * stderr + 1e-9
    if not math.isfinite(value) or abs(value - want) > slack:
        return [f"word {word}: estimate {value} is not within "
                f"{sigmas} SE ({stderr:.3g}) of {want}"]
    return []


def check_hadamard(exponents, level, what="matrix"):
    """H H* = nI for H = (zeta_l^E)."""
    e = np.asarray(exponents, dtype=np.float64)
    if e.ndim != 2 or e.shape[0] != e.shape[1]:
        return [f"{what}: not square"]
    h = np.exp(2j * np.pi * e / level)
    res = float(np.abs(h @ h.conj().T - e.shape[0] * np.eye(len(e))).max())
    return [] if res <= 1e-9 else [f"{what}: |H H* - nI| = {res:.3g}"]


def check_classes(reps, level, expected_count, catalog):
    """Representatives of the dephased classes at (n, level).

    reps are exponent matrices.  Each must be Hadamard; they must be
    pairwise separated by the Haagerup histogram; their count must be
    expected_count; every catalog matrix (name, exponents, its level),
    whose entries are level-th roots, matches exactly one of them.
    """
    fails = []
    for i, e in enumerate(reps):
        fails += check_hadamard(e, level, f"class {i}")
    hists = [haagerup_histogram(e, level) for e in reps]
    if len(set(hists)) != len(hists):
        fails.append("two class representatives share a Haagerup histogram")
    if len(reps) != expected_count:
        fails.append(f"{len(reps)} classes, expected {expected_count}")
    for name, e, lev in catalog:
        h = haagerup_histogram(e, lev, common_level=level)
        hits = sum(h == r for r in hists)
        if hits != 1:
            fails.append(f"catalog {name} matches {hits} representatives")
    return fails


def check_empty_search(count, complete, what):
    if count or not complete:
        return [f"{what}: {count} matrices, complete={complete}; "
                "expected a complete, empty search"]
    return []


def check_magic_blocks(blocks, tol=1e-9):
    """Projections, self-adjoint, rows and columns summing to identity."""
    b = np.asarray(blocks, dtype=np.complex128)
    d = b.shape[2]
    eye = np.eye(d)
    proj = np.abs(np.einsum("ijac,ijcb->ijab", b, b) - b).max()
    herm = np.abs(b - b.conj().swapaxes(2, 3)).max()
    rows = np.abs(b.sum(axis=1) - eye).max()
    cols = np.abs(b.sum(axis=0) - eye).max()
    worst = float(max(proj, herm, rows, cols))
    return [] if worst <= tol else [f"magic residual {worst:.3g}"]


def blocks_to_labels(k, blocks):
    """Block-label tuple of a partition given as lists of 1-based points."""
    labels = [None] * k
    for b, block in enumerate(sorted(blocks, key=min)):
        for pt in block:
            labels[pt - 1] = b
    return tuple(labels)

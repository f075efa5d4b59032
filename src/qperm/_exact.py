"""Exact linear algebra helpers.

Two layers live here:

* small dense exact routines: the integer determinant by fraction-free
  (Bareiss) elimination, used by the partition module, and
  `fraction_matrix_inverse`, Gauss-Jordan over Fraction, which the
  package does not call; it is the independent oracle the tests invert
  with;

* a certified nullity engine for large linear systems over Q(zeta_l).
  Elimination modulo a prime gives an upper bound on the exact nullity (a
  nonzero minor mod p is nonzero exactly).  Candidate nullspace vectors
  are lifted by Vandermonde coefficient extraction, CRT and rational
  reconstruction, and then verified exactly; verified independent
  solutions bound the nullity from below, and when the bounds meet the
  dimension is certified exact.  `certified_inverse` is a client: it
  reads G^-1 from the nullspace of the level-1 system [G | I].

The zero test.  An element r of Z[zeta_l] with |sigma(r)| <= B under
every complex embedding sigma is zero once it vanishes at every
embedding modulo each of a set of primes p = 1 (mod l) whose product P
exceeds B.  Because p = 1 (mod l), p splits completely in Z[zeta_l]: the
phi(l) evaluations zeta -> r^t mod p (`embedding_roots`) are the
reductions modulo the phi(l) primes above p, whose product is pZ[zeta_l].
If r vanishes at all of them for every prime of the set, then P divides
r, so r / P lies in Z[zeta_l] and every conjugate has modulus at most
B / P < 1.  The norm N(r / P), an integer, then has modulus below 1,
hence is 0, and r = 0.  No reduction modulo Phi_l is needed, and the
package has none: this is its one exact zero test.
`prime_pool(l, w)` is the one pool of primes: p = 1 (mod l) with
w p^2 < 2^53, largest first, so that sums of w residue products stay
exact.  `zero_test_primes(l, w, B)` takes its leading primes until their
product exceeds B, each with its embedding roots.  Verification below,
the prime loop, the magic-unitary checks of `quantum` and the
orthogonality and zero-sum checks of `hadamard` read only these two.
`matmul_mod(a, b, p)` is the one product of residue arrays: it splits
the contraction into partial sums short enough to stay exact, in float64
or int64, and its docstring derives that length once.  The Fix rows, the
Fix and Hom contractions and G modulo p of `quantum`, the Vandermonde
solve and the embedding of vectors all sum through it.
`reduce_mod(a, p)` is the one float64 reduction, exact for
|a| <= 2^53 - 2p; outside `matmul_mod` only `ModRREF` and
`_InverseSystem` sum residue products into it, as fused x - sum y z
updates, and `quantum` reduces elementwise products of two residues.
int64 sums keep `%`.

A system A is never held whole.  It exposes `ncols`, `level`,
`coeff_l1_bound` and two streams, both evaluated modulo a prime
p = 1 (mod l) at an image zeta -> root:

* `chunks_modp(p, root)` yields row chunks of A, or of rows C = M·A, M
  over Z[zeta_l], whose rank over Q(zeta_l) equals rank A; elimination
  reads them.  Their rank modulo p is at most that of A, so ncols - rank
  stays an upper bound.  Where the ranks agree at a prime the row spaces
  modulo p agree, and with them the RREF and the lifted basis.  Rows of
  lower rank over Q(zeta_l) would make the nullity bound too large at
  every prime: the lifted basis would hold vectors outside the nullspace,
  never verify, and the prime loop would not end;
* `residuals_modp(p, root, X)` yields blocks, for X of shape
  (ncols, nvec) with entries in [0, p), whose rows all vanish only if
  A·X vanishes mod p: the rows of A·X itself, or of C·X for rows C with
  A = M·C, M over Z[zeta_l].  Verification reads only these.  Every
  system computes its own blocks, contracting X against the factors its
  rows are built from, so no row is built to verify.

Verification bounds the residual.  Each entry of A has coefficients of
l1 norm at most coeff_l1_bound, each entry x_j of a vector has integer
coefficients of l1 norm ||x_j||_1, and |zeta^e| = 1 under every sigma,
so an entry r of A·x has |sigma(r)| <= ncols * coeff_l1_bound *
max_j ||x_j||_1 =: B_1, and the zero test with B = B_1 proves A·x = 0.

The prime loop.  `certified_nullity` walks prime_pool(l, ncols),
eliminating at every embedding of each prime and skipping a prime whose
embeddings disagree on (rank, pivot columns).  A reduction modulo a
prime can only lose rank or push pivots to later columns, so the best
key seen so far (higher rank, then the lexicographically first pivots)
is kept; each prime that matches it is folded into one CRT residue, once,
and the basis reconstructed from it is verified, until the bounds meet.
That ends: only finitely many primes move a pivot or split the embeddings,
the others reduce the RREF over Q(zeta_l), and once their product passes
the reconstruction bound the lift is exact and verifies for any system
whose residuals agree with its rows (the tests pin that agreement).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import CertificationFailed, RankAmbiguous
from .scalars import _GAP_FACTOR, DEFAULT_TOL, factorize

# ---------------------------------------------------------------------------
# small dense exact routines
# ---------------------------------------------------------------------------


def bareiss_det(rows):
    """Determinant of a square integer matrix, fraction-free (exact)."""
    m = [[int(x) for x in row] for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def fraction_matrix_inverse(rows):
    """Inverse of a square matrix over Fraction, or None when singular.

    The tests' oracle for certified_inverse and the Weingarten matrices.
    """
    n = len(rows)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                c = aug[r][col]
                aug[r] = [a - c * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


# ---------------------------------------------------------------------------
# primes and modular utilities
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # bases 2, 3, 5, 7 decide every n below their least strong pseudoprime
    # 3 215 031 751, so every pool prime; all twelve every n below 3.3e24
    for a in _MR_BASES[:4] if n < 3_215_031_751 else _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_pool(level, width):
    """The primes p = 1 (mod level) with width * p^2 < 2^53, largest first.

    Below that bound a float64 or int64 sum of `width` products of residues
    is exact; p <= 2^26 for every width.
    """
    level = max(level, 1)
    p_max = math.isqrt((1 << 53) // max(width + 1, 2))
    p = p_max - ((p_max - 1) % level)
    while p > max(level, 3):
        if is_prime(p):
            yield p
        p -= level


def reduce_mod(a, p):
    """Reduce a float64 array of integers into [0, p), in place; returns a.

    Needs |a| <= 2^53 - 2p for every entry.  Then, with u = 2^-53, the
    product fl(a * fl(1/p)) = (a/p)(1 + e), |e| <= 2u + u^2, lies within
    |a| 2^-52 (1 + 2^-54) / p < 2/p <= 1 of a/p, so q = its floor is
    within one of floor(a/p).  Hence |q p| <= |a| + 2p <= 2^53, so q p is
    exact, and a - q p, an integer in [-p, 2p), is exact too.  One
    conditional add of p and one conditional subtract of p land it in
    [0, p).  This is the float-modular reduction of FFLAS/FFPACK
    (Dumas-Giorgi-Pernet, ACM TOMS 2008), a floating-point Barrett
    reduction, several times faster than float64 `%` on large blocks.
    """
    q = np.multiply(a, 1.0 / p)
    np.floor(q, out=q)
    q *= p
    a -= q
    mask = np.less(a, 0)
    np.add(a, p, out=a, where=mask)
    np.subtract(a, p, out=a, where=np.greater_equal(a, p, out=mask))
    return a


def unity_root_mod(p, level):
    """An element of multiplicative order exactly `level` modulo prime p."""
    if level == 1:
        return 1
    if (p - 1) % level:
        raise ValueError("p must be 1 mod level")
    if level == 2:
        return p - 1  # the only element of order 2
    prime_divisors = factorize(level)
    for a in range(2, p):
        r = pow(a, (p - 1) // level, p)
        if r == 1:
            continue
        if all(pow(r, level // q, p) != 1 for q in prime_divisors):
            return r
    raise CertificationFailed("no root of unity found (p not prime?)")


def _wang(u, modulus):
    """Coprime (n, d), d > 0, with n/d = u mod modulus (Wang), or None."""
    u %= modulus
    if u == 0:
        return 0, 1
    bound = math.isqrt(modulus // 2)
    r0, r1 = modulus, u
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound:
        return None
    num, den = (r1, s1) if s1 > 0 else (-r1, -s1)
    if math.gcd(num, den) > 1 or math.gcd(den, modulus) != 1:
        return None
    return num, den


def crt_combine(res_a, mod_a, res_b, mod_b):
    """Combine residues into one modulo mod_a * mod_b.

    The first fold, from (0, 1), returns res_b itself.  Later folds work
    elementwise on object arrays of Python integers, in one pass.
    """
    if mod_a == 1:
        return res_b, mod_b
    res_a = np.asarray(res_a, dtype=object)
    inv = pow(mod_a % mod_b, -1, mod_b)
    diff = (res_b - res_a) % mod_b
    return res_a + mod_a * ((diff * inv) % mod_b), mod_a * mod_b


def _reconstruct(res, modulus):
    """Numerators and denominators from an array of CRT residues.

    Only the nonzero residues are reconstructed; zeros give 0/1.  None as
    soon as one reconstruction fails.
    """
    num = np.zeros(res.shape, dtype=object)
    den = np.ones(res.shape, dtype=object)
    for i in np.flatnonzero(res):
        pair = _wang(int(res.flat[i]), modulus)
        if pair is None:
            return None
        num.flat[i], den.flat[i] = pair
    return num, den


def matmul_mod(a, b, p):
    """a @ b modulo p for residue arrays in [0, p), in [0, p).

    Broadcasts like np.matmul, batched operands and a 1-D b included; the
    result has the dtype of a @ b.  This is the package's one split sum of
    residue products.  Each product is at most (p-1)^2, so a partial sum of
    `step` products, added to the reduced sum of the partial sums before
    it, is at most step (p-1)^2 + p - 1.  float64 takes
    step = floor((2^53 - 3p) / (p-1)^2), which keeps that within
    2^53 - 2p - 1, reduce_mod's bound; int64 takes
    step = floor((2^63 - p) / (p-1)^2), which keeps it within 2^63 - 1,
    and reduces by %.  step >= 1 for every p <= 2^26, so for every prime
    of the pool.
    """
    if b.ndim == 1:
        return matmul_mod(a, b[:, None], p)[..., 0]
    float64 = np.result_type(a, b) == np.float64
    step = ((1 << 53) - 3 * p if float64 else (1 << 63) - p) // (p - 1) ** 2
    out = a[..., :step] @ b[..., :step, :]
    for s in range(step, a.shape[-1], step):
        out = reduce_mod(out, p) if float64 else out % p
        out += a[..., s:s + step] @ b[..., s:s + step, :]
    return reduce_mod(out, p) if float64 else out % p


def solve_mod_vandermonde(points, rhs, p):
    """Solve V c = rhs (mod p) for V[i][j] = points[i]^j; rhs is (m, k).

    V is inverted once, by Lagrange interpolation in Python integers: with
    P(x) = prod_i (x - x_i), column i of V^-1 holds the coefficients of
    P(x) / ((x - x_i) P'(x_i)).  The inverse is applied to rhs as one int64
    product (matmul_mod).  Returns int64 residues of shape (m, k).
    """
    xs = [int(x) % p for x in points]
    m = len(xs)
    master = [1]  # P, lowest degree first
    for x in xs:
        master = [(lo - x * hi) % p
                  for lo, hi in zip([0] + master, master + [0])]
    inv = np.zeros((m, m), dtype=np.int64)
    for i, xi in enumerate(xs):
        quot, carry = [0] * m, 0  # P / (x - x_i) by synthetic division
        for j in range(m, 0, -1):
            carry = (master[j] + carry * xi) % p
            quot[j - 1] = carry
        scale = pow(math.prod(xi - x for k, x in enumerate(xs) if k != i)
                    % p, -1, p)
        inv[:, i] = [c * scale % p for c in quot]
    return matmul_mod(inv, np.mod(np.asarray(rhs), p).astype(np.int64), p)


# ---------------------------------------------------------------------------
# incremental reduced row echelon form modulo p
# ---------------------------------------------------------------------------


class ModRREF:
    """Streaming RREF modulo a prime, float64-backed (exact for p^2*n < 2^53).

    Every reduction is reduce_mod of a = x - sum of products y z of
    residues, x, y, z in [0, p), summed over rows of distinct leads, each
    clear at the others' leads: the basis, the new rows below the one being
    back-substituted, or all the new rows.  At one of those leads only one
    product is summed, and at any other column at most ncols - 1, so
    |a| <= (ncols - 1)(p-1)^2 + p.  Then
    |a| + 2p <= ncols p^2 - p^2 - (ncols - 1)(2p - 1) + 3p <= ncols p^2
    < 2^53 for p >= 3, ncols = 1 included (at p = 2, |a| <= ncols + 1),
    which is reduce_mod's precondition.
    """

    def __init__(self, ncols, p, target_rank=None):
        self.ncols = ncols
        self.p = p
        self.R = np.zeros((0, ncols))
        self.piv = []
        self.target = target_rank
        self.saturated = target_rank == 0

    @property
    def rank(self):
        return len(self.piv)

    def process(self, block):
        """Feed a chunk of rows (entries already reduced into [0, p))."""
        if self.saturated:
            return
        p = self.p
        block = np.asarray(block, dtype=np.float64)
        if self.rank:
            block = reduce_mod(block - block[:, self.piv] @ self.R, p)
        while True:
            block = block[block.any(axis=1)]
            if not block.shape[0]:
                return
            lead = np.argmax(block != 0, axis=1)
            order = np.argsort(lead, kind="stable")
            # the first row of each lead; np.unique would import numpy.ma
            take = order[np.flatnonzero(np.diff(lead[order], prepend=-1))]
            leads = lead[take]
            rows = block[take]
            inv = [pow(int(x), -1, p) for x in rows[range(len(take)), leads]]
            rows = reduce_mod(rows * np.array(inv)[:, None], p)
            # bottom-up: the rows below row i are zero left of their leads
            # and already clear at each other's leads
            for i in range(len(take) - 2, -1, -1):
                coefs = rows[i, leads[i + 1:]]
                if coefs.any():
                    rows[i] = reduce_mod(rows[i] - coefs @ rows[i + 1:], p)
            coefs = self.R[:, leads]
            if coefs.any():
                self.R = reduce_mod(self.R - coefs @ rows, p)
            self.R = np.vstack([self.R, rows])
            self.piv = self.piv + leads.tolist()
            if self.target is not None and self.rank >= self.target:
                self.saturated = True
                return
            # the rest is clear at the old leads already
            block = np.delete(block, take, axis=0)
            coefs = block[:, leads]
            if coefs.any():
                block = reduce_mod(block - coefs @ rows, p)

    def finalize(self):
        """Sort rows by pivot column (entries are already fully reduced)."""
        order = np.argsort(self.piv)
        self.R = self.R[order]
        self.piv = [self.piv[i] for i in order]


# ---------------------------------------------------------------------------
# certified nullity over Q(zeta_l)
# ---------------------------------------------------------------------------


@dataclass
class NullityCertificate:
    dim: int
    level: int
    basis: list  # list of integer ndarrays (ncols, level); may be empty for dim 0
    tags: list = field(default_factory=list)


def embedding_roots(p, level):
    """The phi(level) images r^t mod p of zeta_level, gcd(t, level) = 1.

    r = unity_root_mod(p, level); evaluation at r^t is the reduction modulo
    one of the phi(level) primes above p = 1 (mod level).
    """
    r = unity_root_mod(p, level)
    return [pow(r, t, p) for t in range(level) if math.gcd(t, level) == 1]


def zero_test_primes(level, width, bound):
    """The zero test's primes for `bound`, each with its embedding roots.

    The leading primes of prime_pool(level, width) whose product first
    exceeds `bound`, as pairs (p, embedding_roots(p, level)).
    """
    out, prod = [], 1
    for p in prime_pool(level, width):
        out.append((p, embedding_roots(p, level)))
        prod *= p
        if prod > bound:
            return out
    raise CertificationFailed("prime pool exhausted below the norm bound")


def _root_powers(root, p, level):
    """root^t mod p for t = 0..level-1: zeta^t at the image zeta -> root."""
    return np.array([pow(int(root), t, p) for t in range(level)],
                    dtype=np.int64)


def _eval_vectors_mod(vectors, p, r, level):
    """Evaluate integer cyclo arrays (..., level) at zeta -> r mod p.

    Coefficients are reduced mod p first, in exact integers, and the sum
    over the powers of r is one matmul_mod.
    """
    red = np.mod(vectors, p).astype(np.int64, copy=False)
    return matmul_mod(red, _root_powers(r, p, level), p)


def _eliminate(system, p, r, target_rank=None):
    rref = ModRREF(system.ncols, p, target_rank=target_rank)
    for chunk in system.chunks_modp(p, r):
        rref.process(chunk)
        if rref.saturated:
            break
    rref.finalize()
    return rref


def _lift_basis(ncols, level, pivots, crt, p, roots, rrefs):
    """Fold prime p into the CRT residue crt = (res, modulus) and lift.

    rrefs: the finalized ModRREF at each embedding root of p, all with
    pivot columns `pivots`.  An RREF entry at a free column lies in
    Q(zeta_l) with degree below phi(l); one Vandermonde solve gives its
    power-basis coefficients mod p, CRT folds them in, one pass over an
    object array (the first prime's residues are kept as they are), and
    only the nonzero residues are reconstructed.  Returns the new crt and
    integer ndarrays (ncols, level), denominators cleared per vector, or
    None if a reconstruction fails; a vector is int64 when every entry
    fits (_fit_int64) and holds Python integers otherwise.
    """
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    stacked = [r.R[:, free].astype(np.int64).ravel() for r in rrefs]
    crt = crt_combine(*crt, solve_mod_vandermonde(roots, stacked, p), p)
    phideg = len(roots)
    vals = _reconstruct(crt[0].reshape(phideg, len(pivots), len(free)),
                        crt[1])
    if vals is None:
        return crt, None
    basis = []
    for col, num, den in zip(free, vals[0].T, vals[1].T):  # (rank, phideg)
        lcm = math.lcm(*den.flat)
        vec = np.zeros((ncols, level), dtype=object)
        vec[col, 0] = lcm
        vec[pivots, :phideg] = -num * (lcm // den)
        basis.append(_fit_int64(vec))
    return crt, basis


def _fit_int64(a):
    """An object array of Python integers as int64 when every entry lies
    in (-2^63, 2^63), else unchanged."""
    if a.size and int(np.abs(a).max()) >= 1 << 63:
        return a
    return a.astype(np.int64)


def _l1_max(X):
    """The largest sum of |X[..., t]| over the last axis, exact: in int64
    when level * max |x| < 2^63, else in Python integers."""
    A = np.abs(X)
    if A.dtype != object and (A.min() < 0 or  # |-2^63| wraps in int64
                              int(A.max()) * A.shape[-1] >= 1 << 63):
        A = np.abs(X.astype(object))
    return int(A.sum(axis=-1).max())


def _verify_basis(system, basis, tags):
    """Exact verification of A·x = 0 for every basis vector.

    The zero test of the module docstring with B = B_1, at the embeddings
    of zero_test_primes(level, ncols, B_1), applied through the blocks
    that system.residuals_modp computes without rows of A.  ||x_j||_1 in
    B_1 is read from the vectors, exactly (_l1_max).
    """
    if not basis:
        return True
    level = max(system.level, 1)
    X = np.array([np.asarray(v) for v in basis])
    bound = system.ncols * system.coeff_l1_bound * _l1_max(X)
    primes = zero_test_primes(level, system.ncols, bound)
    tags.append(f"verify-primes={len(primes)}")
    for p, roots in primes:
        for root in roots:
            Xt = _eval_vectors_mod(X, p, root, level)  # (nvec, ncols)
            XtT = np.ascontiguousarray(Xt.T)
            for block in system.residuals_modp(p, root, XtT):
                if block.any():
                    return False
    return True


def _independent_mod(basis, p, root, level):
    """Rank check of candidate vectors at one embedding modulo p."""
    X = np.array([np.asarray(v) for v in basis])
    Xt = _eval_vectors_mod(X, p, root, level)
    rref = ModRREF(Xt.shape[1], p)
    rref.process(Xt)
    return rref.rank == len(basis)


def certified_nullity(system, candidates=None):
    """Certified exact nullity of a streamed system over Q(zeta_l).

    `system` exposes ncols, level, coeff_l1_bound, the row stream
    chunks_modp(p, root) for elimination, and residuals_modp(p, root, X),
    its own A·X blocks, for verification (see the module docstring).
    `candidates`, exact integer cyclo vectors known to be independent
    solutions elsewhere, are verified against *this* system, and the rank
    bound then stops early; on any failure the prime loop of the module
    docstring runs.  Each read of prime_pool(level, ncols) starts from
    the largest prime.
    """
    ncols = system.ncols
    level = max(system.level, 1)
    tags = []

    if ncols == 0:
        return NullityCertificate(0, level, [], ["empty-system"])

    if candidates is not None:
        n_cand = len(candidates)
        target = ncols - n_cand
        p0 = next(prime_pool(level, ncols))
        root = embedding_roots(p0, level)[0]
        ok = n_cand == 0 or (
            _independent_mod(candidates, p0, root, level)
            and _verify_basis(system, candidates, tags)
        )
        if ok:
            rref = _eliminate(system, p0, root, target_rank=target)
            if rref.rank == target:
                tags.append("candidates-certified")
                return NullityCertificate(n_cand, level, list(candidates), tags)
        tags.append("candidates-fallback")

    best = None
    for p in prime_pool(level, ncols):
        roots = embedding_roots(p, level)
        rrefs = [_eliminate(system, p, root) for root in roots]
        keys = {(-r.rank, tuple(r.piv)) for r in rrefs}
        if len(keys) > 1:
            continue
        key = keys.pop()
        if key[0] == -ncols:
            return NullityCertificate(0, level, [], tags + ["full-rank"])
        if best is None or key < best:
            best, crt, lifted = key, (0, 1), 0
        elif key != best:
            continue
        crt, basis = _lift_basis(ncols, level, best[1], crt, p, roots, rrefs)
        lifted += 1
        if basis is not None and _verify_basis(system, basis, tags):
            tags.append(f"lift-primes={lifted}")
            return NullityCertificate(ncols + best[0], level, basis, tags)
    raise CertificationFailed("prime pool exhausted")


# ---------------------------------------------------------------------------
# certified inverse of an integer matrix, a level-1 system of the engine
# ---------------------------------------------------------------------------


class _InverseSystem:
    """[G | I] for a square integer matrix G: level 1, nullspace (x ; -G·x).

    p lies below the float64 bound for the 2m columns, so the float64
    product G·X_top + X_bottom of residues, below m (p-1)^2 + p, is exact
    and within reduce_mod's bound.
    """

    level = 1

    def __init__(self, g):
        self.g, self.m = np.array(g, dtype=object), len(g)
        self.ncols = 2 * self.m
        self.coeff_l1_bound = max(int(np.abs(self.g).max()), 1)

    def _residues(self, p):
        return (self.g % p).astype(np.float64)

    def chunks_modp(self, p, root):
        yield np.hstack([self._residues(p), np.eye(self.m)])

    def residuals_modp(self, p, root, X):
        yield reduce_mod(self._residues(p) @ X[:self.m] + X[self.m:], p)


def certified_inverse(rows):
    """Exact inverse of a nonsingular square integer matrix, over Fraction.

    W is read from the certified nullspace of [G | I]: for invertible G
    its RREF basis is (-D·W ; D), D diagonal.  A certified basis of any
    other shape means G is singular, or that the engine kept primes that
    moved a pivot: ValueError if bareiss_det(G) == 0, else
    CertificationFailed.  So neither W nor "singular" is ever wrong.
    """
    g = [[int(x) for x in row] for row in rows]
    m = len(g)
    if any(len(row) != m for row in g):
        raise ValueError("matrix must be square")
    if m == 0:
        return []
    basis = np.array(certified_nullity(_InverseSystem(g)).basis)[..., 0]
    top, bottom = basis[:, :m], basis[:, m:]
    den = np.diagonal(bottom).tolist()
    if np.count_nonzero(bottom) != m or not all(den):
        if bareiss_det(g) == 0:
            raise ValueError("matrix is singular")
        raise CertificationFailed("inverse basis has pivots off G")
    return [[Fraction(-t, d) for t, d in zip(row, den)]
            for row in top.T.tolist()]


# ---------------------------------------------------------------------------
# float nullity with singular-value gap guard
# ---------------------------------------------------------------------------


def float_nullity(chunks, ncols, tol=DEFAULT_TOL):
    """Nullity of a float system by SVD, guarded by a singular-value gap.

    Chunks are streamed; long streams are compressed on the fly into an
    ncols x ncols triangular factor by repeated QR, which preserves the
    singular values without squaring the condition number.  Values below
    thresh = tol * max(sigma_max, 1) are dropped, and the smallest kept
    value must be at least _GAP_FACTOR * thresh (RankAmbiguous otherwise),
    so every dropped value is more than _GAP_FACTOR times smaller.  The
    gap returned is that smallest kept value over thresh, a ratio that
    does not depend on round-off; inf when nothing or everything is
    dropped.
    """
    tri = None
    buf = []
    buffered = 0
    total = 0
    batch = max(4 * ncols, 4096)
    for c in chunks:
        r = np.asarray(c, dtype=np.complex128).reshape(-1, ncols)
        total += r.shape[0]
        buf.append(r)
        buffered += r.shape[0]
        if buffered >= batch:
            stack = np.vstack(([tri] if tri is not None else []) + buf)
            tri = np.linalg.qr(stack, mode="r")
            buf = []
            buffered = 0
    if total == 0:
        return ncols, math.inf
    mat = np.vstack(([tri] if tri is not None else []) + buf)
    sv = np.linalg.svd(mat, compute_uv=False)
    sv = np.concatenate([sv, np.zeros(max(0, ncols - len(sv)))])
    scale = max(sv[0], 1.0)
    thresh = tol * scale
    nullity = int(np.count_nonzero(sv < thresh))
    if nullity == ncols:
        return nullity, math.inf
    gap = sv[ncols - nullity - 1] / thresh  # the smallest kept value
    if gap < _GAP_FACTOR:
        raise RankAmbiguous(
            f"smallest kept singular value is {gap:.2f} times the "
            f"threshold {thresh:.3e}, below factor {_GAP_FACTOR}"
        )
    return nullity, math.inf if nullity == 0 else float(gap)

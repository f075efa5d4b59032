"""Exact linear algebra helpers.

Two layers live here:

* small dense exact routines (integer determinants by fraction-free
  elimination, rational matrix inversion) used by the partition module;

* a certified nullity engine for large linear systems over Q(zeta_l).
  Systems are streamed as row chunks evaluated modulo primes p = 1 (mod l)
  at the images zeta -> r^t for every primitive residue t.  Elimination
  modulo a prime gives an upper bound on the exact nullity (a nonzero minor
  mod p is nonzero exactly).  Candidate nullspace vectors are lifted by
  Vandermonde coefficient extraction, CRT and rational reconstruction, and
  then verified exactly; verified independent solutions bound the nullity
  from below, and when the bounds meet the dimension is certified exact.

Verification rests on the norm.  Each entry of A has group-algebra
coefficients of l1 norm at most coeff_l1_bound, and each entry x_j of a
vector has integer coefficients of l1 norm ||x_j||_1.  Since |zeta^e| = 1
under every complex embedding sigma, an entry r of the residual A·x obeys

    |sigma(r)| <= ncols * coeff_l1_bound * max_j ||x_j||_1 =: B_1.

Because p = 1 (mod l), p splits completely in Z[zeta_l]: the phi(l)
evaluations zeta -> r^t mod p are the reductions modulo the phi(l) primes
above p, whose product is pZ[zeta_l].  If r vanishes at all of them for
every prime in a set whose product is P, then P divides r, so r / P lies
in Z[zeta_l] and every conjugate has modulus at most B_1 / P.  With
P > B_1 the norm N(r / P), an integer, has modulus below 1, hence is 0,
and r = 0.  No reduction modulo Phi_l is needed for the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import CertificationFailed, RankAmbiguous
from .scalars import factorize, root_reduction_table

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
    """Inverse of a square matrix over Fraction, or None when singular."""
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
    for a in _MR_BASES:
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


def primes_one_mod(level, p_max, count):
    """The `count` largest primes p <= p_max with p = 1 (mod level)."""
    level = max(level, 1)
    p = p_max - ((p_max - 1) % level)
    found = []
    while p > max(level, 3) and len(found) < count:
        if is_prime(p):
            found.append(p)
        p -= level
    if len(found) < count:
        raise CertificationFailed(
            f"not enough primes = 1 mod {level} below {p_max}"
        )
    return found


def unity_root_mod(p, level):
    """An element of multiplicative order exactly `level` modulo prime p."""
    if level == 1:
        return 1
    if (p - 1) % level:
        raise ValueError("p must be 1 mod level")
    prime_divisors = factorize(level)
    for a in range(2, p):
        r = pow(a, (p - 1) // level, p)
        if r == 1:
            continue
        if all(pow(r, level // q, p) != 1 for q in prime_divisors):
            return r
    raise CertificationFailed("no root of unity found (p not prime?)")


def rational_reconstruct(u, modulus):
    """Wang reconstruction of n/d from u mod modulus, or None."""
    u %= modulus
    if u == 0:
        return Fraction(0)
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
    g = math.gcd(num, den) if num >= 0 else math.gcd(-num, den)
    if g > 1:
        return None
    if math.gcd(den, modulus) != 1:
        return None
    return Fraction(num, den)


def crt_combine(res_a, mod_a, res_b, mod_b):
    """Combine residues into one modulo mod_a * mod_b."""
    inv = pow(mod_a % mod_b, -1, mod_b)
    diff = (res_b - res_a) % mod_b
    return res_a + mod_a * ((diff * inv) % mod_b), mod_a * mod_b


def solve_mod_vandermonde(points, rhs, p):
    """Solve V c = rhs (mod p) for V[i][j] = points[i]^j; rhs is (m, k)."""
    m = len(points)
    mat = [[pow(int(points[i]), j, p) for j in range(m)] for i in range(m)]
    rhs = [[int(x) % p for x in row] for row in rhs]
    for col in range(m):
        piv = next(r for r in range(col, m) if mat[r][col] % p)
        mat[col], mat[piv] = mat[piv], mat[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = pow(mat[col][col], p - 2, p)
        mat[col] = [x * inv % p for x in mat[col]]
        rhs[col] = [x * inv % p for x in rhs[col]]
        for r in range(m):
            if r != col and mat[r][col]:
                c = mat[r][col]
                mat[r] = [(a - c * b) % p for a, b in zip(mat[r], mat[col])]
                rhs[r] = [(a - c * b) % p for a, b in zip(rhs[r], rhs[col])]
    return rhs


# ---------------------------------------------------------------------------
# incremental reduced row echelon form modulo p
# ---------------------------------------------------------------------------


class ModRREF:
    """Streaming RREF modulo a prime, float64-backed (exact for p^2*n < 2^53)."""

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
        while block.shape[0]:
            if self.rank:
                block = np.mod(block - block[:, self.piv] @ self.R, p)
            nz = block.any(axis=1)
            block = block[nz]
            if not block.shape[0]:
                return
            lead = np.argmax(block != 0, axis=1)
            order = np.argsort(lead, kind="stable")
            uniq_leads, first = np.unique(lead[order], return_index=True)
            take = order[first]
            newrows = block[take]
            newleads = lead[take]
            inv = np.array(
                [pow(int(newrows[i, newleads[i]]), p - 2, p)
                 for i in range(len(take))]
            )
            newrows = np.mod(newrows * inv[:, None], p)
            # clean each new row at the leads of the other new rows; rows are
            # zero left of their own lead, so descending lead order suffices
            desc = np.argsort(-newleads)
            done_rows = []
            done_leads = []
            for idx in desc:
                row = newrows[idx]
                if done_rows:
                    coefs = row[done_leads]
                    if coefs.any():
                        row = np.mod(row - coefs @ np.array(done_rows), p)
                done_rows.append(row)
                done_leads.append(newleads[idx])
            cleaned = np.array(done_rows[::-1])
            cleaned_leads = list(reversed(done_leads))
            # keep existing basis reduced at the new pivot columns
            if self.rank:
                coefs = self.R[:, cleaned_leads]
                if coefs.any():
                    self.R = np.mod(self.R - coefs @ cleaned, p)
            self.R = np.vstack([self.R, cleaned]) if self.rank else cleaned
            self.piv = self.piv + cleaned_leads
            if self.target is not None and self.rank >= self.target:
                self.saturated = True
                return
            rest = np.setdiff1d(np.arange(block.shape[0]), take)
            block = block[rest]

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


def _primitive_residues(level):
    if level == 1:
        return [0]
    return [t for t in range(level) if math.gcd(t, level) == 1]


def _max_safe_prime(ncols):
    return math.isqrt((1 << 53) // max(ncols + 1, 2))


def _eval_vectors_mod(vectors, p, r, level):
    """Evaluate integer cyclo vectors (n, ncols, level) at zeta -> r mod p."""
    pows = np.array([pow(r, j, p) for j in range(level)], dtype=np.float64)
    # vectors entries can exceed the float53 product bound only for wild
    # lifts; reduce coefficients mod p first with python ints if needed
    maxabs = int(np.abs(vectors).max()) if vectors.size else 0
    if maxabs * (p - 1) * max(level, 1) < (1 << 53):
        out = np.mod(vectors.astype(np.float64) @ pows, p)
    else:
        red = np.mod(vectors.astype(object), p).astype(np.float64)
        out = np.mod(red @ pows, p)
    return out


class _LiftFailure(Exception):
    pass


def _eliminate(system, p, r, target_rank=None):
    rref = ModRREF(system.ncols, p, target_rank=target_rank)
    for chunk in system.chunks_modp(p, r):
        rref.process(chunk)
        if rref.saturated:
            break
    rref.finalize()
    return rref


def _lift_basis(system, primes, roots, residues):
    """Lift the exact RREF nullspace from eliminations at each (p, t).

    residues[p][t] is a finalized ModRREF.  Returns a list of integer
    ndarrays (ncols, level), denominators cleared per vector.
    """
    level = max(system.level, 1)
    T = _primitive_residues(level)
    phideg = root_reduction_table(level).shape[1]
    ref = residues[primes[0]][T[0]]
    pivcols = list(ref.piv)
    freecols = [c for c in range(system.ncols) if c not in set(pivcols)]
    for p in primes:
        for t in T:
            if list(residues[p][t].piv) != pivcols:
                raise _LiftFailure("pivot columns differ between embeddings")
    rank, nfree = len(pivcols), len(freecols)
    # coefficient residues per prime: solve the Vandermonde system once per p
    coeff_mod = {}
    for p in primes:
        points = [pow(roots[p], t, p) for t in T]
        stacked = [
            np.asarray(residues[p][t].R[:, freecols], dtype=np.int64).ravel()
            for t in T
        ]
        coeffs = solve_mod_vandermonde(points, stacked, p)
        coeff_mod[p] = [np.array(c, dtype=np.int64).reshape(rank, nfree)
                        for c in coeffs]
    # CRT + rational reconstruction entry by entry
    entries = {}
    for i in range(rank):
        for j in range(nfree):
            coeffs = []
            nonzero = False
            for jc in range(phideg):
                res, mod = 0, 1
                for p in primes:
                    res, mod = crt_combine(res, mod, int(coeff_mod[p][jc][i, j]), p)
                if res == 0:
                    coeffs.append(Fraction(0))
                    continue
                val = rational_reconstruct(res, mod)
                if val is None:
                    raise _LiftFailure("rational reconstruction failed")
                coeffs.append(val)
                nonzero = True
            if nonzero:
                entries[(i, j)] = coeffs
    basis = []
    for j in range(nfree):
        den = 1
        for i in range(rank):
            if (i, j) in entries:
                for c in entries[(i, j)]:
                    den = den * c.denominator // math.gcd(den, c.denominator)
        vec = np.zeros((system.ncols, level), dtype=object)
        vec[freecols[j], 0] = den
        for i in range(rank):
            if (i, j) in entries:
                for jc, c in enumerate(entries[(i, j)]):
                    if c:
                        vec[pivcols[i], jc] = -c * den
        basis.append(np.vectorize(int, otypes=[object])(vec))
    return basis


def _chunk_has_residual(chunk, XtT, p):
    """True when chunk @ XtT is nonzero mod p; gathers nonzeros when sparse."""
    arr = np.asarray(chunk, dtype=np.float64)
    mask = arr != 0
    nnz = int(np.count_nonzero(mask))
    if nnz == 0:
        return False
    if nnz * 16 < arr.size:
        rows, cols = np.nonzero(mask)
        partial = arr[rows, cols, None] * XtT[cols, :]
        resid = np.zeros((arr.shape[0], XtT.shape[1]))
        np.add.at(resid, rows, partial)
        return bool(np.mod(resid, p).any())
    return bool(np.mod(arr @ XtT, p).any())


def _verify_basis(system, basis, prime_pool, tags):
    """Exact verification of A·x = 0 for every basis vector.

    Checks each residual entry at every embedding zeta -> r^t modulo the
    leading primes of the pool, taking primes until their product P
    exceeds B_1 = ncols * coeff_l1_bound * max_j ||x_j||_1, where
    ||x_j||_1 is the l1 norm of an entry's coefficients, read from the
    vectors.  A nonzero residual entry r has |sigma(r)| <= B_1 at every
    complex embedding; vanishing at all phi(l) embeddings modulo each
    prime makes P divide r, and then the integer norm of r / P has
    modulus below 1.  So it is 0, and r = 0 (see the module docstring).
    """
    if not basis:
        return True
    level = max(system.level, 1)
    T = _primitive_residues(level)
    X = np.array([np.asarray(v, dtype=object) for v in basis], dtype=object)
    bound = system.ncols * system.coeff_l1_bound * int(
        np.abs(X).sum(axis=-1).max())
    prod = 1
    used = []
    for p in prime_pool:
        used.append(p)
        prod *= p
        if prod > bound:
            break
    if prod <= bound:
        raise CertificationFailed("verification prime pool exhausted")
    tags.append(f"verify-primes={len(used)}")
    for p in used:
        r = unity_root_mod(p, level)
        for t in T:
            rt = pow(r, t, p)
            Xt = _eval_vectors_mod(X, p, rt, level)  # (nvec, ncols)
            XtT = np.ascontiguousarray(Xt.T)
            for chunk in system.chunks_modp(p, rt):
                if _chunk_has_residual(chunk, XtT, p):
                    return False
    return True


def _independent_mod(basis, p, level):
    """Rank check of candidate vectors modulo (p, a primitive embedding)."""
    r = unity_root_mod(p, level)
    X = np.array([np.asarray(v, dtype=object) for v in basis], dtype=object)
    Xt = _eval_vectors_mod(X, p, r, level)
    rref = ModRREF(Xt.shape[1], p)
    rref.process(Xt)
    return rref.rank == len(basis)


#: Largest prime set the lift may escalate to before a restart.
_MAX_LIFT_PRIMES = 6


def certified_nullity(system, candidates=None):
    """Certified exact nullity of a streamed system over Q(zeta_l).

    `system` exposes ncols, level, coeff_l1_bound and chunks_modp(p, r).
    When `candidates` (exact integer cyclo vectors known to be independent
    solutions elsewhere) are supplied, they are verified against *this*
    system and the rank bound uses early stopping; on any failure the full
    independent protocol runs.
    """
    ncols = system.ncols
    level = max(system.level, 1)
    T = _primitive_residues(level)
    p_max = min(_max_safe_prime(ncols), 1 << 26)
    pool = primes_one_mod(level, p_max, _MAX_LIFT_PRIMES + 4)
    tags = []

    if ncols == 0:
        return NullityCertificate(0, level, [], ["empty-system"])

    if candidates is not None:
        n_cand = len(candidates)
        target = ncols - n_cand
        ok = n_cand == 0 or (
            _independent_mod(candidates, pool[0], level)
            and _verify_basis(system, candidates, pool, tags)
        )
        if ok:
            p = pool[0]
            r = unity_root_mod(p, level)
            rref = _eliminate(system, p, pow(r, T[0], p), target_rank=target)
            if rref.rank == target:
                tags.append("candidates-certified")
                return NullityCertificate(n_cand, level, list(candidates), tags)
        tags.append("candidates-fallback")

    last_error = None
    for attempt in range(3):
        try:
            primes = [pool[attempt]]
            roots = {}
            residues = {}
            for p in primes:
                roots[p] = unity_root_mod(p, level)
                residues[p] = {
                    t: _eliminate(system, p, pow(roots[p], t, p)) for t in T
                }
            ranks = {residues[p][t].rank for p in primes for t in T}
            if len(ranks) != 1:
                raise _LiftFailure("rank differs between embeddings")
            rank = ranks.pop()
            if rank == ncols:
                return NullityCertificate(0, level, [], tags + ["full-rank"])
            # lift with an escalating prime set until verification passes
            next_idx = attempt + 1
            while True:
                try:
                    basis = _lift_basis(system, primes, roots, residues)
                except _LiftFailure:
                    basis = None
                if basis is not None and _verify_basis(
                    system, basis, pool, tags
                ):
                    tags.append(f"lift-primes={len(primes)}")
                    return NullityCertificate(ncols - rank, level, basis, tags)
                if len(primes) >= _MAX_LIFT_PRIMES or next_idx >= len(pool):
                    raise _LiftFailure("lift verification failed")
                p_new = pool[next_idx]
                next_idx += 1
                if p_new in primes:
                    continue
                roots[p_new] = unity_root_mod(p_new, level)
                residues[p_new] = {
                    t: _eliminate(system, p_new, pow(roots[p_new], t, p_new))
                    for t in T
                }
                if residues[p_new][T[0]].rank != rank:
                    raise _LiftFailure("rank differs between primes")
                primes.append(p_new)
        except _LiftFailure as exc:
            last_error = exc
            continue
    raise CertificationFailed(f"could not certify nullity: {last_error}")


# ---------------------------------------------------------------------------
# float nullity with singular-value gap guard
# ---------------------------------------------------------------------------


#: Margin, as a factor, that singular values must keep from the threshold.
_GAP_FACTOR = 10.0


def float_nullity(chunks, ncols, tol=1e-9):
    """Nullity of a float system by SVD, guarded by a singular-value gap.

    Chunks are streamed; long streams are compressed on the fly into an
    ncols x ncols triangular factor by repeated QR, which preserves the
    singular values without squaring the condition number.
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
    small = sv < thresh
    nullity = int(np.count_nonzero(small))
    if nullity in (0, ncols):
        # still require a safe margin against the threshold
        if nullity == 0 and sv[-1] < _GAP_FACTOR * thresh:
            raise RankAmbiguous(
                f"smallest singular value {sv[-1]:.3e} too close to "
                f"threshold {thresh:.3e}"
            )
        return nullity, math.inf
    kept = sv[~small]
    dropped = sv[small]
    gap = kept.min() / max(dropped.max(), thresh / _GAP_FACTOR * 1e-6)
    if kept.min() < _GAP_FACTOR * thresh or gap < _GAP_FACTOR:
        raise RankAmbiguous(
            f"singular-value gap {gap:.2f} below factor {_GAP_FACTOR}"
        )
    return nullity, float(gap)

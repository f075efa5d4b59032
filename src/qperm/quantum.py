"""Magic unitaries and quantum invariants of complex Hadamard matrices.

A Hadamard matrix H of order n yields an n x n magic unitary P whose
entries are the rank-1 projections onto the componentwise row ratios
H_i/H_j, and a four-index tensor G recording the scalar products between
those ratios.  The fixed spaces of tensor powers of P have integer
dimensions c_k (the quantum invariants of H); they are computed along
two independent routes, a direct fixed-point linear system and a
commutation relation phrased through chains of G entries, so that each
route checks the other.  Butson-form inputs run over certified exact
cyclotomic arithmetic; other inputs use tolerance-guarded numerics with
a mandatory singular-value gap.
"""

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from ._exact import (
    _eval_vectors_mod,
    _root_powers,
    certified_nullity,
    float_nullity,
    matmul_mod,
    reduce_mod,
    zero_test_primes,
)
from .errors import (
    BudgetExceeded,
    MalformedMatrix,
    MethodDisagreement,
    NotHadamard,
    ShapeMismatch,
)
from .hadamard import Hadamard
from .scalars import DEFAULT_TOL

_DEFAULT_BUDGET = 10_000_000_000


def _budget_limit():
    raw = os.environ.get("QPERM_BUDGET", "")
    return int(raw) if raw else _DEFAULT_BUDGET


def _check_budget(work, what):
    limit = _budget_limit()
    if work > limit:
        raise BudgetExceeded(
            f"{what}: estimated work {work} exceeds budget {limit} "
            "(set QPERM_BUDGET to raise)"
        )


# ---------------------------------------------------------------------------
# magic unitaries
# ---------------------------------------------------------------------------


class MagicUnitary:
    """Square grid of d x d blocks whose rows and columns sum to identity.

    A grid has one form, like a Hadamard value.  A float grid is given by
    its blocks, blocks[i, j] the (i, j) entry as a d x d complex matrix.
    An exact grid is given by its entries in (1/den)*Z[zeta_level], as the
    integer coefficient tensor: entry (i, j)[a, b] = sum_t
    coeffs[i,j,a,b,t] * zeta_level^t / den, which drives the exact checks
    and exact ranks.  Its blocks are evaluated from the coefficients once,
    at zeta = e^(2 pi i / level), when first read.
    """

    def __init__(self, blocks=None, level=None, coeffs=None, den=1,
                 provenance=""):
        if (blocks is None) == (coeffs is None) or (
                blocks is not None and (level, den) != (None, 1)):
            raise MalformedMatrix(
                "provide exactly one of blocks / (coeffs, level, den)")
        self.provenance = provenance
        if coeffs is None:
            self.blocks = np.asarray(blocks, dtype=np.complex128)
            self.level, self.coeffs, self.den = None, None, 1
            shape = self.blocks.shape
        else:
            if level is None or level < 1:
                raise MalformedMatrix("coefficient form needs a level")
            if den == 0:
                raise MalformedMatrix("coefficient form needs den != 0")
            self.level, self.den = int(level), int(den)
            self.coeffs = np.asarray(coeffs, dtype=np.int64)
            if self.coeffs.shape[-1:] != (self.level,):
                raise ShapeMismatch("coeffs must have shape (n, n, d, d, l)")
            shape = self.coeffs.shape[:-1]
        if len(shape) != 4 or shape[0] != shape[1] or shape[2] != shape[3]:
            raise ShapeMismatch("blocks must have shape (n, n, d, d)")
        self.n, self.dim = shape[0], shape[2]

    @property
    def is_exact(self):
        return self.coeffs is not None

    @cached_property
    def blocks(self):
        """An exact grid's blocks: coeffs at zeta = e^(2 pi i / l), / den."""
        return self.coeffs @ np.exp(
            2j * np.pi * np.arange(self.level) / self.level) / self.den

    @cached_property
    def exactly_magic(self):
        """The exact check_magic verdict, computed once per grid."""
        return self.is_exact and check_magic(self).ok

    def modp(self, p, root):
        """den * P at zeta -> root modulo p, as int64 in [0, p)."""
        return _eval_vectors_mod(self.coeffs, p, root, self.level)

    def __repr__(self):
        form = f"level={self.level}" if self.is_exact else "complex"
        tag = f", {self.provenance}" if self.provenance else ""
        return f"MagicUnitary(n={self.n}, d={self.dim}, {form}{tag})"


def _hadamard(h, tol=DEFAULT_TOL):
    """h, once it is a Hadamard value whose rows are orthogonal within tol:
    each entry point checks here once, and its builders do not check."""
    if not isinstance(h, Hadamard):
        raise MalformedMatrix("expected a Hadamard value")
    if not h.verify(tol):
        raise NotHadamard("rows are not orthogonal")
    return h


def magic_from_hadamard(h):
    """Magic unitary of row-ratio projections of a Hadamard matrix.

    Entry (i, j) is the projection onto xi = H_i/H_j taken componentwise:
    (P_ij)_{ab} = H_ia * conj(H_ja) * conj(H_ib) * H_jb / n.  The rows of
    h must be orthogonal at the default tolerance.
    """
    return _magic(_hadamard(h))


def _magic(h):
    """magic_from_hadamard of a checked h: xi xi^* / n, exact for Butson h."""
    n = h.n
    prov = f"magic({h.provenance})" if h.provenance else "magic"
    if not h.is_exact:
        ent = h.entries
        xi = ent[:, None, :] / ent[None, :, :]
        return MagicUnitary(xi[:, :, :, None] * xi.conj()[:, :, None, :] / n,
                            provenance=prov)
    lev, E = h.level, h.exponents
    q = (E[:, None, :, None] - E[None, :, :, None]
         - E[:, None, None, :] + E[None, :, None, :]) % lev
    coeffs = np.zeros((n, n, n, n, lev), dtype=np.int64)
    np.put_along_axis(coeffs, q[..., None], 1, axis=-1)
    return MagicUnitary(level=lev, coeffs=coeffs, den=n, provenance=prov)


def permutation_magic(perm):
    """Magic unitary of a classical permutation, with 1 x 1 blocks.

    Entry (i, j) is 1 exactly when perm[j] == i, so the grid is the usual
    permutation matrix viewed with scalar projection entries.
    """
    perm = [int(x) for x in perm]
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise MalformedMatrix("not a permutation of 0..n-1")
    coeffs = np.zeros((n, n, 1, 1, 1), dtype=np.int64)
    coeffs[perm, range(n)] = 1
    return MagicUnitary(level=1, coeffs=coeffs, den=1,
                        provenance=f"perm{tuple(perm)}")


@dataclass
class MagicReport:
    """Residuals of the defining conditions of a magic unitary."""

    ok: bool
    exact: bool
    projection: float
    selfadjoint: float
    row_sums: float
    col_sums: float
    worst_entry: tuple

    def __bool__(self):
        return self.ok


def _magic_residuals(q, adj, den):
    """Residuals of the magic-unitary identities of Q = den * P.

    q has shape (n, n, d, d) and adj[i, j] is the adjoint of q[i, j].
    Returns Q_ij·Q_ij - den Q_ij and Q_ij - Q_ij* per entry, and the row
    and column sums minus den I per row and per column.
    """
    eye = den * np.eye(q.shape[2], dtype=q.dtype)
    return (np.einsum("ijac,ijcb->ijab", q, q) - den * q, q - adj,
            q.sum(axis=1) - eye, q.sum(axis=0) - eye)


def _commutators(q):
    """All pairwise commutators of the blocks q of shape (m, d, d)."""
    ab = np.einsum("eac,fcb->efab", q, q)
    return ab - ab.transpose(1, 0, 2, 3)


def _entry_l1(u):
    """Largest l1 norm of the coefficients of an entry of den * P."""
    return int(np.abs(u.coeffs).sum(axis=-1).max())


def check_magic(u, tol=DEFAULT_TOL):
    """Verify projection, self-adjointness and row/column sum conditions.

    Returns a MagicReport with the largest residual of each condition;
    exact inputs are tested exactly and report residual 0.0 on success.

    Each identity is written once, for Q = den * P, and evaluated on the
    complex blocks or, for exact input, on the residues of Q at every
    embedding zeta -> root modulo primes p = 1 (mod l); the adjoint there
    is Q evaluated at root^-1, transposed.  An entry of Q lies in
    Z[zeta_l] and, with L the largest l1 norm of an entry's coefficients,
    has |sigma(.)| <= L at every complex embedding sigma.  So a residual
    entry is bounded by d L^2 + den L (Q·Q - den Q), 2L (Q - Q*) and
    n L + den (row and column sums minus den I).  It is zero once it
    vanishes at every embedding of `_exact.zero_test_primes(l, d, bound)`.
    Those primes have d p^2 < 2^53, which keeps the int64 sums of d
    residue products exact.  Q is evaluated once per embedding.  An exact
    failure reports its residual at zeta = e^(2 pi i / l), on u.blocks.
    """
    blocks = u.blocks
    n, d = u.n, u.dim
    proj, herm, rows, cols = _magic_residuals(
        blocks, blocks.conj().swapaxes(2, 3), 1)
    proj_res = np.abs(proj).max(axis=(2, 3))
    herm_res = np.abs(herm).max(axis=(2, 3))
    row_res = float(np.abs(rows).max()) if n else 0.0
    col_res = float(np.abs(cols).max()) if n else 0.0
    entry_res = np.maximum(proj_res, herm_res)
    worst = np.unravel_index(int(entry_res.argmax()), entry_res.shape)
    vals = (float(proj_res.max()), float(herm_res.max()), row_res, col_res)
    if not u.is_exact:
        ok = all(v <= tol for v in vals)
        return MagicReport(ok, False, *vals, tuple(int(x) for x in worst))

    L, den = _entry_l1(u), u.den
    bound = max(d * L * L + den * L, 2 * L, n * L + den)
    holds = [True] * 4
    for p, roots in zero_test_primes(u.level, d, bound):
        qs = {root: u.modp(p, root) for root in roots}
        for root, q in qs.items():
            adj = qs[pow(root, -1, p)].swapaxes(2, 3)
            res = _magic_residuals(q, adj, den % p)
            holds = [h and not (r % p).any() for h, r in zip(holds, res)]
    return MagicReport(
        all(holds), True,
        *(0.0 if h else v for h, v in zip(holds, vals)),
        tuple(int(x) for x in worst),
    )


def orbit_components(u, tol=DEFAULT_TOL):
    """Connected components of the nonzero-block relation on indices.

    Indices i and j are joined whenever block (i, j) is nonzero; the
    component count of the resulting graph equals the dimension of the
    fixed space of the grid itself (for a classical permutation these
    are its cycles), so it serves as an independent oracle for the first
    invariant c_1.
    """
    n = u.n
    nz = np.abs(u.blocks).max(axis=(2, 3)) > tol
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in np.argwhere(nz):
        a, b = find(int(i)), find(int(j))
        if a != b:
            parent[a] = b
    return len({find(v) for v in range(n)})


# ---------------------------------------------------------------------------
# the G tensor and its index chains
# ---------------------------------------------------------------------------


def g_tensor(h):
    """Complex G tensor of a verified Hadamard matrix, as an array.

    G[i, a, j, b] = sum_k H_ik * conj(H_jk) * conj(H_ak) * H_bk.  The exact
    route never builds it: modulo p the Hom system forms G from the
    residues of H (_HomSystem._modp_factors).
    """
    return _g_complex(_hadamard(h).entries)


def _g_complex(ent):
    """g_tensor from the entries of a checked Hadamard matrix."""
    return np.einsum("ik,jk,ak,bk->iajb", ent, ent.conj(), ent.conj(), ent)


def _chain_apply(G4, steps, start, ends, zero, Y, p):
    """Chains from one start factor to a stack of end factors, times Y,
    modulo p.

    The chain K_e of `steps` inner index pairs has, at (M, B) with
    M = (m_1..m_steps) and B = (b_1..b_steps) packed most-significant-first,
    the entry start[m_1, b_1] * prod_{t>=2} G[m_t,m_{t-1},b_t,b_{t-1}] *
    ends[e, m_steps, b_steps]; at steps = 0 it is the scalar zero[e].
    Returns R[e, M, c] = sum_B K_e[M, B] * Y[B, c].  The chain is an
    operator of bond (m_t, b_t), and K is never formed: Y is multiplied by
    the start factor, each G step is one batched product over the batch
    (m_{t-1}, b_t) contracting b_{t-1}, and the end factors are one batched
    product over m_steps contracting b_steps.  Every product reads a
    strided view of the array before it and writes the next one, so no
    step copies.  The operands are float64 residues in [0, p); the start
    products are reduced by reduce_mod and every sum is a matmul_mod, so R
    lies in [0, p).
    """
    n = G4.shape[0]
    if steps == 0:
        return zero[:, None, None] * Y
    # W[a, b_t, m_t, rest]: a packs m_1..m_{t-1}, rest packs b_{t+1}.., c
    W = reduce_mod(start.T[None, :, :, None] * Y.reshape(1, n, 1, -1), p)
    # Gb[m_t, b_t+1, m_t+1, b_t] = G[m_t+1, m_t, b_t+1, b_t]
    Gb = np.ascontiguousarray(G4.transpose(1, 2, 0, 3))
    for _ in range(steps - 1):
        a = W.shape[0]
        W = W.reshape(a, n, n, n, -1).transpose(0, 2, 3, 1, 4)
        W = matmul_mod(Gb, W, p)  # W[a, m_t, b_t+1, m_t+1, rest]
        W = W.reshape(a * n, n, n, -1)
    out = matmul_mod(ends.transpose(1, 0, 2), W.transpose(0, 2, 1, 3), p)
    return out.transpose(2, 0, 1, 3).reshape(len(ends), -1, out.shape[-1])


def _chain_matrices(G4, steps, start, ends, zero, p=None):
    """The chain matrices K_e of _chain_apply, K[e, M, B], formed.

    Built site by site as outer products: K[M, B] = start[m_1, b_1], each
    step multiplies K[M, m, B, b] by G[m', m, b', b] into K[(M, m, m'),
    (B, b, b')], n^(2t) entries at step t, and the end factors multiply the
    last site.  No sum is formed.  Modulo p (int64 residues, the start
    factor reduced first) every product is below p^2 and is reduced; with
    p None the arithmetic is complex.
    """
    n = G4.shape[0]
    if steps == 0:
        return zero[:, None, None]
    Gt = G4.transpose(1, 0, 3, 2)[:, :, None, :, :]  # [m, m', 1, b, b']
    K = start if p is None else start % p
    for _ in range(steps - 1):
        a = K.shape[0] // n
        K = K.reshape(a, n, 1, a, n, 1) * Gt
        if p is not None:
            K %= p
        K = K.reshape(a * n * n, a * n * n)
    a = K.shape[0] // n
    K = K.reshape(1, a, n, a, n) * ends[:, None, :, None, :]
    if p is not None:
        K %= p
    return K.reshape(len(ends), a * n, a * n)


# ---------------------------------------------------------------------------
# linear systems: direct fixed points and the G-chain commutation relation
# ---------------------------------------------------------------------------


def _rank_one_factors(q, p):
    """u, v with q[i, j] = u[i, j] v[i, j]^T mod p, or None if a block has
    rank two or more modulo p.

    Each d x d block is split at its first nonzero residue q[a0, b0]: u is
    column b0 and v is row a0 times q[a0, b0]^-1, so u v^T has rank one and
    agrees with the block on row a0 and column b0; the check u v^T = q is
    exact.  A zero block gives u = v = 0.  A magic_from_hadamard block
    x x^* has q[0, 0] = |x_0|^2 = 1, so u is its column 0 and v its row 0.
    Every grid the package builds is flat, of blocks of rank at most one,
    so its trace rows are one scalar chain (_FixSystem._trace_chunks).
    """
    n, d = q.shape[0], q.shape[2]
    blocks = q.reshape(n * n, d, d)
    flat = blocks.reshape(n * n, d * d)
    lead = np.argmax(flat != 0, axis=1)
    a0, b0 = np.divmod(lead, d)
    idx = np.arange(n * n)
    inv = np.array([pow(int(x), -1, p) if x else 0 for x in flat[idx, lead]],
                   dtype=np.int64)
    u = blocks[idx, :, b0]
    v = blocks[idx, a0, :] * inv[:, None] % p
    if ((u[:, :, None] * v[:, None, :] - blocks) % p).any():
        return None
    return u.reshape(n, n, d), v.reshape(n, n, d)


class _FixSystem:
    """Streamed system whose nullspace is Fix of the k-fold block product.

    Unknowns are xi in C^(n^k); equations, indexed by (i_1..i_k, a, b),
    impose sum_J (P_{i_1 j_1} ... P_{i_k j_k})_{ab} xi_J = xi_I delta_ab.
    Exact rows are scaled by den^k so all coefficients are cyclotomic
    integers; the stream yields one chunk per value of i_1.

    Elimination of an exact magic unitary reads the trace rows instead.
    With tr the normalised trace on d x d blocks, let T_k[I, J] =
    tr(P_{i_1 j_1} ... P_{i_k j_k}).  The sum over a of the rows (I, a, a)
    is d den^k (T_k - I)[I, .], so the trace rows are integer combinations
    of the rows above and their rank is at most rank A, over Q(zeta_l) and
    modulo every p.  For a magic unitary the ranks are equal over C:
    U = sum e_IJ (x) P_IJ is unitary and T_k = (id (x) tr)(U), so a vector
    with T_k xi = xi is an average of the d vectors U(xi (x) e_a) of norm
    ||xi|| that equals xi, which forces U(xi (x) e_a) = xi (x) e_a for
    every a; hence ker(T_k - I) = Fix.  That is the finite-k form of the
    Cesaro formula for Hopf images of matrix models (Banica-Franz-Skalski,
    "Idempotent states and the inner linearity property", 2012).  The gate
    is the exact check_magic, once per grid (magic.exactly_magic): without
    it the trace rows may have lower rank, and their lifted basis would
    never verify.  The trace rows are streamed when the grid is also flat
    at the embedding, every block Q_ij = u_ij v_ij^T of rank at most one
    modulo p (_rank_one_factors): then Tr(Q_{i_1 j_1} ... Q_{i_k j_k}) is
    the cyclic product of the k scalars v_{i_t j_t} . u_{i_t+1 j_t+1}, and
    there are n^k rows where the full rows number n^k d^2.

    The float route keeps the full rows: for xi outside Fix,
    2 Re<xi, (I - T_k) xi> = (1/d) sum_a ||(I - U)(xi (x) e_a)||^2, so the
    small singular values of T_k - I can be about the squares of those of
    the full rows, which would erode the singular-value gap.

    The full rows, complex or of an exact input that is not both magic
    and flat, are products of the blocks formed one site at a time
    (_rows), one chunk per i_1.  Verification contracts the candidate
    vectors against the blocks one site at a time over all i_1 at once
    (_blocks), so the lower bound checks the full system and no row is
    built.
    """

    def __init__(self, magic, k):
        self.magic = magic
        self.k = k
        self.n = magic.n
        self.d = magic.dim
        self.ncols = self.n ** k
        # rows n^k d^2 times columns n^k
        _check_budget(self.ncols ** 2 * self.d ** 2, "fixed-point system")
        self.level = magic.level if magic.is_exact else 1
        if magic.is_exact:
            self.coeff_l1_bound = (_entry_l1(magic) ** k
                                   * self.d ** max(k - 1, 0) + magic.den ** k)
        else:
            self.coeff_l1_bound = None
        self.traced = magic.exactly_magic

    def _trace_chunks(self, u, v, p):
        """Rows Tr(Q_{i_1 j_1} ... Q_{i_k j_k}) - d den^k delta_IJ mod p.

        Q = den * P mod p has blocks Q_ij = u_ij v_ij^T (_rank_one_factors),
        so with g[i, j, i', j'] = v_ij . u_i'j' the trace is the cyclic
        product g[1, 2] g[2, 3] ... g[k, 1], g[t, t+1] = g[i_t, j_t, i_t+1,
        j_t+1].  The chunk of i_1 holds the rows I = (i_1, I') in the order
        of I'.  The chain W[j_1, i_2, j_2, .., i_t, j_t] = g[1, 2] ...
        g[t-1, t] adds one site per step, one product below p^2 reduced
        modulo p, and so does the closing factor g[k, 1].
        """
        n, k, d = self.n, self.k, self.d
        g = matmul_mod(v.reshape(-1, d), u.reshape(-1, d).T, p).reshape(
            (n,) * 4)
        corr = d * pow(self.magic.den, k, p)
        nsuf = n ** (k - 1)
        suf = np.arange(nsuf)
        # (j_1, i_2, j_2, .., i_k, j_k) -> (i_2..i_k, j_1..j_k)
        order = [*range(1, 2 * k - 1, 2), *range(0, 2 * k - 1, 2)]
        for i1 in range(n):
            if k == 1:  # a copy: np.diagonal is a read-only view
                rows = np.diagonal(g[i1, :, i1]).copy()
            else:
                W = g[i1]
                for _ in range(k - 2):
                    W = W[..., None, None] * g % p
                # close[j_1, .., i_k, j_k] = g[i_k, j_k, i_1, j_1]
                close = np.moveaxis(g[:, :, i1], -1, 0)
                rows = W * close.reshape(n, *(1,) * (2 * k - 4), n, n) % p
            rows = rows.transpose(order).reshape(nsuf, self.ncols)
            rows[suf, i1 * nsuf + suf] -= corr
            yield rows % p

    def _rows(self, pm, corr, p):
        """The full rows (I, a, b), one chunk per i_1, from block products.

        pm holds the blocks Q = den * P (residues modulo p as float64, or
        complex with p None).  For the i_1 of a chunk, W[a, j_1, i_2, j_2,
        .., i_t, j_t, c] = (Q_{i_1 j_1} ... Q_{i_t j_t})_{ac}: a site
        multiplies W by every block Q[i_t, j_t] in one matmul over the bond
        c, whose product is W of the next site as it lies in memory, so no
        sum runs over the zeros of an identity and the chunk is one
        transposed copy of the last W, minus corr at J = I and a = b.
        Modulo p that matmul is a matmul_mod, and after the corr
        subtraction an entry lies in (-p, p).
        """
        n, d, k = self.n, self.d, self.k
        Qb = pm.transpose(2, 0, 1, 3).reshape(d, -1)  # [c, (i_t, j_t, b)]
        nsuf = n ** (k - 1)
        suf = np.arange(nsuf)[:, None]
        diag = np.arange(d)
        # W[a, j_1, i_2, j_2, .., i_k, j_k, b] -> rows (i_2..i_k, a, b)
        order = [*range(2, 2 * k - 1, 2), 0, 2 * k, *range(1, 2 * k, 2)]
        for i1 in range(n):
            W = pm[i1].transpose(1, 0, 2)
            for _ in range(1, k):
                A, shape = W.reshape(-1, d), W.shape[:-1] + (n, n, d)
                W = (A @ Qb if p is None
                     else matmul_mod(A, Qb, p)).reshape(shape)
            # a C-order copy, also at k = 1, where W is a view of pm
            rows = W.transpose(order).copy().reshape(nsuf, d, d, -1)
            del W  # free before the next chunk's product, not after
            at = (suf, diag, diag, i1 * nsuf + suf)
            rows[at] -= corr
            if p is not None:
                rows[at] = reduce_mod(rows[at], p)
            yield rows.reshape(-1, self.ncols)

    def _blocks(self, pm, X, corr, p):
        """The block A·X modulo p of all the full rows, rows unbuilt.

        pm holds the blocks Q = den * P as float64 residues modulo p, X
        has shape (ncols, nvec) with entries in [0, p) and row (I, a, b)
        of A is sum_J (Q_{i_1 j_1} ... Q_{i_k j_k})_{ab} X[J] - corr X[I]
        delta_ab.  Site 1 gives W[i_1, a, c, J', v] = sum_j Q[i_1, j, a, c]
        X[(j, J'), v]; each later site t contracts the pair (c, j_t)
        against Q[i_t, j_t, c, b].  Between sites W is kept as
        W[c, j_t, rest, I, a], so the pair is its leading axis, read
        without a copy, and a site holds at most two arrays the size of the
        block it yields.  Every sum is a matmul_mod; after the corr
        subtraction W lies in (-p^2, p).  The block holds its rows
        (I, a, b) in order.
        """
        n, d, k = self.n, self.d, self.k
        nvec = X.shape[1]
        diag = np.arange(d)
        W = matmul_mod(pm.transpose(0, 2, 3, 1).reshape(-1, n),
                       X.reshape(n, -1), p).reshape(n, d, d, -1)
        if k > 1:  # W[I, a, c, J', v] -> W[c, J', v, I, a]
            W = np.ascontiguousarray(W.transpose(2, 3, 0, 1))
        Qt = pm.transpose(0, 3, 2, 1).reshape(n * d, d * n)  # [(i, b), (c, j)]
        for t in range(1, k):
            # acc[i_t, b, rest, I, a], with W[(c, j_t), (rest, I, a)]
            acc = matmul_mod(Qt, W.reshape(d * n, -1), p)
            acc = acc.reshape((n, d, -1) + W.shape[2:])
            del W
            # acc[i_t, b, rest, I, a] -> W[b, rest, (I, i_t), a], and
            # after the last site -> W[(I, i_t), a, b, v]
            last = t == k - 1
            W = np.ascontiguousarray(acc.transpose(
                (3, 0, 4, 1, 2) if last else (1, 2, 3, 0, 4)))
            del acc
            W = W.reshape((-1, d, d, nvec) if last
                          else (d, W.shape[1], -1, d))
        W[:, diag, diag] -= corr * X.reshape(-1, 1, nvec)
        return reduce_mod(W, p).reshape(-1, nvec)

    def chunks_modp(self, p, root):
        q = self.magic.modp(p, root)
        factors = _rank_one_factors(q, p) if self.traced else None
        if factors is not None:
            return self._trace_chunks(*factors, p)
        return self._rows(q.astype(np.float64),
                          pow(self.magic.den, self.k, p), p)

    def chunks_complex(self):
        return self._rows(self.magic.blocks, 1.0, None)

    def residuals_modp(self, p, root, X):
        """Residuals A·X mod p of the full Fix rows, rows unbuilt.

        X has shape (ncols, nvec), entries in [0, p).  One block over all
        i_1 (_blocks), for Q = den * P mod p and corr = den^k.
        """
        yield self._blocks(self.magic.modp(p, root).astype(np.float64),
                           np.asarray(X, dtype=np.float64),
                           pow(self.magic.den, self.k, p), p)


class _HomSystem:
    """Streamed system whose nullspace carries the (k, l) intertwiners.

    Unknowns are the entries of the n^l x n^k matrix T; the equations
    state that sandwiching T with identity legs commutes with the G-index
    chains of matching lengths.  The defining system has one chunk
    A_{e0e1f0f1} = s1*(I (x) K1^T) - s2*(K2 (x) I) per choice of the four
    pinned boundary indices (row endpoints e0, e1 and column endpoints f0,
    f1), with K1, K2 the chains of k and l steps: n^4 chunks of n^(k+l)
    equations each.

    Only the end factors of a chain depend on the endpoints, and each is a
    sum over the columns of H of rank-one factors:
    G[m,e0,b,f0] = sum_j v_j(e0,f0) H_mj conj(H_bj) with
    v_j = conj(H_e0j) H_f0j, G[e1,m,f1,b] = sum_c u_c(e1,f1) conj(H_mc) H_bc
    with u_c = H_e1c conj(H_f1c), and at zero steps
    G[e1,e0,f1,f0] = sum_c u_c v_c.  So, exactly in Z[zeta_l],

        A_{e0e1f0f1} = sum_{j,c} v_j(e0,f0) u_c(e1,f1) C_jc,

    where C_jc is built from the chains that start at H_.j conj(H_.j), end
    at conj(H_.c) H_.c and are delta_jc at zero steps.  The stream yields
    the n^2 chunks C_jc.  For a Hadamard H the columns V = (v_j),
    U = (u_c) satisfy V*V = U*U = n^2 I, so the defining chunks are the
    image of the n^2 chunks n^2 C_jc under the isometry (V (x) U) / n^2.
    Over C the stacked singular values are therefore those of the defining
    system; modulo p (p does not divide n) the row space is the same, and
    with it the canonical RREF and every lifted basis.

    The rows are formed, not contracted (_rows): C_jc = s1 (I (x) K1_jc)
    - s2 (K2_jc (x) I), with K1_jc and K2_jc the chain matrices of k and l
    steps built site by site as outer products (_chain_matrices), so no
    sum runs over the zeros of an identity.  Verification contracts the
    same chunks without forming them (_blocks): if C_jc X = 0 at an
    embedding modulo p for every (j, c), the identity gives A X = 0 there,
    so the zero test keeps the bound of A (coeff_l1_bound).  A true null
    vector of A has C_jc X = (V (x) U)* A X / n^4 = 0, so nothing valid is
    rejected.  Exact systems read G modulo p from the residues of H and
    never build the complex G tensor.
    """

    def __init__(self, h, k, l):
        # rows times columns of the stream
        _check_budget(h.n ** (2 * (k + l) + 2), "hom-space system")
        self.h = h
        self.k = k
        self.l = l
        self.n = h.n
        self.ncols = self.n ** (k + l)
        self.level = h.level if h.is_exact else 1
        mx = max(k, l)
        self.s1_pow = mx - k
        self.s2_pow = mx - l
        if h.is_exact:
            self.coeff_l1_bound = (self.n ** (self.s1_pow + k + 1)
                                   + self.n ** (self.s2_pow + l + 1))
        else:
            self.coeff_l1_bound = None

    @staticmethod
    def _factors(hm, hc):
        """starts[m, b, j] = H_mj conj(H_bj), ends[c, m, b] =
        conj(H_mc) H_bc."""
        return (hm[:, None, :] * hc[None, :, :],
                (hc[:, None, :] * hm[None, :, :]).transpose(2, 0, 1))

    def _rows(self, g4, hm, hc, s1, s2, p):
        """The n^2 chunks C_jc, in (j, c) order, c fastest.

        hm and hc are H and its conjugate (int64 residues modulo p, or
        complex with p None).  C_jc applied to T is s1*T*C1_jc - s2*C2_jc*T
        for C1, C2 the chains of k and l steps, so on vec(T), row
        I*n^k + J, C_jc = s1 (I (x) K1_jc) - s2 (K2_jc (x) I) with
        K1 = C1^T, a chain of G with the m and b axes swapped, whose start
        and end factors transpose with them.  s1 and s2 ride on the start
        factors (and on delta_jc at zero steps).  Modulo p every entry is
        brought into [0, p) and the chunk is int64.
        """
        n, k, l = self.n, self.k, self.l
        nk, nl = n ** k, n ** l
        starts, ends = self._factors(hm, hc)
        if p is not None:
            starts %= p
            ends %= p
        eye = np.eye(n, dtype=g4.dtype)
        g4t = g4.transpose(2, 3, 0, 1)
        ends_t = ends.transpose(0, 2, 1)
        for j in range(n):
            start = starts[:, :, j]
            K1 = _chain_matrices(g4t, k, s1 * start.T, ends_t, s1 * eye[j], p)
            K2 = _chain_matrices(g4, l, s2 * start, ends, s2 * eye[j], p)
            for c in range(n):
                chunk = np.zeros((nl, nk, nl, nk), dtype=g4.dtype)
                # writable diagonal views: [I, J, J'] and [I, I', J]
                np.einsum("ijik->ijk", chunk)[...] = K1[c]
                right = np.einsum("ijkj->ikj", chunk)
                right -= K2[c][:, :, None]
                if p is not None:
                    right %= p
                yield chunk.reshape(self.ncols, self.ncols)

    def _blocks(self, g4, hm, hc, X, s1, s2, p):
        """The chunks C_jc times X modulo p, one block per start column j.

        g4, hm, hc (G, H and conj(H)) and X of shape (ncols, nvec) are
        float64 residues in [0, p); column v of X is vec(T_v) for T_v of
        shape n^l x n^k, and C_jc applied to T is s1*T*C1_jc - s2*C2_jc*T
        (_rows).  The block of j stacks the chunks (j, 0..n-1) times X,
        ordered (c, I, J) with chunk row I*n^k + J, so that it equals those
        chunks times X.  Every sum is a matmul_mod (_chain_apply), so the
        two chains lie in [0, p), and reduce_mod brings the products
        s1 T, s2 T and the factors, below p^2, and the chains' difference
        back into [0, p).
        """
        n, k, l = self.n, self.k, self.l
        nk, nl = n ** k, n ** l
        nvec = X.shape[1]
        X = X.reshape(nl, nk, nvec)
        # the scalars s1, s2 ride on T, where they cost n^(k+l) products
        T1 = reduce_mod(s1 * X.transpose(1, 0, 2), p).reshape(nk, -1)
        T2 = reduce_mod(s2 * X, p).reshape(nl, -1)
        starts, ends = self._factors(hm, hc)
        for factor in (starts, ends):
            reduce_mod(factor, p)
        g4t = np.ascontiguousarray(g4.transpose(2, 3, 0, 1))
        ends_t = ends.transpose(0, 2, 1)
        eye = np.eye(n)
        for j in range(n):
            start = starts[:, :, j]
            # right[c, J, (I, v)] = (T C1_jc)[I, J], left[c, I, (J, v)]
            right = _chain_apply(g4t, k, start.T, ends_t, eye[j], T1, p)
            left = _chain_apply(g4, l, start, ends, eye[j], T2, p)
            right = right.reshape(n, nk, nl, nvec).transpose(0, 2, 1, 3)
            block = right - left.reshape(n, nl, nk, nvec)
            yield reduce_mod(block, p).reshape(-1, nvec)

    def _modp_factors(self, p, root):
        """G, H and conj(H) at the embedding zeta -> root modulo p.

        G[i, a, j, b] = sum_k (H_ik conj(H_ak)) (conj(H_jk) H_bk) is one
        int64 matmul_mod of residue pairs.
        """
        rp = _root_powers(root, p, self.level)
        E = self.h.exponents
        hm, hc = rp[E], rp[-E % self.level]
        left = (hm[:, None, :] * hc[None, :, :] % p).reshape(-1, self.n)
        right = (hc[:, None, :] * hm[None, :, :] % p).reshape(-1, self.n)
        g4 = matmul_mod(left, right.T, p).reshape((self.n,) * 4)
        return g4, hm, hc

    def chunks_modp(self, p, root):
        return self._rows(*self._modp_factors(p, root),
                          pow(self.n, self.s1_pow, p),
                          pow(self.n, self.s2_pow, p), p)

    def chunks_complex(self):
        # n^2 C_jc against the defining divisors n^(k+1), n^(l+1)
        hm = self.h.entries
        return self._rows(_g_complex(hm), hm, hm.conj(),
                          self.n ** (1 - self.k), self.n ** (1 - self.l), None)

    def residuals_modp(self, p, root, X):
        """Residuals C_jc·X mod p of the stream's chunks, rows unbuilt.

        X has shape (ncols, nvec) with entries in [0, p).  One float64
        block is yielded per start column j (_blocks).  By the class
        identity the defining residuals are sum_{j,c} v_j u_c (C_jc X), so
        blocks that vanish make A·X vanish.
        """
        factors = (f.astype(np.float64) for f in self._modp_factors(p, root))
        return self._blocks(*factors, np.asarray(X, dtype=np.float64),
                            pow(self.n, self.s1_pow, p),
                            pow(self.n, self.s2_pow, p), p)


def _as_magic(obj, tol):
    """obj, or the magic unitary of a Hadamard obj checked at tol."""
    if isinstance(obj, MagicUnitary):
        return obj
    if isinstance(obj, Hadamard):
        return _magic(_hadamard(obj, tol))
    raise MalformedMatrix("expected a MagicUnitary or Hadamard value")


def fix_dim_direct(p, k, tol=DEFAULT_TOL, return_info=False):
    """Dimension of the fixed space of the k-fold block product.

    Accepts a MagicUnitary or a Hadamard matrix (converted to its magic
    unitary).  Butson inputs get a certified exact nullity; float inputs
    get a singular-value rank with a mandatory gap at least 10x the
    tolerance, raising RankAmbiguous otherwise.
    """
    magic = _as_magic(p, tol)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        info = {"method": "trivial", "gap": None, "tags": [], "basis": None}
        return (1, info) if return_info else 1
    dim, info = _nullity(_FixSystem(magic, k), tol)
    return (dim, info) if return_info else dim


def _nullity(system, tol, candidates=None):
    """Certified nullity of an exact system, or the gap-guarded float
    nullity of a float one (which has no coeff_l1_bound)."""
    if system.coeff_l1_bound is None:
        dim, gap = float_nullity(system.chunks_complex(), system.ncols, tol)
        return dim, {"method": "float", "gap": gap, "tags": [], "basis": None}
    cert = certified_nullity(system, candidates=candidates)
    return cert.dim, {"method": "exact", "gap": None, "tags": cert.tags,
                      "basis": cert.basis}


def hom_dim_via_g(h, k, l, tol=DEFAULT_TOL, return_info=False):
    """Dimension of the space of (k, l) intertwiners via the G chains.

    Solves the commutation linear system for the n^l x n^k unknown T.
    Exact certified rank on Butson inputs; otherwise a singular-value
    rank whose gap must clear 10x the tolerance (RankAmbiguous if not).
    """
    _hadamard(h, tol)
    if k < 0 or l < 0:
        raise ValueError("k and l must be nonnegative")
    dim, info = _nullity(_HomSystem(h, k, l), tol)
    return (dim, info) if return_info else dim


# ---------------------------------------------------------------------------
# invariant series
# ---------------------------------------------------------------------------


@dataclass
class InvariantSeries:
    """Fixed-space dimensions c_0..c_K with per-value method tags."""

    provenance: str
    values: tuple
    methods: tuple

    @property
    def kmax(self):
        return len(self.values) - 1


def invariants(h, kmax, method="both", tol=DEFAULT_TOL):
    """Quantum invariants c_0..c_kmax of a Hadamard matrix.

    method selects the computation: "direct" for the fixed-point system,
    "g_tensor" for the G-chain system, "both" to run the two routes and
    insist on exact agreement (MethodDisagreement otherwise).
    """
    if method not in ("g_tensor", "direct", "both"):
        raise ValueError("method must be g_tensor, direct or both")
    _hadamard(h, tol)
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    need_direct = method in ("direct", "both")
    need_g = method in ("g_tensor", "both")
    magic = _magic(h) if need_direct else None
    tag = {"direct": "direct-fix", "g_tensor": "g-tensor",
           "both": "both-agree"}[method]
    values = [1]
    for k in range(1, kmax + 1):
        d_dir, info = (fix_dim_direct(magic, k, tol=tol, return_info=True)
                       if need_direct else (None, {"basis": None}))
        d_g = (_nullity(_HomSystem(h, 0, k), tol, info["basis"])[0]
               if need_g else d_dir)
        if d_dir is not None and d_dir != d_g:
            raise MethodDisagreement(
                f"c_{k}: direct fixed points give {d_dir}, "
                f"G-chain system gives {d_g}"
            )
        values.append(d_g)
    prov = h.provenance or f"hadamard(n={h.n})"
    return InvariantSeries(prov, tuple(values), (tag,) * len(values))


def poincare_series(s):
    """Truncated series coefficients of s as exact rationals."""
    return tuple(Fraction(int(v)) for v in s.values)


def image_commutative(h, tol=DEFAULT_TOL):
    """True iff all blocks of the magic unitary of h commute pairwise.

    A true result witnesses a classical (commutative) symmetry image; a
    false result certifies genuine noncommutativity.  Exact on Butson
    inputs, within tol otherwise: a commutator entry of den * P is bounded
    by 2 d L^2 (L as in check_magic), and every embedding of
    `_exact.zero_test_primes(l, d, 2 d L^2)` decides it.
    """
    magic = _as_magic(h, tol)
    n, d = magic.n, magic.dim
    if magic.is_exact:
        bound = 2 * d * _entry_l1(magic) ** 2
        return all(
            not (_commutators(magic.modp(p, root).reshape(n * n, d, d))
                 % p).any()
            for p, roots in zero_test_primes(magic.level, d, bound)
            for root in roots)
    comm = _commutators(magic.blocks.reshape(n * n, d, d))
    return bool(np.abs(comm).max() <= tol)

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

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._exact import certified_nullity, float_nullity
from .errors import (
    BudgetExceeded,
    MalformedMatrix,
    MethodDisagreement,
    NotHadamard,
    ShapeMismatch,
)
from .hadamard import Hadamard
from .scalars import DEFAULT_TOL, root_reduction_table

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

    blocks[i, j] is the (i, j) entry as a d x d complex matrix.  When the
    entries live in (1/den)*Z[zeta_level] the integer coefficient tensor
    is kept alongside: entry (i, j)[a, b] = sum_t coeffs[i,j,a,b,t] *
    zeta_level^t / den, which drives the exact checks and exact ranks.
    """

    def __init__(self, blocks, level=None, coeffs=None, den=1, provenance=""):
        blocks = np.asarray(blocks, dtype=np.complex128)
        if (blocks.ndim != 4 or blocks.shape[0] != blocks.shape[1]
                or blocks.shape[2] != blocks.shape[3]):
            raise ShapeMismatch("blocks must have shape (n, n, d, d)")
        self.blocks = blocks
        self.n = blocks.shape[0]
        self.dim = blocks.shape[2]
        self.provenance = provenance
        if coeffs is None:
            self.level = None
            self.coeffs = None
            self.den = 1
        else:
            if level is None or level < 1:
                raise MalformedMatrix("coefficient form needs a level")
            coeffs = np.asarray(coeffs, dtype=np.int64)
            expect = (self.n, self.n, self.dim, self.dim, level)
            if coeffs.shape != expect:
                raise ShapeMismatch(
                    f"coefficient tensor must have shape {expect}"
                )
            self.level = int(level)
            self.coeffs = coeffs
            self.den = int(den)

    @property
    def is_exact(self):
        return self.coeffs is not None

    def __repr__(self):
        form = f"level={self.level}" if self.is_exact else "complex"
        tag = f", {self.provenance}" if self.provenance else ""
        return f"MagicUnitary(n={self.n}, d={self.dim}, {form}{tag})"


def magic_from_hadamard(h):
    """Magic unitary of row-ratio projections of a Hadamard matrix.

    Entry (i, j) is the projection onto xi = H_i/H_j taken componentwise:
    (P_ij)_{ab} = H_ia * conj(H_ja) * conj(H_ib) * H_jb / n.
    """
    if not isinstance(h, Hadamard):
        raise MalformedMatrix("expected a Hadamard value")
    if not h.verify():
        raise NotHadamard("rows are not orthogonal")
    n = h.n
    ent = h.entries
    xi = ent[:, None, :] / ent[None, :, :]
    blocks = xi[:, :, :, None] * xi.conj()[:, :, None, :] / n
    prov = f"magic({h.provenance})" if h.provenance else "magic"
    if not h.is_exact:
        return MagicUnitary(blocks, provenance=prov)
    lev = h.level
    E = h.exponents
    q = (E[:, None, :, None] - E[None, :, :, None]
         - E[:, None, None, :] + E[None, :, None, :]) % lev
    coeffs = np.zeros((n, n, n, n, lev), dtype=np.int64)
    np.put_along_axis(coeffs, q[..., None], 1, axis=-1)
    return MagicUnitary(blocks, level=lev, coeffs=coeffs, den=n,
                        provenance=prov)


def permutation_magic(perm):
    """Magic unitary of a classical permutation, with 1 x 1 blocks.

    Entry (i, j) is 1 exactly when perm[j] == i, so the grid is the usual
    permutation matrix viewed with scalar projection entries.
    """
    perm = [int(x) for x in perm]
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise MalformedMatrix("not a permutation of 0..n-1")
    blocks = np.zeros((n, n, 1, 1), dtype=np.complex128)
    for j, i in enumerate(perm):
        blocks[i, j, 0, 0] = 1.0
    coeffs = np.rint(blocks.real).astype(np.int64)[..., None]
    return MagicUnitary(blocks, level=1, coeffs=coeffs, den=1,
                        provenance=f"perm{tuple(perm)}")


def _ga_products(a, ash):
    """All pairwise group-algebra block products.

    a has shape (m, d, d, lev); ash is the index-shifted copy with
    ash[f, c, b, s, t] = a[f, c, b, (t - s) % lev].  Returns the tensor
    prod[e, f, a, b, t] of coefficient vectors of a_e @ a_f.
    """
    return np.einsum("eacs,fcbst->efabt", a, ash)


def _shifted(coeffs):
    lev = coeffs.shape[-1]
    t = np.arange(lev)
    shift_idx = (t[None, :] - t[:, None]) % lev  # [s, t] -> (t - s) % lev
    return coeffs[..., shift_idx]


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


def check_magic(u, tol=DEFAULT_TOL):
    """Verify projection, self-adjointness and row/column sum conditions.

    Returns a MagicReport with the largest residual of each condition;
    exact inputs are tested exactly and report residual 0.0 on success.
    """
    blocks = u.blocks
    n, d = u.n, u.dim
    eye = np.eye(d)
    pp = np.einsum("ijac,ijcb->ijab", blocks, blocks)
    proj_res = np.abs(pp - blocks).max(axis=(2, 3))
    herm_res = np.abs(blocks - blocks.conj().swapaxes(2, 3)).max(axis=(2, 3))
    row_res = float(np.abs(blocks.sum(axis=1) - eye).max()) if n else 0.0
    col_res = float(np.abs(blocks.sum(axis=0) - eye).max()) if n else 0.0
    entry_res = np.maximum(proj_res, herm_res)
    worst = np.unravel_index(int(entry_res.argmax()), entry_res.shape)
    if not u.is_exact:
        vals = (float(proj_res.max()), float(herm_res.max()),
                row_res, col_res)
        ok = all(v <= tol for v in vals)
        return MagicReport(ok, False, *vals, tuple(int(x) for x in worst))

    lev = u.level
    table = root_reduction_table(lev)
    c = u.coeffs.reshape(n * n, d, d, lev)
    csh = _shifted(c)
    prods = _ga_products(c, csh)
    sq = prods[np.arange(n * n), np.arange(n * n)]  # entrywise squares
    proj_diff = sq - u.den * c
    proj_ok = not (proj_diff.reshape(-1, lev) @ table).any()
    conj_idx = (-np.arange(lev)) % lev
    adj = np.swapaxes(c, 1, 2)[..., conj_idx]
    herm_ok = not ((c - adj).reshape(-1, lev) @ table).any()
    target = np.zeros((d, d, lev), dtype=np.int64)
    target[np.arange(d), np.arange(d), 0] = u.den
    grid = u.coeffs
    rows_ok = not ((grid.sum(axis=1) - target).reshape(-1, lev) @ table).any()
    cols_ok = not ((grid.sum(axis=0) - target).reshape(-1, lev) @ table).any()
    ok = proj_ok and herm_ok and rows_ok and cols_ok
    return MagicReport(
        ok, True,
        0.0 if proj_ok else float(proj_res.max()),
        0.0 if herm_ok else float(herm_res.max()),
        0.0 if rows_ok else row_res,
        0.0 if cols_ok else col_res,
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


class GTensor:
    """Four-index scalar-product tensor of a Hadamard matrix.

    values[i, a, j, b] = sum_k H_ik * conj(H_jk) * conj(H_ak) * H_bk.
    For Butson inputs the root-count tensor is kept: counts[i,a,j,b,t]
    is the number of k whose exponent combination reduces to t, so the
    entry equals sum_t counts[i,a,j,b,t] * zeta_level^t exactly.
    """

    def __init__(self, n, values, level=None, counts=None, provenance=""):
        self.n = n
        self.values = values
        self.level = level
        self.counts = counts
        self.provenance = provenance
        self._modp_cache = {}

    @property
    def is_exact(self):
        return self.counts is not None

    def modp(self, p, root):
        """Entries evaluated at zeta -> root modulo p, as int64 in [0, p)."""
        key = (p, root)
        if key not in self._modp_cache:
            rp = np.array([pow(int(root), t, p) for t in range(self.level)],
                          dtype=np.int64)
            self._modp_cache[key] = (self.counts * rp).sum(axis=-1) % p
        return self._modp_cache[key]

    def __repr__(self):
        form = f"level={self.level}" if self.is_exact else "complex"
        return f"GTensor(n={self.n}, {form})"


def g_tensor(h):
    """Build the G tensor of a verified Hadamard matrix."""
    if not isinstance(h, Hadamard):
        raise MalformedMatrix("expected a Hadamard value")
    if not h.verify():
        raise NotHadamard("rows are not orthogonal")
    ent = h.entries
    vals = np.einsum("ik,jk,ak,bk->iajb",
                     ent, ent.conj(), ent.conj(), ent)
    if not h.is_exact:
        return GTensor(h.n, vals, provenance=h.provenance)
    E = h.exponents
    lev = h.level
    expo = (E[:, None, None, None, :] - E[None, None, :, None, :]
            - E[None, :, None, None, :] + E[None, None, None, :, :]) % lev
    counts = (expo[..., None] == np.arange(lev)).sum(axis=-2, dtype=np.int64)
    return GTensor(h.n, vals, level=lev, counts=counts,
                   provenance=h.provenance)


def _extend_chain(S, G4, p=None):
    """Append one index pair to a chain matrix.

    S has shape (r, r) over (prefix, prefix'); the new entry at
    ((prefix, m), (prefix', b)) is S[prefix, prefix'] * G4[m, last(prefix),
    b, last(prefix')], with digits packed most-significant-first.
    """
    r = S.shape[0]
    n = G4.shape[0]
    ld = np.arange(r) % n
    gsel = G4[:, ld][:, :, :, ld]  # [m, P, b, Q]
    out = np.einsum("PQ,mPbQ->PmQb", S, gsel)
    if p is not None:
        out %= p
    return out.reshape(r * n, r * n)


def _boundary_chain(G4, steps, e0, e1, f0, f1, p=None):
    """Chain of `steps` inner index pairs pinned to fixed endpoints.

    Entry at (M, B) with M = (m_1..m_steps), B = (b_1..b_steps) is
    G[m_1,e0,b_1,f0] * prod_t G[m_t,m_{t-1},b_t,b_{t-1}] *
    G[e1,m_steps,f1,b_steps]; at steps = 0 it degenerates to the single
    factor G[e1,e0,f1,f0].
    """
    if steps == 0:
        out = np.array([[G4[e1, e0, f1, f0]]])
        return out % p if p is not None else out
    n = G4.shape[0]
    S = G4[:, e0, :, f0].copy()
    for _ in range(steps - 1):
        S = _extend_chain(S, G4, p)
    r = S.shape[0]
    ld = np.arange(r) % n
    fin = G4[e1, :, f1, :][np.ix_(ld, ld)]
    out = S * fin
    return out % p if p is not None else out


def g_power(gt, k):
    """Chain matrix of a G tensor on k-fold multi-indices.

    Entry at ((i_1..i_k), (j_1..j_k)) is the product of the k-1
    consecutive-pair factors G[i_t, i_{t-1}, j_t, j_{t-1}], t = 2..k;
    multi-indices are packed row-major with the first point most
    significant.  Requires k >= 2.
    """
    if not isinstance(gt, GTensor):
        gt = g_tensor(gt)
    if k < 2:
        raise ValueError("g_power needs k >= 2")
    n = gt.n
    S = np.ones((n, n), dtype=np.complex128)
    for _ in range(k - 1):
        S = _extend_chain(S, gt.values)
    return S


# ---------------------------------------------------------------------------
# linear systems: direct fixed points and the G-chain commutation relation
# ---------------------------------------------------------------------------


class _FixSystem:
    """Streamed system whose nullspace is Fix of the k-fold block product.

    Unknowns are xi in C^(n^k); equations, indexed by (i_1..i_k, a, b),
    impose sum_J (P_{i_1 j_1} ... P_{i_k j_k})_{ab} xi_J = xi_I delta_ab.
    Exact rows are scaled by den^k so all coefficients are cyclotomic
    integers; the stream yields one chunk per value of i_1.
    """

    def __init__(self, magic, k):
        self.magic = magic
        self.k = k
        self.n = magic.n
        self.d = magic.dim
        self.ncols = self.n ** k
        self.level = magic.level if magic.is_exact else 1
        if magic.is_exact:
            entry_l1 = int(np.abs(magic.coeffs).sum(axis=-1).max())
            self.coeff_l1_bound = (entry_l1 ** k) * self.d ** max(k - 1, 0) \
                + magic.den ** k
        else:
            self.coeff_l1_bound = None

    def _chunks(self, pm, corr, p):
        n, d, k = self.n, self.d, self.k
        for i1 in range(n):
            S = pm[i1].transpose(1, 0, 2)[None, ...]  # (1, a, j1, c)
            for t in range(1, k):
                S = np.einsum("IaJc,ijcb->IiaJjb", S, pm)
                if p is not None:
                    S %= p
                r = S.shape[0] * n
                S = S.reshape(r, d, S.shape[3] * n, d)
            V = np.ascontiguousarray(S.transpose(0, 1, 3, 2))
            nsuf = n ** (k - 1)
            suf = np.arange(nsuf)
            cols = i1 * nsuf + suf
            for a in range(d):
                V[suf, a, a, cols] -= corr
            if p is not None:
                V %= p
            yield V.reshape(nsuf * d * d, self.ncols)

    def chunks_modp(self, p, root):
        rp = np.array([pow(int(root), t, p) for t in range(self.level)],
                      dtype=np.int64)
        pm = (self.magic.coeffs * rp).sum(axis=-1) % p
        corr = pow(self.magic.den, self.k, p)
        return self._chunks(pm, corr, p)

    def chunks_complex(self):
        return self._chunks(self.magic.blocks, 1.0, None)


class _HomSystem:
    """Streamed system whose nullspace carries the (k, l) intertwiners.

    Unknowns are the entries of the n^l x n^k matrix T; the equations
    state that sandwiching T with identity legs commutes with the G-index
    chains of matching lengths.  One chunk is produced per choice of the
    four pinned boundary indices (row endpoints e0, e1 and column
    endpoints f0, f1), giving n^4 chunks of n^(k+l) equations each.
    """

    def __init__(self, h, k, l):
        self.h = h
        self.k = k
        self.l = l
        self.n = h.n
        self.gt = g_tensor(h)
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

    def _chunks(self, g4, s1, s2, p):
        """Chains scaled by s1, s2: multipliers mod p, divisors over C."""
        n, k, l = self.n, self.k, self.l
        nk, nl = n ** k, n ** l
        idx = np.arange(nl)
        jdx = np.arange(nk)
        for e0, e1, f0, f1 in itertools.product(range(n), repeat=4):
            k1 = _boundary_chain(g4, k, e0, e1, f0, f1, p)
            k2 = _boundary_chain(g4, l, e0, e1, f0, f1, p)
            if p is None:
                k1, k2 = k1 / s1, k2 / s2
            else:
                k1, k2 = (s1 * k1) % p, (s2 * k2) % p
            a4 = np.zeros((nl, nk, nl, nk), dtype=k1.dtype)
            a4[idx, :, idx, :] = k1.T
            a4[:, jdx, :, jdx] -= k2
            if p is not None:
                a4 %= p
            yield a4.reshape(nl * nk, nl * nk)

    def chunks_modp(self, p, root):
        return self._chunks(self.gt.modp(p, root), pow(self.n, self.s1_pow, p),
                            pow(self.n, self.s2_pow, p), p)

    def chunks_complex(self):
        n = self.n
        return self._chunks(self.gt.values, n ** (self.k + 1),
                            n ** (self.l + 1), None)


def _as_magic(obj):
    if isinstance(obj, MagicUnitary):
        return obj
    if isinstance(obj, Hadamard):
        return magic_from_hadamard(obj)
    raise MalformedMatrix("expected a MagicUnitary or Hadamard value")


def fix_dim_direct(p, k, tol=DEFAULT_TOL, return_info=False):
    """Dimension of the fixed space of the k-fold block product.

    Accepts a MagicUnitary or a Hadamard matrix (converted to its magic
    unitary).  Butson inputs get a certified exact nullity; float inputs
    get a singular-value rank with a mandatory gap at least 10x the
    tolerance, raising RankAmbiguous otherwise.
    """
    magic = _as_magic(p)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        info = {"method": "trivial", "gap": None, "tags": [], "basis": None}
        return (1, info) if return_info else 1
    _check_budget((magic.n ** k) * magic.dim ** 2 * magic.n ** k,
                  "fixed-point system")
    sys = _FixSystem(magic, k)
    if magic.is_exact:
        cert = certified_nullity(sys)
        dim = cert.dim
        info = {"method": "exact", "gap": None, "tags": cert.tags,
                "basis": cert.basis}
    else:
        dim, gap = float_nullity(sys.chunks_complex(), sys.ncols, tol=tol)
        info = {"method": "float", "gap": gap, "tags": [], "basis": None}
    return (dim, info) if return_info else dim


def _hom_nullity(h, k, l, tol, candidates=None):
    sys = _HomSystem(h, k, l)
    if h.is_exact:
        cert = certified_nullity(sys, candidates=candidates)
        return cert.dim, {"method": "exact", "gap": None, "tags": cert.tags}
    dim, gap = float_nullity(sys.chunks_complex(), sys.ncols, tol=tol)
    return dim, {"method": "float", "gap": gap, "tags": []}


def hom_dim_via_g(h, k, l, tol=DEFAULT_TOL, return_info=False):
    """Dimension of the space of (k, l) intertwiners via the G chains.

    Solves the commutation linear system for the n^l x n^k unknown T.
    Exact certified rank on Butson inputs; otherwise a singular-value
    rank whose gap must clear 10x the tolerance (RankAmbiguous if not).
    """
    if not isinstance(h, Hadamard):
        raise MalformedMatrix("expected a Hadamard value")
    if not h.verify(tol):
        raise NotHadamard("rows are not orthogonal")
    if k < 0 or l < 0:
        raise ValueError("k and l must be nonnegative")
    n = h.n
    _check_budget(n ** (k + l + 2) * n ** (k + l), "hom-space system")
    dim, info = _hom_nullity(h, k, l, tol)
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
    if not isinstance(h, Hadamard):
        raise MalformedMatrix("expected a Hadamard value")
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    need_direct = method in ("direct", "both")
    need_g = method in ("g_tensor", "both")
    magic = magic_from_hadamard(h) if need_direct else None
    if need_g and not h.verify(tol):
        raise NotHadamard("rows are not orthogonal")
    tag = {"direct": "direct-fix", "g_tensor": "g-tensor",
           "both": "both-agree"}[method]
    values = [1]
    methods = [tag]
    for k in range(1, kmax + 1):
        d_dir = None
        basis = None
        if need_direct:
            d_dir, info = fix_dim_direct(magic, k, tol=tol, return_info=True)
            basis = info.get("basis")
        d_g = None
        if need_g:
            _check_budget(h.n ** (k + 2) * h.n ** k, "hom-space system")
            d_g, _ = _hom_nullity(h, 0, k, tol, candidates=basis)
        if need_direct and need_g and d_dir != d_g:
            raise MethodDisagreement(
                f"c_{k}: direct fixed points give {d_dir}, "
                f"G-chain system gives {d_g}"
            )
        values.append(d_dir if d_dir is not None else d_g)
        methods.append(tag)
    prov = h.provenance or f"hadamard(n={h.n})"
    return InvariantSeries(prov, tuple(values), tuple(methods))


def poincare_series(s):
    """Truncated series coefficients of s as exact rationals."""
    return tuple(Fraction(int(v)) for v in s.values)


def image_commutative(h, tol=DEFAULT_TOL):
    """True iff all blocks of the magic unitary of h commute pairwise.

    A true result witnesses a classical (commutative) symmetry image; a
    false result certifies genuine noncommutativity.  Exact on Butson
    inputs, within tol otherwise.
    """
    magic = _as_magic(h)
    n, d = magic.n, magic.dim
    if magic.is_exact:
        lev = magic.level
        table = root_reduction_table(lev)
        c = magic.coeffs.reshape(n * n, d, d, lev)
        csh = _shifted(c)
        ab = _ga_products(c, csh)
        comm = ab - ab.transpose(1, 0, 2, 3, 4)
        return not (comm.reshape(-1, lev) @ table).any()
    b = magic.blocks.reshape(n * n, d, d)
    ab = np.einsum("eac,fcb->efab", b, b)
    comm = ab - ab.transpose(1, 0, 2, 3)
    return bool(np.abs(comm).max() <= tol)

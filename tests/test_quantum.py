"""Magic unitaries, Hom-space dimensions and invariant series tests."""

import itertools
import os
from fractions import Fraction

import numpy as np
import pytest

import qperm.quantum as quantum
from qperm._exact import (
    ModRREF,
    certified_nullity,
    embedding_roots,
    float_nullity,
    prime_pool,
    zero_test_primes,
)
from qperm.errors import BudgetExceeded, MalformedMatrix, NotHadamard
from qperm.hadamard import (
    Hadamard,
    f4q,
    f6_three_two,
    f6_two_three,
    fourier,
    haagerup,
    random_equivalent,
    tao,
    tensor,
)
from qperm.models import pauli_magic, su2_sample
from qperm.quantum import (
    MagicUnitary,
    _FixSystem,
    _HomSystem,
    check_magic,
    fix_dim_direct,
    g_tensor,
    hom_dim_via_g,
    image_commutative,
    invariants,
    magic_from_hadamard,
    orbit_components,
    permutation_magic,
    poincare_series,
)
from qperm.scalars import DEFAULT_TOL


def test_hadamard_magic_is_exactly_magic():
    for h in (fourier(2), fourier(5), tao(), haagerup(Fraction(1, 4))):
        u = magic_from_hadamard(h)
        rep = check_magic(u)
        assert rep.ok
        assert u.is_exact
        assert rep.projection == rep.selfadjoint == 0.0
        assert rep.row_sums == rep.col_sums == 0.0


def test_float_magic_residuals_are_tiny():
    h = Hadamard(entries=fourier(5).entries)
    rep = check_magic(magic_from_hadamard(h))
    assert rep.ok
    assert rep.projection < 1e-12


def test_exact_magic_check_reads_the_coefficients():
    # one coefficient of one entry is off
    u = magic_from_hadamard(tao())
    coeffs = u.coeffs.copy()
    coeffs[0, 1, 2, 3, 0] += 1
    rep = check_magic(MagicUnitary(level=u.level, coeffs=coeffs, den=u.den))
    assert rep.exact
    assert not rep.ok
    # every identity the exact check rejects reports a visible residual
    good = check_magic(u)
    assert good.ok
    for name in ("projection", "selfadjoint", "row_sums", "col_sums"):
        assert getattr(good, name) == 0.0
        assert getattr(rep, name) == 0.0 or getattr(rep, name) > DEFAULT_TOL
    # the entry (0, 1) is neither a projection nor self-adjoint, and the
    # sums of row 0 and of column 1 are off
    assert min(rep.projection, rep.selfadjoint, rep.row_sums,
               rep.col_sums) > DEFAULT_TOL


def test_exact_magic_check_rejects_a_defect_at_one_embedding():
    u = magic_from_hadamard(fourier(5))
    [(p0, roots)] = zero_test_primes(5, u.dim, 0)
    # a small a + b zeta + e zeta^2 that vanishes at zeta -> roots[0] mod p0
    b, e = np.meshgrid(np.arange(-400, 401), np.arange(-400, 401))
    a = -(b * roots[0] + e * (roots[0] ** 2 % p0)) % p0
    a = np.where(a > p0 // 2, a - p0, a)
    hit = np.flatnonzero((np.abs(a) <= 400) & ((b != 0) | (e != 0)))[0]
    defect = [int(a.flat[hit]), int(b.flat[hit]), int(e.flat[hit]), 0, 0]
    values = [sum(c * pow(r, t, p0) for t, c in enumerate(defect)) % p0
              for r in roots]
    assert values[0] == 0 and values.count(0) == 1
    coeffs = u.coeffs.copy()
    coeffs[0, 0, 0, 0] += defect
    bad = MagicUnitary(level=5, coeffs=coeffs, den=u.den)
    # the norm bound d L^2 + den L stays below p0, so p0 alone decides and
    # its other embeddings must reject the defect
    L = int(np.abs(coeffs).sum(axis=-1).max())
    assert 5 * L * L + 5 * L < p0
    rep = check_magic(bad)
    assert rep.exact
    assert not rep.ok


def test_magic_rejects_non_hadamard():
    bad = Hadamard(entries=np.ones((3, 3), dtype=complex))
    with pytest.raises(NotHadamard):
        magic_from_hadamard(bad)


def test_permutation_magic_components_count_cycles():
    cases = {
        (0, 1, 2, 3): 4,
        (1, 0, 2, 3): 3,
        (1, 2, 0, 3): 2,
        (1, 2, 3, 0): 1,
    }
    for perm, cycles in cases.items():
        u = permutation_magic(list(perm))
        assert check_magic(u).ok
        assert orbit_components(u) == cycles
        assert fix_dim_direct(u, 1) == cycles


def test_hadamard_magic_is_transitive():
    for h in (fourier(3), tao()):
        assert orbit_components(magic_from_hadamard(h)) == 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fourier_g_tensor_closed_form(n):
    gt = g_tensor(fourier(n))
    for i in range(n):
        for a in range(n):
            for j in range(n):
                for b in range(n):
                    expect = n if (i + b) % n == (j + a) % n else 0
                    assert gt[i, a, j, b] == pytest.approx(expect)


def test_g_power_matches_dense_chain():
    """The complex chain matrix of k steps with unit start and end factors
    is the dense product of consecutive-pair G factors."""
    h = tao()
    gt = g_tensor(h)
    n = h.n
    ones = np.ones((n, n), dtype=np.complex128)

    def chain(k):
        return quantum._chain_matrices(gt, k, ones, ones[None], None)[0]

    g2 = chain(2)
    for i1 in range(n):
        for i2 in range(n):
            for j1 in range(n):
                for j2 in range(n):
                    assert g2[i1 * n + i2, j1 * n + j2] == pytest.approx(
                        gt[i2, i1, j2, j1])
    g3 = chain(3)
    idx = (1, 0, 2)
    jdx = (2, 2, 1)
    row = idx[0] * n * n + idx[1] * n + idx[2]
    col = jdx[0] * n * n + jdx[1] * n + jdx[2]
    expect = gt[idx[1], idx[0], jdx[1], jdx[0]] * \
        gt[idx[2], idx[1], jdx[2], jdx[1]]
    assert g3[row, col] == pytest.approx(expect)


CATALOG_SMALL = [fourier(2), fourier(3), fourier(4), fourier(5)]
CATALOG_BIG = [fourier(6), tao(), haagerup(Fraction(1, 4))]


@pytest.mark.parametrize("h", CATALOG_SMALL, ids=lambda h: h.provenance)
def test_hom_equals_fix_small_catalog(h):
    u = magic_from_hadamard(h)
    for k in range(4):
        assert hom_dim_via_g(h, 0, k) == fix_dim_direct(u, k)


@pytest.mark.parametrize("h", CATALOG_BIG, ids=lambda h: h.provenance)
def test_hom_equals_fix_order_six(h):
    u = magic_from_hadamard(h)
    for k in range(3):
        assert hom_dim_via_g(h, 0, k) == fix_dim_direct(u, k)


def test_hom_equals_fix_exact_deformations():
    for h in (f6_two_three(Fraction(1, 5), Fraction(2, 7)),
              f6_three_two(Fraction(1, 5), Fraction(1, 3))):
        u = magic_from_hadamard(h)
        for k in range(3):
            assert hom_dim_via_g(h, 0, k) == fix_dim_direct(u, k)


def test_hom_symmetry():
    for h in (fourier(2), fourier(3)):
        for k in range(3):
            for l in range(3):
                if k + l > 4 or k > l:
                    continue
                assert hom_dim_via_g(h, k, l) == hom_dim_via_g(h, l, k)


def test_hom_frobenius_shift():
    h = fourier(3)
    assert hom_dim_via_g(h, 1, 1) == hom_dim_via_g(h, 0, 2)
    assert hom_dim_via_g(h, 1, 2) == hom_dim_via_g(h, 0, 3)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fourier_invariants_power_law(n):
    series = invariants(fourier(n), 3, method="both")
    assert series.values == (1, 1, n, n * n)
    assert all(tag == "both-agree" for tag in series.methods)


def test_tensor_invariants_multiplicative():
    for na, nb in [(2, 2), (2, 3), (3, 3)]:
        prod = tensor(fourier(na), fourier(nb))
        sa = invariants(fourier(na), 3, method="direct").values
        sb = invariants(fourier(nb), 3, method="direct").values
        sp = invariants(prod, 3, method="direct").values
        assert sp[1:] == tuple(a * b for a, b in zip(sa[1:], sb[1:]))


def test_invariants_under_equivalence_moves():
    base = tao()
    ref = invariants(base, 2, method="direct").values
    for seed in (3, 14):
        moved = random_equivalent(base, seed)
        assert invariants(moved, 2, method="direct").values == ref
    base = f4q(Fraction(1, 7))
    ref = invariants(base, 2, method="direct").values
    for seed in (5, 8):
        moved = random_equivalent(base, seed)
        assert invariants(moved, 2, method="direct").values == ref


def test_invariants_lower_bound_and_components():
    for h in (fourier(4), tao(), haagerup(Fraction(1, 4))):
        series = invariants(h, 2, method="direct")
        assert all(v >= 1 for v in series.values)
        assert series.values[1] == orbit_components(magic_from_hadamard(h))


def test_known_series_values():
    assert invariants(tao(), 3, method="both").values == (1, 1, 2, 5)
    assert invariants(haagerup(Fraction(1, 4)), 3,
                      method="both").values == (1, 1, 2, 5)
    assert invariants(f4q(Fraction(1, 7)), 3,
                      method="both").values == (1, 1, 3, 10)


def test_float_and_exact_routes_agree_on_haagerup():
    exact = invariants(haagerup(Fraction(1, 4)), 2, method="direct").values
    lit = complex(np.exp(0.5j * np.pi))
    floaty = invariants(haagerup(lit), 2, method="direct").values
    assert exact == floaty


def _principal_minors(m):
    """Every principal minor of the integer matrix m, by cofactor
    expansion in Python integers."""
    def det(a):
        return 1 if not a else sum(
            (-1) ** j * a[0][j] * det([row[:j] + row[j + 1:] for row in a[1:]])
            for j in range(len(a)))
    for r in range(1, len(m) + 1):
        for idx in itertools.combinations(range(len(m)), r):
            yield det([[m[i][j] for j in idx] for i in idx])


def _hausdorff_ok(c, n):
    """Whether c_0..c_K pass the Hausdorff moment conditions on [0, n]:
    the Hankel matrices of (c_j), of (c_j+1) and of (n c_j - c_j+1), as
    large as the series fills, are positive semidefinite, which for a
    symmetric integer matrix means that every principal minor is >= 0."""
    seqs = (list(c), [c[j + 1] for j in range(len(c) - 1)],
            [n * c[j] - c[j + 1] for j in range(len(c) - 1)])
    return all(
        minor >= 0 for s in seqs
        for minor in _principal_minors(
            [[s[i + j] for j in range((len(s) + 1) // 2)]
             for i in range((len(s) + 1) // 2)]))


HAUSDORFF_SERIES = [
    ("F2", fourier(2), 4), ("F3", fourier(3), 4), ("F4", fourier(4), 4),
    ("F2xF2", tensor(fourier(2), fourier(2)), 4),
    ("f4q(1/8)", f4q(Fraction(1, 8)), 4), ("f4q(1/5)", f4q(Fraction(1, 5)), 4),
    ("F5", fourier(5), 3), ("tao", tao(), 3),
    ("haagerup(1/4)", haagerup(Fraction(1, 4)), 3),
]


@pytest.mark.parametrize("h,kmax", [case[1:] for case in HAUSDORFF_SERIES],
                         ids=[case[0] for case in HAUSDORFF_SERIES])
def test_certified_series_are_moments_on_zero_to_n(h, kmax):
    """c_k is the k-th moment of the law of the main character
    chi = sum_i u_ii, which lies in [0, n], so every certified series
    passes the Hausdorff conditions on [0, n].  The check reads only the
    integers c_k, so it is independent of the engine that certified them."""
    assert _hausdorff_ok(invariants(h, kmax, "direct").values, h.n)


def test_hausdorff_check_rejects_series_off_zero_to_n():
    """(1, 2, 3) has the Hankel minor 1 * 3 - 2^2 = -1; the point mass at
    5, (1, 5, 25), is a moment sequence but not on [0, 4]; the point mass
    at 4 is one."""
    assert not _hausdorff_ok((1, 2, 3), 4)
    assert not _hausdorff_ok((1, 5, 25), 4)
    assert _hausdorff_ok((1, 4, 16, 64, 256), 4)


def test_poincare_series_is_rational_lift():
    series = invariants(fourier(3), 3, method="direct")
    coeffs = poincare_series(series)
    assert coeffs == tuple(Fraction(v) for v in series.values)


def test_image_commutative_flags():
    assert image_commutative(fourier(2))
    assert image_commutative(fourier(5))
    assert not image_commutative(tao())
    assert not image_commutative(haagerup(Fraction(1, 4)))
    lit = complex(np.exp(0.5j * np.pi))
    assert image_commutative(haagerup(lit)) == \
        image_commutative(haagerup(Fraction(1, 4)))


def test_budget_guard(monkeypatch):
    monkeypatch.setenv("QPERM_BUDGET", "1000")
    with pytest.raises(BudgetExceeded):
        invariants(fourier(5), 4, method="direct")


def test_fix_dim_accepts_matrix_or_magic():
    h = fourier(3)
    assert fix_dim_direct(h, 2) == fix_dim_direct(magic_from_hadamard(h), 2)


def test_float_rank_gap_is_comfortable():
    h = Hadamard(entries=tao().entries)
    dim, info = fix_dim_direct(h, 2, return_info=True)
    assert dim == 2
    assert info["gap"] >= 10.0


def test_float_gap_does_not_depend_on_chunk_order():
    """The gap is the smallest kept singular value over the threshold, so
    it is the same, to round-off, when the chunks of float F4's Fix system
    at k = 2 arrive in reverse order; a ratio to the dropped values, which
    are round-off, would not be."""
    system = _FixSystem(magic_from_hadamard(Hadamard(
        entries=fourier(4).entries)), 2)
    chunks = list(system.chunks_complex())
    dim, gap = float_nullity(chunks, system.ncols)
    assert (dim, gap) == pytest.approx(float_nullity(chunks[::-1],
                                                     system.ncols), rel=1e-9)
    assert dim == 4 and gap >= 10.0


def _defining_chunks(g, n, k, l, s1, s2, p=None):
    """The n^4 defining chunks of the Hom system, in (e0, e1, f0, f1) order.

    Built from the entries of G alone: the chain of s steps at endpoints
    (e0, e1, f0, f1) has entry G[m_1,e0,b_1,f0] * prod_t
    G[m_t,m_{t-1},b_t,b_{t-1}] * G[e1,m_s,f1,b_s] at (M, B), and the
    chunk is s1*(I (x) K1^T) - s2*(K2 (x) I).  Modulo p, s1 and s2 are
    multipliers; over C (p None) they are divisors.
    """
    def red(x):
        return x % p if p is not None else x

    def chain(steps, e0, e1, f0, f1):
        if steps == 0:
            return red(np.array([[g[e1, e0, f1, f0]]]))
        digits = np.array(list(itertools.product(range(n), repeat=steps)))
        m, b = digits[:, None, :], digits[None, :, :]  # rows M, columns B
        out = g[m[..., 0], e0, b[..., 0], f0]
        for t in range(1, steps):
            out = red(out * g[m[..., t], m[..., t - 1], b[..., t],
                              b[..., t - 1]])
        return red(out * g[e1, m[..., -1], f1, b[..., -1]])

    for e0, e1, f0, f1 in itertools.product(range(n), repeat=4):
        k1, k2 = chain(k, e0, e1, f0, f1), chain(l, e0, e1, f0, f1)
        if p is None:
            yield (np.kron(np.eye(n ** l), k1.T) / s1
                   - np.kron(k2, np.eye(n ** k)) / s2)
        else:
            yield (s1 * np.kron(np.eye(n ** l, dtype=np.int64), k1.T)
                   - s2 * np.kron(k2, np.eye(n ** k, dtype=np.int64))) % p


def _first_prime(system):
    return next(prime_pool(system.level, system.ncols))


def _g_counts_modp(h, p, root):
    """G modulo p from its root counts: counts[i, a, j, b, t] is the number
    of k with E_ik - E_jk - E_ak + E_bk = t (mod l), so G[i, a, j, b] =
    sum_t counts[..., t] * root^t."""
    E, lev = h.exponents, h.level
    expo = (E[:, None, None, None, :] - E[None, None, :, None, :]
            - E[None, :, None, None, :] + E[None, None, None, :, :]) % lev
    counts = (expo[..., None] == np.arange(lev)).sum(axis=-2, dtype=np.int64)
    rp = np.array([pow(root, t, p) for t in range(lev)], dtype=np.int64)
    return (counts * rp).sum(axis=-1) % p


def _defining_modp(system, p, root):
    n, k, l = system.n, system.k, system.l
    return _defining_chunks(_g_counts_modp(system.h, p, root), n, k, l,
                            pow(n, system.s1_pow, p),
                            pow(n, system.s2_pow, p), p)


G_MODP_MATRICES = [fourier(2), fourier(3), fourier(4), fourier(5), tao(),
                   haagerup(Fraction(1, 4)),
                   f6_two_three(Fraction(1, 5), Fraction(2, 7))]


@pytest.mark.parametrize("h", G_MODP_MATRICES,
                         ids=[h.provenance for h in G_MODP_MATRICES])
def test_g_modp_from_residue_pairs_equals_root_counts(h):
    """The Hom system's G modulo p, one product of residue pairs, equals
    the root-count oracle at every embedding of the system's first prime."""
    system = _HomSystem(h, 0, 2)
    p = _first_prime(system)
    for root in embedding_roots(p, h.level):
        g4, _, _ = system._modp_factors(p, root)
        assert g4.dtype == np.int64
        assert (g4 == _g_counts_modp(h, p, root)).all(), root


def test_only_the_complex_stream_builds_the_g_tensor(monkeypatch):
    """Exact Hom systems read G from the residues of H; the complex G is
    built once, by chunks_complex, from the entries of the checked H."""
    calls = []
    build = quantum._g_complex

    def counted(ent):
        calls.append(ent)
        return build(ent)

    monkeypatch.setattr(quantum, "_g_complex", counted)
    assert hom_dim_via_g(fourier(3), 0, 2) == 3
    assert hom_dim_via_g(tao(), 1, 1) == 2
    assert invariants(fourier(3), 2, method="g_tensor").values == (1, 1, 3)
    assert invariants(tao(), 2, method="both").values == (1, 1, 2)
    assert calls == []
    h = Hadamard(entries=tao().entries)
    chunks = list(_HomSystem(h, 0, 1).chunks_complex())
    assert len(chunks) == h.n ** 2
    assert len(calls) == 1


def test_g_route_rejects_non_orthogonal_butson():
    bad = Hadamard(exponents=[[0, 0, 0], [0, 1, 0], [0, 0, 1]], level=2)
    with pytest.raises(NotHadamard):
        hom_dim_via_g(bad, 0, 1)
    with pytest.raises(NotHadamard):
        invariants(bad, 1, method="g_tensor")


HOM_RESIDUAL_CASES = [
    (fourier(2), k, l) for k in range(5) for l in range(5 - k)
] + [
    (fourier(3), 0, 3), (fourier(3), 1, 2), (fourier(3), 2, 2),
    (fourier(4), 0, 3), (fourier(4), 1, 2), (fourier(4), 2, 0),
    (fourier(5), 0, 3), (fourier(5), 2, 1),
    (tao(), 0, 2), (tao(), 1, 1), (tao(), 2, 1),
    (haagerup(Fraction(1, 4)), 0, 2), (haagerup(Fraction(1, 4)), 1, 1),
    (f6_two_three(Fraction(1, 5), Fraction(2, 7)), 0, 1),
]


@pytest.mark.parametrize(
    "h,k,l", HOM_RESIDUAL_CASES,
    ids=[f"{h.provenance}-{k}-{l}" for h, k, l in HOM_RESIDUAL_CASES])
def test_hom_residuals_equal_built_chunks(h, k, l):
    """Chain-contracted residuals equal the stream's chunks C_jc @ X, and
    sum_{j,c} v_j u_c (C_jc @ X) equals the defining chunks @ X."""
    system = _HomSystem(h, k, l)
    n, level = h.n, h.level
    p = _first_prime(system)
    X = np.random.default_rng([n, k, l]).integers(0, p, (system.ncols, 3))
    E = h.exponents
    for root in embedding_roots(p, level):
        blocks = list(system.residuals_modp(p, root, X))
        assert len(blocks) == n
        got = np.array(blocks).reshape(n, n, -1, 3)  # j c rows
        stream = [c @ X % p for c in system.chunks_modp(p, root)]
        assert (got == np.array(stream).reshape(n, n, -1, 3)).all(), root
        rp = np.array([pow(root, t, p) for t in range(level)], dtype=np.int64)
        hm, hc = rp[E], rp[-E % level]
        v = hc[:, None, :] * hm[None, :, :] % p  # v[e0, f0, j]
        u = hm[:, None, :] * hc[None, :, :] % p  # u[e1, f1, c]
        mixed = np.einsum("efc,jcrv->jefrv", u, got) % p
        mixed = np.einsum("gij,jefrv->geifrv", v, mixed) % p
        built = [c @ X % p for c in _defining_modp(system, p, root)]
        built = np.array(built).reshape(n, n, n, n, -1, 3)  # e0 e1 f0 f1
        assert (mixed == built).all(), root


@pytest.mark.parametrize("h,k,l", [(tao(), 1, 1), (fourier(4), 1, 2),
                                   (fourier(3), 0, 3)],
                         ids=["tao-1-1", "fourier(4)-1-2", "fourier(3)-0-3"])
def test_hom_residuals_run_one_chain_pair_per_start_column(
        monkeypatch, h, k, l):
    """residuals_modp yields n blocks per embedding from 2n chain calls,
    one pair per start column j, all end columns c at once."""
    calls = []
    chain_apply = quantum._chain_apply

    def counted(*args):
        calls.append(args[1])
        return chain_apply(*args)

    monkeypatch.setattr(quantum, "_chain_apply", counted)
    system = _HomSystem(h, k, l)
    p = _first_prime(system)
    X = np.ones((system.ncols, 2), dtype=np.int64)
    for root in embedding_roots(p, h.level)[:2]:
        calls.clear()
        blocks = list(system.residuals_modp(p, root, X))
        assert len(blocks) == h.n
        assert all(b.shape == (h.n * system.ncols, 2) for b in blocks)
        assert sorted(calls) == sorted([k, l] * h.n)


def _python_stream_chunk(system, p, root, j, c):
    """The chunk C_jc modulo p, entry by entry in Python integers.

    C_jc[(I, J), (I', J')] = s1 delta_II' C1[J', J] - s2 C2[I, I'] delta_JJ'
    for the chains C1, C2 of k and l steps that start at H_.j conj(H_.j),
    end at conj(H_.c) H_.c and are delta_jc at zero steps."""
    h, n, level = system.h, system.n, system.level
    rp = [pow(root, t, p) for t in range(level)]
    H = [[rp[e % level] for e in row] for row in h.exponents.tolist()]
    Hc = [[rp[-e % level] for e in row] for row in h.exponents.tolist()]
    G = {(i, a, jj, b): sum(H[i][x] * Hc[jj][x] * Hc[a][x] * H[b][x]
                            for x in range(n)) % p
         for i, a, jj, b in itertools.product(range(n), repeat=4)}

    def chain(M, B):
        if not M:
            return int(j == c)
        v = H[M[0]][j] * Hc[B[0]][j]
        for t in range(1, len(M)):
            v = v * G[M[t], M[t - 1], B[t], B[t - 1]] % p
        return v * Hc[M[-1]][c] * H[B[-1]][c] % p

    s1, s2 = pow(n, system.s1_pow, p), pow(n, system.s2_pow, p)
    legs_k = list(itertools.product(range(n), repeat=system.k))
    legs_l = list(itertools.product(range(n), repeat=system.l))
    return [[(s1 * (I == I2) * chain(J2, J) - s2 * chain(I, I2) * (J == J2))
             % p for I2 in legs_l for J2 in legs_k]
            for I in legs_l for J in legs_k]


@pytest.mark.parametrize("h,k,l", [(fourier(3), 0, 3), (tao(), 1, 1),
                                   (tao(), 0, 2)],
                         ids=["fourier(3)-0-3", "tao-1-1", "tao-0-2"])
def test_hom_rows_and_residuals_near_the_float64_bound(h, k, l):
    """At the largest prime of the system's pool, with X = p - 1 in every
    entry of one column and just below p in the other, the float64 chain
    sums come closest to 2^53.  The rows and the residuals equal the
    chunks C_jc built in Python integers, and C_jc @ X there.  The G of a
    Fourier matrix holds only 0 and n; tao at (0, 2) takes a chain step
    through residues of every size."""
    system = _HomSystem(h, k, l)
    p = _first_prime(system)
    X = np.full((system.ncols, 2), p - 1, dtype=np.int64)
    X[:, 1] -= np.random.default_rng([h.n, k, l]).integers(0, 1 << 10,
                                                             system.ncols)
    cols = X.T.tolist()
    for root in embedding_roots(p, h.level):
        chunks = list(system.chunks_modp(p, root))
        blocks = list(system.residuals_modp(p, root, X))
        for (j, c), chunk in zip(itertools.product(range(h.n), repeat=2),
                                 chunks):
            want = _python_stream_chunk(system, p, root, j, c)
            assert chunk.dtype == np.int64
            assert chunk.tolist() == want, (root, j, c)
            got = blocks[j].reshape(h.n, system.ncols, 2)[c]
            assert got.tolist() == [
                [sum(a * x for a, x in zip(row, col)) % p for col in cols]
                for row in want], (root, j, c)


FIX_RESIDUAL_MAGICS = [(name, magic_from_hadamard(h)) for name, h in [
    ("F2", fourier(2)), ("F3", fourier(3)), ("F4", fourier(4)),
    ("F5", fourier(5)), ("tao", tao()), ("haagerup", haagerup(Fraction(1, 4))),
    ("F2xF2", tensor(fourier(2), fourier(2))), ("f4q", f4q(Fraction(1, 8))),
]]
# A dense grid of 16 x 16 blocks over n = 2, not magic: at k = 2 and 3 one
# float64 sum over its whole bond would pass 2^53, so a site must split the
# bond into groups.
FIX_RESIDUAL_MAGICS.append(("dense-grid", MagicUnitary(
    level=1,
    coeffs=np.random.default_rng(4).integers(-3, 0, (2, 2, 16, 16, 1)))))
FIX_RESIDUAL_CASES = [
    (u, k, name) for name, u in FIX_RESIDUAL_MAGICS for k in (1, 2, 3)
] + [(magic_from_hadamard(f6_two_three(Fraction(1, 5), Fraction(2, 7))), 1,
      "level210")]


def _full_fix_modp(u, k, p, root):
    """The full Fix rows (I, a, b) modulo p, shaped (n^k, d, d, n^k).

    Row (I, a, b) is (Q_{i_1 j_1} ... Q_{i_k j_k})_{ab} - den^k at J = I
    and a = b, for Q = den * P mod p, from the chain S of the blocks.
    With p None they are the complex rows of P, with 1 at J = I.
    """
    n, d = u.n, u.dim
    q, corr = (u.blocks, 1) if p is None else (u.modp(p, root),
                                               pow(u.den, k, p))
    nsuf = n ** (k - 1)
    suf = np.arange(nsuf)
    out = []
    for i1 in range(n):
        S = q[i1].transpose(1, 0, 2)[None, ...]  # (I', a, J, c)
        for _ in range(1, k):
            S = np.einsum("IaJc,ijcb->IiaJjb", S, q)
            if p is not None:
                S %= p
            S = S.reshape(S.shape[0] * n, d, S.shape[3] * n, d)
        V = np.ascontiguousarray(S.transpose(0, 1, 3, 2))
        for a in range(d):
            V[suf, a, a, i1 * nsuf + suf] -= corr
        out.append(V if p is None else V % p)
    return np.concatenate(out)


@pytest.mark.parametrize(
    "u,k", [case[:2] for case in FIX_RESIDUAL_CASES],
    ids=[f"{name}-{k}" for _, k, name in FIX_RESIDUAL_CASES])
def test_fix_residuals_equal_built_chunks(u, k):
    """Site-by-site residuals equal A @ X over the full Fix rows, built
    here from the block chain, for X near p, where the float64 sums come
    closest to 2^53.  The stream's rows @ X are the sums over a of the
    rows (I, a, a) @ X for a magic unitary, and the full rows @ X for the
    dense grid, which is not one."""
    system = _FixSystem(u, k)
    assert system.traced == check_magic(u).ok
    p = _first_prime(system)
    X = p - 1 - np.random.default_rng([u.n, u.dim, k]).integers(
        0, 1 << 10, (system.ncols, 3))
    for root in embedding_roots(p, system.level):
        full = _full_fix_modp(u, k, p, root)
        built = full.reshape(-1, system.ncols) @ X % p
        got = np.vstack(list(system.residuals_modp(p, root, X)))
        assert got.shape == built.shape
        assert (got == built).all(), root
        stream = np.vstack([c @ X % p for c in system.chunks_modp(p, root)])
        if system.traced:
            traced = np.trace(full, axis1=1, axis2=2) % p @ X % p
            assert (stream == traced).all(), root
        else:
            assert (stream == built).all(), root


FIX_FLOAT_MAGICS = [
    ("fourier(4)", magic_from_hadamard(Hadamard(entries=fourier(4).entries))),
    ("tao", magic_from_hadamard(Hadamard(entries=tao().entries))),
    ("pauli", pauli_magic(su2_sample(0))),
]


@pytest.mark.parametrize(
    "u,k", [(u, k) for _, u in FIX_FLOAT_MAGICS for k in (1, 2, 3)],
    ids=[f"{name}-{k}" for name, _ in FIX_FLOAT_MAGICS for k in (1, 2, 3)])
def test_fix_float_rows_equal_built_chunks(u, k):
    """The float stream has one chunk of n^(k-1) d^2 rows per i_1, and
    the chunks stacked are the full complex Fix rows."""
    system = _FixSystem(u, k)
    assert system.coeff_l1_bound is None
    chunks = list(system.chunks_complex())
    shape = (u.n ** (k - 1) * u.dim ** 2, system.ncols)
    assert [c.shape for c in chunks] == [shape] * u.n
    full = _full_fix_modp(u, k, None, None).reshape(-1, system.ncols)
    assert np.abs(np.vstack(chunks) - full).max() <= 1e-12


def test_magic_unitary_rejects_a_zero_denominator():
    """den = 0 is refused; a negative den is a valid scale of the grid."""
    u = permutation_magic([1, 0, 2])
    with pytest.raises(MalformedMatrix, match="den != 0"):
        MagicUnitary(level=1, coeffs=0 * u.coeffs, den=0)
    neg = MagicUnitary(level=1, coeffs=-u.coeffs, den=-1)
    assert check_magic(neg).ok
    assert fix_dim_direct(neg, 1) == 2


def test_magic_unitary_takes_exactly_one_form():
    """A grid is given by its blocks or by (coeffs, level, den), never by
    both and never by neither."""
    u = permutation_magic([1, 0, 2])
    for kwargs in ({}, {"level": 1, "den": 1},
                   {"blocks": u.blocks, "coeffs": u.coeffs},
                   {"blocks": u.blocks, "level": 1, "coeffs": u.coeffs},
                   {"blocks": u.blocks, "level": 1}):
        with pytest.raises(MalformedMatrix, match="exactly one"):
            MagicUnitary(**kwargs)


@pytest.mark.parametrize("u,grid", [
    (magic_from_hadamard(tao()),
     magic_from_hadamard(Hadamard(entries=tao().entries)).blocks),
    (permutation_magic([2, 0, 3, 1]), np.eye(4)[:, [2, 0, 3, 1], None, None]),
], ids=["tao", "perm"])
def test_exact_blocks_are_the_evaluated_coefficients(u, grid):
    """An exact grid's blocks are its coefficients at e^(2 pi i / l) over
    den, bit for bit, computed once, and they are the grid: the float
    projections xi xi^* / n for tao, the permutation matrix for perm."""
    zeta = np.exp(2j * np.pi * np.arange(u.level) / u.level)
    assert u.blocks.dtype == np.complex128
    assert np.array_equal(u.blocks, u.coeffs @ zeta / u.den)
    assert u.blocks is u.blocks
    assert np.abs(u.blocks - grid).max() < 1e-12


def test_entry_points_check_the_hadamard_once_at_their_tol(monkeypatch):
    """A float F4 with entry (1, 1) rotated by 1e-8 rad is Hadamard at
    tol = 1e-6 and not at the default tol.  Every entry point called at
    1e-6 accepts it, and each call checks its input once."""
    ent = fourier(4).entries.copy()
    ent[1, 1] *= np.exp(1e-8j)
    h = Hadamard(entries=ent)
    assert h.verify(1e-6) and not h.verify()
    calls = []
    check = Hadamard.failing_pair

    def counted(self, *args, **kwargs):
        calls.append(self)
        return check(self, *args, **kwargs)

    monkeypatch.setattr(Hadamard, "failing_pair", counted)
    for run, want in [
        (lambda: invariants(h, 3, "both", tol=1e-6).values, (1, 1, 4, 16)),
        (lambda: hom_dim_via_g(h, 0, 2, tol=1e-6), 4),
        (lambda: fix_dim_direct(h, 2, tol=1e-6), 4),
        (lambda: image_commutative(h, tol=1e-6), True),
        (lambda: invariants(fourier(4), 3, "both").values, (1, 1, 4, 16)),
    ]:
        calls.clear()
        assert run() == want
        assert len(calls) == 1
    with pytest.raises(NotHadamard):
        magic_from_hadamard(h)
    with pytest.raises(NotHadamard):
        g_tensor(h)


def _doubled(u):
    """u with den and every coefficient doubled: Q = den * P doubles, so a
    rank-one block no longer has Q[0, 0] = 1."""
    return MagicUnitary(level=u.level, coeffs=2 * u.coeffs, den=2 * u.den)


TRACE_FORM_MAGICS = [(h.provenance, magic_from_hadamard(h)) for h in (
    fourier(4), tao(), haagerup(Fraction(1, 4)), f4q(Fraction(1, 8)))] + [
    ("fourier(4)-den8", _doubled(magic_from_hadamard(fourier(4)))),
    # blocks of a permutation are zero or one
    ("perm", permutation_magic([2, 0, 3, 1])),
]


@pytest.mark.parametrize("u", [u for _, u in TRACE_FORM_MAGICS],
                         ids=[name for name, _ in TRACE_FORM_MAGICS])
def test_trace_rows_closed_form_equals_traced_chain(u):
    """At k = 3 the rank-one closed form, cyclic products of scalar Gram
    entries, equals the full Fix rows built here from the chain of the
    d x d blocks and traced over a = b, entry by entry at every
    embedding."""
    system = _FixSystem(u, 3)
    assert system.traced
    p = _first_prime(system)
    for root in embedding_roots(p, system.level):
        assert quantum._rank_one_factors(u.modp(p, root), p) is not None
        rows = np.vstack(list(system.chunks_modp(p, root)))
        full = _full_fix_modp(u, 3, p, root)
        chain = np.trace(full, axis1=1, axis2=2) % p
        assert rows.dtype == np.int64
        assert chain.shape == rows.shape == (system.ncols, system.ncols)
        assert (chain == rows).all(), root


def _rank_two_magic():
    """magic(F4) (+) magic(F2 x F2): n = 4, d = 8, den 4, level 4, and
    every block has rank two.  The level-2 coefficients move from zeta_2^t
    to zeta_4^(2t)."""
    a = magic_from_hadamard(fourier(4))
    b = magic_from_hadamard(tensor(fourier(2), fourier(2)))
    assert (a.den, a.level, b.den, b.level) == (4, 4, 4, 2)
    coeffs = np.zeros((4, 4, 8, 8, 4), dtype=np.int64)
    coeffs[:, :, :4, :4] = a.coeffs
    coeffs[:, :, 4:, 4:, ::2] = b.coeffs
    return MagicUnitary(level=4, coeffs=coeffs, den=4,
                        provenance="magic(F4)+magic(F2xF2)")


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rank_two_magic_streams_the_full_rows(k):
    """Blocks of rank two are not flat: the grid is exactly magic, yet it
    streams the full rows, n^(k-1) d^2 rows per chunk, and certifies what
    the float route finds on the same blocks."""
    u = _rank_two_magic()
    assert check_magic(u).ok
    system = _FixSystem(u, k)
    assert system.traced
    p = _first_prime(system)
    for root in embedding_roots(p, u.level):
        assert quantum._rank_one_factors(u.modp(p, root), p) is None
        chunks = list(system.chunks_modp(p, root))
        assert [c.shape for c in chunks] == [(4 ** (k - 1) * 64, 4 ** k)] * 4
    cert = certified_nullity(system)
    assert len(cert.basis) == cert.dim >= 1
    assert cert.dim == fix_dim_direct(MagicUnitary(u.blocks), k)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_non_magic_exact_input_keeps_the_full_rows(k):
    """An exact grid that fails check_magic streams all n^k d^2 full rows,
    reduced into [0, p), and certifies full rank, as the full rows always
    did."""
    u = magic_from_hadamard(fourier(5))
    coeffs = u.coeffs.copy()
    coeffs[0, 1, 2, 3, 0] += 1
    bad = MagicUnitary(level=5, coeffs=coeffs, den=u.den)
    system = _FixSystem(bad, k)
    assert not system.traced
    p = _first_prime(system)
    for root in embedding_roots(p, 5):
        chunks = list(system.chunks_modp(p, root))
        assert sum(c.shape[0] for c in chunks) == 5 ** k * 25
        assert all(((0 <= c) & (c < p)).all() for c in chunks), root
    cert = certified_nullity(system)
    assert (cert.dim, cert.tags) == (0, ["full-rank"])


@pytest.mark.parametrize("h", [fourier(4), tao()],
                         ids=lambda h: h.provenance)
def test_exact_magic_check_runs_once_per_grid(monkeypatch, h):
    """The Fix systems of every k read one exact check_magic verdict."""
    calls = []

    def counted(u, *args, **kwargs):
        calls.append(u)
        return check_magic(u, *args, **kwargs)

    monkeypatch.setattr(quantum, "check_magic", counted)
    invariants(h, 3, "direct")
    assert len(calls) == 1 and calls[0].is_exact


def _rref(chunks, ncols, p):
    """Finalized RREF of the stacked chunks."""
    rref = ModRREF(ncols, p)
    rref.process(np.vstack(list(chunks)))
    rref.finalize()
    return rref


HOM_STREAM_EXACT = [
    (fourier(2), 0, 2), (fourier(2), 1, 2), (fourier(2), 2, 2),
    (fourier(3), 0, 2), (fourier(3), 1, 1), (fourier(3), 1, 2),
    (fourier(4), 0, 2), (fourier(4), 0, 3), (fourier(4), 2, 0),
    (tao(), 0, 2), (tao(), 1, 1),
    (haagerup(Fraction(1, 4)), 0, 2), (haagerup(Fraction(1, 4)), 1, 1),
    (f6_two_three(Fraction(1, 5), Fraction(2, 7)), 0, 1),
]

# (matrix, largest k + l): at order 6 and k + l = 3 the oracle's own SVD of
# 279 936 x 216 rows takes about 16 s per (k, l) on a 2-core machine
HOM_STREAM_FLOAT = [
    (random_equivalent(Hadamard(entries=fourier(5).entries), 3), 3),
    (f4q(complex(np.exp(2j * np.pi / 7))), 3),
    (Hadamard(entries=tao().entries), 2),
    (haagerup(complex(np.exp(0.26j * np.pi))), 2),
]


@pytest.mark.parametrize(
    "h,k,l", HOM_STREAM_EXACT,
    ids=[f"{h.provenance}-{k}-{l}" for h, k, l in HOM_STREAM_EXACT])
def test_hom_stream_spans_defining_system(h, k, l):
    """The stream's n^2 chunks of ncols rows have the row space of the n^4
    defining chunks."""
    system = _HomSystem(h, k, l)
    n, level = h.n, h.level
    p = _first_prime(system)
    for root in embedding_roots(p, level):
        chunks = list(system.chunks_modp(p, root))
        assert [c.shape for c in chunks] == [(system.ncols,) * 2] * n * n
        got = _rref(chunks, system.ncols, p)
        want = _rref(_defining_modp(system, p, root), system.ncols, p)
        assert got.piv == want.piv, root
        assert (got.R == want.R).all(), root


@pytest.mark.parametrize(
    "h,top", HOM_STREAM_FLOAT,
    ids=["fourier(5)-moved", "f4q(1/7)", "tao-float", "haagerup-float"])
def test_hom_stream_keeps_singular_values(h, top):
    """Over C the stacked stream has the defining system's singular values."""
    n = h.n
    for k in range(top + 1):
        for l in range(top + 1 - k):
            system = _HomSystem(h, k, l)
            got = np.vstack(list(system.chunks_complex()))
            want = np.vstack(list(_defining_chunks(
                g_tensor(h), n, k, l, n ** (k + 1),
                n ** (l + 1))))
            assert got.shape == (n * n * n ** (k + l), system.ncols)
            sv_got = np.linalg.svd(got, compute_uv=False)
            sv_want = np.linalg.svd(want, compute_uv=False)
            assert np.abs(sv_got - sv_want).max() <= 1e-12 * sv_want[0], \
                (k, l)

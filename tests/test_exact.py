"""Soundness of the certified engine's exact verification.

A residual entry r of A·x is an algebraic integer with |sigma(r)| <= B_1 =
ncols * coeff_l1_bound * max ||x_j||_1 at every embedding.  Verification
checks r at every embedding modulo primes whose product must exceed B_1;
these stubs sit on that boundary and on a single vanishing embedding.
The evaluation of the vectors must itself be exact, and the residuals of
both systems, contracted without building a row, must reject a basis that
is off by one coefficient.  The prime loop must outvote a prime that moves a
pivot.

A lift must take as many primes as its reconstruction needs, folding each
into its CRT residue once, and must keep int64 vectors where every entry
fits and Python integers where one does not.  The pool's four-base
primality test and the level-2 root shortcut must give the primes and
roots of the twelve-base test and the plain search.  The certified inverse of an integer matrix
is read from the certified nullspace of [G | I]: it must skip a prime
that divides the determinant and must not accept a reconstruction that
fails verification; Fraction Gauss-Jordan is its oracle.  The streaming
RREF modulo a prime must give the pivots and rows of Python-integer
Gauss-Jordan, however its rows are chunked, on dense streams that take
one new row per round, and however close its sums of residue products
come to 2^53; the float64 reduction under it must agree with
Python-integer % up to its bound.
"""

import hashlib
import json
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

import qperm._exact as _exact
from qperm._exact import (
    ModRREF,
    _eval_vectors_mod,
    _l1_max,
    _verify_basis,
    _wang,
    certified_inverse,
    certified_nullity,
    crt_combine,
    embedding_roots,
    float_nullity,
    fraction_matrix_inverse,
    is_prime,
    matmul_mod,
    prime_pool,
    reduce_mod,
    solve_mod_vandermonde,
    unity_root_mod,
    zero_test_primes,
)
from qperm.errors import RankAmbiguous
from qperm.hadamard import f6_two_three, fourier, tao
from qperm.quantum import (
    _FixSystem,
    _HomSystem,
    fix_dim_direct,
    hom_dim_via_g,
    magic_from_hadamard,
)


class _OneEntry:
    """A 1 x 1 system whose only entry has the given coefficients."""

    ncols = 1

    def __init__(self, coeffs, coeff_l1_bound):
        self.coeffs = coeffs
        self.level = len(coeffs)
        self.coeff_l1_bound = coeff_l1_bound

    def _modp(self, p, root):
        value = sum(c * pow(root, e, p) for e, c in enumerate(self.coeffs))
        return np.array([[value % p]], dtype=np.int64)

    def chunks_modp(self, p, root):
        yield self._modp(p, root)

    def residuals_modp(self, p, root, X):
        yield self._modp(p, root) @ X % p


class _IntegerRows:
    """A level-1 system with the given integer rows."""

    level = 1

    def __init__(self, rows):
        self.rows = np.array(rows, dtype=object)
        self.ncols = self.rows.shape[1]
        self.coeff_l1_bound = int(np.abs(self.rows).max())

    def chunks_modp(self, p, root):
        yield (self.rows % p).astype(np.int64)

    def residuals_modp(self, p, root, X):
        yield (self.rows % p).astype(np.int64) @ X % p


def _verify(entry, coeff_l1_bound):
    system = _OneEntry(entry, coeff_l1_bound)
    one = np.zeros((1, system.level), dtype=object)
    one[0, 0] = 1
    tags = []
    return _verify_basis(system, [one], tags), tags


def test_prime_product_must_exceed_the_bound():
    p1 = next(prime_pool(5, 1))
    # r = p1 vanishes at every embedding mod p1, and B_1 = p1 exactly.
    ok, tags = _verify([p1, 0, 0, 0, 0], p1)
    assert [p for p, _ in zero_test_primes(5, 1, p1)][0] == p1
    assert tags == ["verify-primes=2"]
    assert not ok


def test_one_vanishing_embedding_is_rejected():
    p1 = next(prime_pool(5, 1))
    c = unity_root_mod(p1, 5)
    # zeta_5 - c vanishes at zeta -> c mod p1 and at no other embedding.
    entry = [-c, 1, 0, 0, 0]
    assert next(_OneEntry(entry, 1 + c).chunks_modp(p1, c))[0, 0] == 0
    ok, _ = _verify(entry, 1 + c)
    assert not ok


def test_a_true_zero_is_accepted():
    ok, tags = _verify([1, 1, 1, 1, 1], 5)
    assert ok
    assert tags == ["verify-primes=1"]


def test_level_210_verifies_with_one_prime():
    h = f6_two_three(Fraction(1, 5), Fraction(2, 7))
    assert h.level == 210
    dim, info = fix_dim_direct(h, 1, return_info=True)
    assert dim == 1
    constant = np.zeros((6, 210), dtype=object)
    constant[:, 0] = 1
    assert [b.tolist() for b in info["basis"]] == [constant.tolist()]
    assert info["tags"] == ["verify-primes=1", "lift-primes=1"]


def test_a_prime_that_moves_a_pivot_is_outvoted():
    # Modulo the first pool prime p0 the row [p0, 1] reads [0, 1]: its
    # pivot moves to column 1 and the lift (1, 0) fails verification.
    # Every other prime has the earlier pivot, column 0.
    p0 = next(prime_pool(1, 2))
    cert = certified_nullity(_IntegerRows([[p0, 1]]))
    assert cert.dim == 1
    assert [b.tolist() for b in cert.basis] == [[[-1], [p0]]]


def test_a_lift_takes_as_many_primes_as_reconstruction_needs():
    # r/q reconstructs only from a modulus above 2 q^2, about 2^181:
    # eight primes below 2^26.
    q, r = 2 ** 90 + 1, 2 ** 89 + 1
    cert = certified_nullity(_IntegerRows([[q, r]]))
    assert cert.dim == 1
    assert [b.tolist() for b in cert.basis] == [[[-r], [q]]]
    assert cert.basis[0].dtype == object
    assert cert.tags == ["verify-primes=4", "verify-primes=6",
                         "verify-primes=7", "verify-primes=8",
                         "lift-primes=8"]


def test_a_lift_folds_each_prime_once(monkeypatch):
    """The running CRT residue takes one Vandermonde solve per kept prime:
    8 for the eight primes above, where re-lifting from every kept prime
    would take 1 + 2 + ... + 8 = 36."""
    calls = []

    def counted(points, rhs, p):
        calls.append(p)
        return solve_mod_vandermonde(points, rhs, p)

    monkeypatch.setattr(_exact, "solve_mod_vandermonde", counted)
    q, r = 2 ** 90 + 1, 2 ** 89 + 1
    cert = certified_nullity(_IntegerRows([[q, r]]))
    assert cert.tags[-1] == "lift-primes=8"
    assert calls == list(islice(prime_pool(1, 2), 8))


# sha256 of the JSON of [v.tolist() for v in basis], as the parent of the
# int64 bases computed them with Python-integer vectors
F4_K4_BASIS_SHA256 = (
    "ffad8c339848a4611e96681652d6b078b4ad2cb7894bbc6ebf039b5ee4a01e31")


def test_f4_certificates_keep_their_vectors_in_int64():
    """The Fix certificate of F4 at k = 4 and the Hom (0, 4) certificate of
    its prime loop hold int64 vectors with the entries they held as Python
    integers."""
    h = fourier(4)
    for dim, info in (fix_dim_direct(h, 4, return_info=True),
                      hom_dim_via_g(h, 0, 4, return_info=True)):
        assert (dim, info["tags"]) == (64, ["verify-primes=1",
                                            "lift-primes=1"])
        assert {b.dtype for b in info["basis"]} == {np.dtype(np.int64)}
        text = json.dumps([b.tolist() for b in info["basis"]])
        assert hashlib.sha256(text.encode()).hexdigest() == \
            F4_K4_BASIS_SHA256


def test_l1_bound_is_exact_beyond_int64():
    """||x||_1 of int64 vectors is summed without wrapping: four entries of
    2^62 sum to 2^64, and |-2^63| is read as 2^63."""
    X = np.full((2, 3, 4), 1 << 62, dtype=np.int64)
    X[1, 2, 1] = -(1 << 63)
    assert _l1_max(X) == 3 * (1 << 62) + (1 << 63)
    X[1, 2, 1] = 1
    assert _l1_max(X) == 1 << 64
    assert _l1_max(X.astype(object) << 10) == 1 << 74
    assert _l1_max(np.array([[[3, -4, 0]]])) == 7


@pytest.mark.parametrize("level", [1, 4, 5, 210])
def test_vandermonde_solve_inverts_the_embedding_matrix(level):
    """At phi(l) embedding roots modulo the largest pool prime (phi(210) =
    48), V c = rhs holds in Python integers for the int64 solution."""
    p = next(prime_pool(level, 1))
    roots = embedding_roots(p, level)
    rhs = np.random.default_rng(level).integers(0, p, (len(roots), 7))
    got = solve_mod_vandermonde(roots, rhs, p)
    assert got.dtype == np.int64 and got.shape == rhs.shape
    assert ((0 <= got) & (got < p)).all()
    for x, row in zip(roots, rhs.tolist()):
        for col, want in enumerate(row):
            assert sum(int(c) * pow(x, e, p) for e, c in
                       enumerate(got[:, col])) % p == want


def test_first_crt_fold_keeps_the_residues():
    res = np.array([3, 0, 5], dtype=np.int64)
    got, modulus = crt_combine(0, 1, res, 7)
    assert got is res and modulus == 7
    got, modulus = crt_combine(got, 7, np.array([1, 2, 10]), 11)
    assert modulus == 77 and got.tolist() == [45, 35, 54]


def test_eval_vectors_is_exact_for_large_coefficients():
    # level * (p - 1)^2 exceeds 2^53 here, so a float64 dot product of
    # the reduced coefficients would round.
    level, p = 210, 15602371
    r = unity_root_mod(p, level)
    rng = np.random.default_rng(210)
    vectors = rng.integers(-(1 << 40), 1 << 40, size=(3, 36, level))
    vectors = vectors.astype(object)
    got = _eval_vectors_mod(vectors, p, r, level)
    for v in range(3):
        for c in range(36):
            expect = sum(int(x) * pow(r, e, p)
                         for e, x in enumerate(vectors[v, c])) % p
            assert got[v, c] == expect


@pytest.mark.parametrize("dtype,width", [(np.float64, 1), (np.float64, 64),
                                         (np.int64, 1)])
def test_matmul_mod_matches_python_products(dtype, width):
    """Residues at and just below p - 1, at the leading pool prime of a
    width, summed over at least three partial sums: equal to the
    Python-integer product modulo p, in the operands' dtype, for a matrix
    product, a batched one shaped like the G steps of _chain_apply
    (batch (a, m_t) against (m_t, b_t+1)) and a 1-D right operand like the
    powers of a root in _eval_vectors_mod."""
    p = next(prime_pool(1, width))
    top = (1 << 53) - 3 * p if dtype is np.float64 else (1 << 63) - p
    step = top // (p - 1) ** 2
    m = 3 * step + 2
    rng = np.random.default_rng([width, m])
    for shape_a, shape_b in [((2, m), (m, 3)),
                             ((3, 2, 2, m), (2, 3, 2, m, 2)),
                             ((2, 3, m), (m,))]:
        a = p - 1 - rng.integers(0, 3, shape_a)
        b = p - 1 - rng.integers(0, 3, shape_b)
        expect = a.astype(object) @ b.astype(object) % p
        got = matmul_mod(a.astype(dtype), b.astype(dtype), p)
        assert got.dtype == dtype and got.shape == expect.shape
        assert (got.astype(np.int64) == expect.astype(np.int64)).all(), (
            shape_a, shape_b)


@pytest.mark.parametrize("diag", [[1.0, 5e-9, 0.0], [1.0, 5e-9]],
                         ids=["nullity-1", "nullity-0"])
def test_float_nullity_quotes_the_ratio_that_failed(diag):
    """A kept singular value 5 times the threshold is too close to it,
    with or without a dropped value, and the message says 5.00."""
    with pytest.raises(RankAmbiguous, match=r" 5\.00 times the threshold"):
        float_nullity([np.diag(diag)], len(diag))


PERTURBED_CASES = [
    (h, _HomSystem(h, 0, 2)) for h in (fourier(4), tao(), fourier(5))
] + [(h, _FixSystem(magic_from_hadamard(h), 2)) for h in (fourier(4), tao())
] + [(h, _HomSystem(h, k, l)) for h, k, l in ((tao(), 1, 1),
                                              (fourier(4), 1, 2))]


def _perturbed_id(h, system):
    if isinstance(system, _FixSystem):
        return "fix-" + h.provenance
    if system.k:
        return f"hom-{system.k}-{system.l}-{h.provenance}"
    return h.provenance


@pytest.mark.parametrize(
    "h,system", PERTURBED_CASES,
    ids=[_perturbed_id(h, system) for h, system in PERTURBED_CASES])
def test_hom_verification_rejects_a_perturbed_basis(h, system):
    """The contracted residuals of either system reject a basis off by
    one coefficient, and the candidates fall back to the prime loop.  A
    Hom system with k > 0 takes its own basis, so that the transposed
    chain T·K1 is exercised."""
    if isinstance(system, _HomSystem) and system.k:
        dim, info = hom_dim_via_g(h, system.k, system.l, return_info=True)
    else:
        dim, info = fix_dim_direct(h, 2, return_info=True)
    basis = info["basis"]
    bad = [b.copy() for b in basis]
    bad[0][0, 0] += 1
    assert _verify_basis(system, basis, [])
    assert not _verify_basis(system, bad, [])
    cert = certified_nullity(system, candidates=bad)
    assert cert.dim == dim
    assert "candidates-fallback" in cert.tags


def _first_inverse_prime(m):
    """The first prime certified_inverse tries for an m x m matrix."""
    return next(prime_pool(1, 2 * m))


def test_inverse_is_not_accepted_from_a_wrong_reconstruction():
    """1/D needs a modulus above 2D: the first prime reconstructs a wrong
    fraction, which only exact verification rejects."""
    d = 10 ** 15 + 1
    p0 = _first_inverse_prime(1)
    wrong = _wang(pow(d, -1, p0), p0)
    assert wrong is not None and Fraction(*wrong) != Fraction(1, d)
    assert certified_inverse([[d]]) == [[Fraction(1, d)]]


def test_inverse_needs_several_primes_when_reconstruction_fails():
    g = [[10 ** 9 + 7, 3, 5], [2, 10 ** 8 + 1, 7], [11, 13, 10 ** 7 + 19]]
    p0 = _first_inverse_prime(3)
    w = fraction_matrix_inverse(g)
    residues = [x.numerator * pow(x.denominator, -1, p0) for r in w for x in r]
    assert None in [_wang(u, p0) for u in residues]
    assert certified_inverse(g) == w


def test_inverse_skips_a_prime_dividing_the_determinant():
    p0 = _first_inverse_prime(2)
    g = [[p0 + 3, 1], [3, 1]]  # det = p0
    assert fraction_matrix_inverse(g) == certified_inverse(g)
    assert certified_inverse(g)[0][0].denominator == p0


@pytest.mark.parametrize("seed", range(5))
def test_inverse_matches_fraction_inverse(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 7))
    g = rng.integers(-10 ** 6, 10 ** 6, size=(m, m)).tolist()
    assert certified_inverse(g) == fraction_matrix_inverse(g)


def test_inverse_of_singular_and_empty_matrices():
    with pytest.raises(ValueError):
        certified_inverse([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        certified_inverse([[0, 0], [0, 0]])
    assert certified_inverse([]) == []


def _rref_mod(rows, ncols, p):
    """Pivots and rows of the reduced row echelon form mod p, by
    Gauss-Jordan over Python integers."""
    m = [[int(x) % p for x in row] for row in rows]
    piv = []
    for c in range(ncols):
        r = len(piv)
        hit = next((i for i in range(r, len(m)) if m[i][c]), None)
        if hit is None:
            continue
        m[r], m[hit] = m[hit], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        piv.append(c)
    return piv, m[:len(piv)]


def _stream(rng, p):
    """Rows of a random block stream mod p: dense of full or deficient
    rank, with zero and duplicate rows mixed in."""
    ncols = int(rng.integers(1, 13))
    rank = int(rng.integers(0, ncols + 1))
    basis = rng.integers(0, p, (rank, ncols))
    rows = rng.integers(0, p, (int(rng.integers(rank, 3 * ncols + 2)), rank))
    rows = rows @ basis % p if rank else np.zeros((len(rows), ncols), int)
    extra = [np.zeros((int(rng.integers(0, 3)), ncols), dtype=rows.dtype)]
    if len(rows):
        extra.append(rows[rng.integers(0, len(rows), int(rng.integers(0, 4)))])
    rows = np.concatenate([rows] + extra)
    return ncols, rows[rng.permutation(len(rows))]


def _chunks(rng, rows):
    cuts = np.sort(rng.integers(0, len(rows) + 1, int(rng.integers(0, 4))))
    return np.split(rows, cuts)


@pytest.mark.parametrize(
    "p", [2, 3, 10007, next(prime_pool(1, 12))])
def test_mod_rref_matches_integer_gauss_jordan(p):
    rng = np.random.default_rng(p)
    for _ in range(13):
        ncols, rows = _stream(rng, p)
        piv, ref = _rref_mod(rows.tolist(), ncols, p)
        for _split in range(2):
            rr = ModRREF(ncols, p)
            for chunk in _chunks(rng, rows):
                rr.process(chunk)
            rr.finalize()
            assert rr.piv == piv
            assert rr.R.shape == (len(piv), ncols)
            assert rr.R.astype(np.int64).tolist() == ref
        if piv:
            target = int(rng.integers(1, len(piv) + 1))
            rr = ModRREF(ncols, p, target_rank=target)
            for chunk in _chunks(rng, rows):
                rr.process(chunk)
            assert rr.saturated and rr.rank >= target
            rr.finalize()
            # its rows are reduced and span part of the row space
            assert _rref_mod(rr.R.tolist(), ncols, p)[0] == rr.piv
            assert _rref_mod(ref + rr.R.tolist(), ncols, p)[0] == piv


@pytest.mark.parametrize("level", [1, 3, 4, 5, 6])
def test_reduce_mod_matches_python_mod(level):
    """Boundary grid up to the precondition |a| <= 2^53 - 2p, random values
    inside it and a grid around multiples of p, at the leading pool primes
    of several widths: equal to Python-integer %, in place, float64."""
    rng = np.random.default_rng(level)
    offsets = np.arange(-3, 4)
    for width in (1, 2, 7, 64, 729, 4096, 46656):
        for p in islice(prime_pool(level, width), 3):
            top = (1 << 53) - 2 * p
            edge = top - np.arange(3000)
            mults = np.concatenate([np.arange(-3, 4), [top // p, -(top // p)],
                                    rng.integers(-(top // p), top // p, 50)])
            near = (mults[:, None] * p + offsets).ravel()
            near = near[np.abs(near) <= top]
            ints = np.concatenate([edge, -edge, near,
                                   rng.integers(-top, top + 1, 2000)])
            a = ints.astype(np.float64)
            assert (a.astype(np.int64) == ints).all()  # exact in float64
            out = reduce_mod(a, p)
            assert out is a and out.dtype == np.float64
            assert out.astype(np.int64).tolist() == [
                int(x) % p for x in ints.tolist()], (level, width, p)


@pytest.mark.parametrize("width", [64, 256])
@pytest.mark.parametrize("deficient", [False, True], ids=["full", "deficient"])
def test_mod_rref_near_the_float64_bound(width, deficient):
    """Dense streams at the first pool prime of their width, with residue
    sums up to about rank (p-1)^2 ~ 2^53 (width - 2) / (width + 1), give
    the pivots and rows of Python-integer Gauss-Jordan."""
    p = next(prime_pool(1, width))
    rng = np.random.default_rng(width + deficient)
    rank = width - 2 if deficient else width - 1
    # a reduced basis [I | F] and extra rows whose entries at the pivot
    # columns, like F, lie just below p, so the first reduction of each
    # extra row sums rank products near (p-1)^2
    basis = np.hstack([np.eye(rank, dtype=np.int64),
                       rng.integers(p - 50, p, (rank, width - rank))])
    coefs = rng.integers(p - 50, p, (24, rank))
    if deficient:
        # combinations of the basis: rank stays, every extra row reduces to 0
        extra = np.array([[sum(int(c) * int(b) for c, b in zip(row, col)) % p
                           for col in basis.T] for row in coefs])
    else:
        # near p - 1 everywhere: outside the row space, full rank is reached
        extra = np.hstack([coefs, rng.integers(p - 50, p, (24, width - rank))])
    peak = max(sum(int(c) * int(f) for c, f in zip(row, col))
               for row in coefs[:4] for col in basis[:, rank:].T)
    assert peak > 0.99 * rank * (p - 1) ** 2
    assert rank * (p - 1) ** 2 > 0.98 * 2 ** 53 * (width - 2) / (width + 1)
    rows = np.vstack([basis, extra])
    piv, ref = _rref_mod(rows.tolist(), width, p)
    assert len(piv) == (rank if deficient else width)
    for chunks in ([rows], [basis, extra[:10], extra[10:]]):
        rr = ModRREF(width, p)
        for chunk in chunks:
            rr.process(chunk)
        rr.finalize()
        assert rr.piv == piv
        assert rr.R.astype(np.int64).tolist() == ref


def _dense_stream(rng, width, rank, p):
    """width + 12 rows mod p of the given rank, every one with lead 0: the
    dense regime, where each round of ModRREF takes one new row."""
    basis = rng.integers(0, p, (rank, width))
    rows = rng.integers(0, p, (width + 12, rank)) @ basis % p
    assert rows[:, 0].all()
    return rows


@pytest.mark.parametrize("width", [48, 160])
@pytest.mark.parametrize("deficient", [False, True], ids=["full", "deficient"])
def test_mod_rref_on_dense_square_streams(width, deficient):
    """Dense streams, whole and in uneven chunks, give the pivots and rows
    of Python-integer Gauss-Jordan; with a target rank they stop there,
    reduced, inside the row space."""
    p = next(prime_pool(1, width))
    rng = np.random.default_rng(3 * width + deficient)
    rank = width - 5 if deficient else width
    rows = _dense_stream(rng, width, rank, p)
    piv, ref = _rref_mod(rows.tolist(), width, p)
    assert piv == list(range(rank))
    cuts = [1, 2, 7, width // 2, width + 3]
    for chunks in ([rows], np.split(rows, cuts)):
        rr = ModRREF(width, p)
        for chunk in chunks:
            rr.process(chunk)
        rr.finalize()
        assert rr.piv == piv
        assert rr.R.astype(np.int64).tolist() == ref
    for target in (1, rank // 3, rank):
        rr = ModRREF(width, p, target_rank=target)
        for chunk in np.split(rows, cuts):
            rr.process(chunk)
        assert rr.saturated and rr.rank == target
        rr.finalize()
        assert _rref_mod(rr.R.tolist(), width, p)[0] == rr.piv
        assert _rref_mod(ref + rr.R.tolist(), width, p)[0] == piv


def _is_prime_twelve_bases(n):
    """Miller-Rabin at all twelve prime bases up to 37, after trial
    division by them."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    return all(_strong_probable_prime(n, a) for a in bases)


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _unity_root_by_search(p, level):
    """The first a^((p-1)/level), a = 2, 3, ..., of order exactly level."""
    if level == 1:
        return 1
    for a in range(2, p):
        r = pow(a, (p - 1) // level, p)
        if all(pow(r, level // q, p) != 1
               for q in range(2, level + 1)
               if level % q == 0 and _is_prime_twelve_bases(q)):
            return r


def test_is_prime_at_the_four_base_boundary():
    """3 215 031 751 is composite and a strong pseudoprime to 2, 3, 5, 7:
    is_prime agrees with all twelve bases on it, its neighbours and the
    leading pool primes."""
    psi4 = 3_215_031_751
    assert psi4 == 151 * 751 * 28351
    assert all(_strong_probable_prime(psi4, a) for a in (2, 3, 5, 7))
    assert not is_prime(psi4)
    near = range(psi4 - 300, psi4 + 301)
    pool = [p for level in (1, 2, 5, 12) for width in (1, 36, 46656)
            for p in islice(prime_pool(level, width), 50)]
    for n in [*near, *pool, *range(1, 2000)]:
        assert is_prime(n) == _is_prime_twelve_bases(n), n


@pytest.mark.parametrize("level", range(1, 13))
def test_prime_lookup_matches_the_twelve_base_search(monkeypatch, level):
    """prime_pool and zero_test_primes, with their embedding roots, are
    those of the twelve-base test and the search over a = 2, 3, ..."""
    def lookups():
        return [(list(islice(prime_pool(level, width), 30)),
                 zero_test_primes(level, width, 10 ** 60),
                 embedding_roots(next(prime_pool(level, width)), level))
                for width in (1, 6, 36, 1296, 46656)]

    got = lookups()
    monkeypatch.setattr(_exact, "is_prime", _is_prime_twelve_bases)
    monkeypatch.setattr(_exact, "unity_root_mod", _unity_root_by_search)
    assert got == lookups()

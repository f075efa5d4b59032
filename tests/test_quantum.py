"""Magic unitaries, Hom-space dimensions and invariant series tests."""

import os
from fractions import Fraction

import numpy as np
import pytest

from qperm._exact import (
    _max_safe_prime,
    _primitive_residues,
    primes_one_mod,
    unity_root_mod,
)
from qperm.errors import BudgetExceeded, NotHadamard
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
from qperm.quantum import (
    _HomSystem,
    check_magic,
    fix_dim_direct,
    g_power,
    g_tensor,
    hom_dim_via_g,
    image_commutative,
    invariants,
    magic_from_hadamard,
    orbit_components,
    permutation_magic,
    poincare_series,
)


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
                    assert gt.values[i, a, j, b] == pytest.approx(expect)


def test_g_power_matches_dense_chain():
    h = tao()
    gt = g_tensor(h)
    n = h.n
    g2 = g_power(gt, 2)
    for i1 in range(n):
        for i2 in range(n):
            for j1 in range(n):
                for j2 in range(n):
                    assert g2[i1 * n + i2, j1 * n + j2] == pytest.approx(
                        gt.values[i2, i1, j2, j1])
    g3 = g_power(gt, 3)
    idx = (1, 0, 2)
    jdx = (2, 2, 1)
    row = idx[0] * n * n + idx[1] * n + idx[2]
    col = jdx[0] * n * n + jdx[1] * n + jdx[2]
    expect = gt.values[idx[1], idx[0], jdx[1], jdx[0]] * \
        gt.values[idx[2], idx[1], jdx[2], jdx[1]]
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
    """Chain-contracted residuals equal chunk @ X over the built stream."""
    system = _HomSystem(h, k, l)
    n, level = h.n, h.level
    p = primes_one_mod(level, min(_max_safe_prime(system.ncols), 1 << 26),
                       1)[0]
    r = unity_root_mod(p, level)
    X = np.random.default_rng([n, k, l]).integers(0, p, (system.ncols, 3))
    for t in _primitive_residues(level):
        root = pow(r, t, p)
        built = [c @ X % p for c in system.chunks_modp(p, root)]
        built = np.array(built).reshape(n, n, n, n, -1, 3)  # e0 e1 f0 f1
        blocks = list(system.residuals_modp(p, root, X))
        assert len(blocks) == n * n
        got = np.array(blocks).reshape(n, n, n, n, -1, 3)  # e0 f0 e1 f1
        assert (got.transpose(0, 2, 1, 3, 4, 5) == built).all(), t

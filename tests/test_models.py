"""Pauli spin model, Klein twist and free hypergeometric moment tests."""

import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from qperm.errors import DegenerateParameter, NotBlockDiagonal, ShapeMismatch
from qperm.models import (
    SpinElement,
    check_so3q_relations,
    free_hg_formula,
    free_hg_oracle,
    klein_fourier,
    model_word_expectation,
    pauli_basis,
    pauli_magic,
    su2_sample,
)
from qperm.partitions import PartitionFamily, integrate_monomial
from qperm.quantum import MagicUnitary, check_magic, permutation_magic


def test_pauli_basis_is_orthogonal():
    basis = pauli_basis()
    assert basis.shape == (4, 2, 2)
    for i in range(4):
        for j in range(4):
            tr = np.trace(basis[i].conj().T @ basis[j])
            assert tr == pytest.approx(2.0 if i == j else 0.0, abs=1e-14)


def test_su2_sample_is_unit_and_deterministic():
    x = su2_sample(42)
    again = su2_sample(42)
    assert x.coeffs == again.coeffs
    assert sum(c * c for c in x.coeffs) == pytest.approx(1.0)
    assert np.allclose(x.matrix @ x.matrix.conj().T, np.eye(2), atol=1e-12)


def test_pauli_magic_residuals():
    worst = 0.0
    for seed in range(100):
        rep = check_magic(pauli_magic(su2_sample(seed)), tol=1e-12)
        assert rep.ok
        worst = max(worst, rep.projection, rep.selfadjoint,
                    rep.row_sums, rep.col_sums)
    assert worst <= 1e-12


def test_pauli_magic_is_sign_invariant():
    x = su2_sample(5)
    minus = SpinElement(tuple(-c for c in x.coeffs))
    assert np.allclose(pauli_magic(x).blocks, pauli_magic(minus).blocks,
                       atol=1e-12)


def test_word_u11_is_exact_quarter():
    est = model_word_expectation([(1, 1)], samples=500, seed=1)
    assert est.value == pytest.approx(0.25, abs=1e-12)
    assert est.stderr == pytest.approx(0.0, abs=1e-12)


def test_word_trace_is_cyclic_product_of_lines():
    """One-sample estimates equal tr(U_{i1 j1} ... U_{ik jk}) / 4 built from
    explicit products of the pauli_magic blocks at the same sample."""
    words = [
        [(3, 2)],
        [(1, 2), (2, 3)],
        [(2, 3), (2, 3)],
        [(1, 1), (1, 2)],
        [(1, 2), (2, 3), (3, 1)],
        [(4, 1), (2, 3), (4, 1), (1, 4)],
        [(1, 2), (2, 3), (3, 4), (4, 2)],
    ]
    for seed in range(8):
        v = np.random.default_rng(seed).standard_normal(4)
        blocks = pauli_magic(SpinElement(tuple(v / np.linalg.norm(v)))).blocks
        for w in words:
            prod = np.eye(4)
            for i, j in w:
                prod = prod @ blocks[i - 1, j - 1]
            want = np.trace(prod).real / 4.0
            got = model_word_expectation(w, 1, seed).value
            assert got == pytest.approx(want, abs=1e-12), (seed, w)
            if w == [(1, 1), (1, 2)]:
                assert abs(want) <= 1e-12 and abs(got) <= 1e-12


def test_row_symmetry_of_single_coordinates():
    for i in range(1, 5):
        for j in range(1, 5):
            est = model_word_expectation([(i, j)], samples=4000, seed=i * j)
            assert abs(est.value - 0.25) <= 3 * est.stderr + 1e-9


def test_words_match_weingarten():
    words = [
        [(1, 1), (2, 2)],
        [(1, 2), (2, 1)],
        [(1, 1), (2, 2), (3, 3)],
        [(1, 1), (1, 1)],
        [(2, 3), (3, 2), (2, 3)],
    ]
    for w in words:
        idx_i = tuple(i for i, _ in w)
        idx_j = tuple(j for _, j in w)
        exact = float(integrate_monomial(PartitionFamily.NONCROSSING, 4,
                                         idx_i, idx_j))
        est = model_word_expectation(w, samples=200_000, seed=99)
        assert abs(est.value - exact) <= 3 * est.stderr + 1e-4, (w, exact)


def test_word_pair_value_is_one_twelfth():
    exact = integrate_monomial(PartitionFamily.NONCROSSING, 4,
                               (1, 2), (1, 2))
    assert exact == Fraction(1, 12)


def test_klein_twist_block_diagonalizes_magics():
    for seed in range(20):
        grid = klein_fourier(pauli_magic(su2_sample(seed)), tol=1e-10)
        rep = check_so3q_relations(grid, tol=1e-10)
        assert rep.ok, (seed, rep)
    for perm in permutations(range(4)):
        grid = klein_fourier(permutation_magic(list(perm)), tol=1e-10)
        rep = check_so3q_relations(grid, tol=1e-10)
        assert rep.ok, (perm, rep)


def test_klein_twist_rejects_non_magic_grid():
    u = pauli_magic(su2_sample(0))
    blocks = u.blocks.copy()
    blocks[0, 0] += 0.05
    fake = MagicUnitary(blocks=blocks)
    with pytest.raises(NotBlockDiagonal):
        klein_fourier(fake, tol=1e-10)


def test_so3q_detects_broken_relations():
    grid = klein_fourier(pauli_magic(su2_sample(3)), tol=1e-10)
    grid = grid.copy()
    grid[0, 0] += 0.01
    rep = check_so3q_relations(grid, tol=1e-10)
    assert not rep.ok


def test_so3q_shape_guard():
    with pytest.raises(ShapeMismatch):
        check_so3q_relations(np.zeros((2, 2, 2, 2)))


def test_free_hg_formula_matches_oracle():
    for n in (3, 4):
        for k in range(6):
            f = free_hg_formula(n, k)
            o = free_hg_oracle(n, n, n * n, k)
            assert abs(f - o) <= 1e-9 * max(abs(o), 1), (n, k)


def test_free_hg_oracle_unit_cases():
    assert free_hg_oracle(3, 3, 9, 0) == 1
    assert free_hg_oracle(3, 3, 9, 1) == 1
    assert free_hg_oracle(1, 1, 5, 1) == Fraction(1, 5)
    assert free_hg_oracle(5, 5, 5, 2) == 25
    assert free_hg_oracle(2, 3, 7, 1) == Fraction(6, 7)


@pytest.mark.parametrize("n,m,N,k", [
    (3, -1, 9, 3), (10, 10, 9, 2), (-2, 3, 9, 1), (3, 10, 9, 1),
    (10, 3, 9, 0)])
def test_free_hg_oracle_rejects_blocks_outside_the_matrix(n, m, N, k):
    with pytest.raises(ValueError):
        free_hg_oracle(n, m, N, k)


def test_free_hg_oracle_empty_and_full_blocks():
    # an empty block sums nothing; each row of a magic unitary sums to 1,
    # so the full N x N block sums to N
    for k in (1, 2, 3):
        assert free_hg_oracle(0, 3, 9, k) == 0
        assert free_hg_oracle(3, 0, 9, k) == 0
        assert free_hg_oracle(9, 9, 9, k) == 9 ** k
    assert free_hg_oracle(0, 0, 9, 0) == 1


def test_free_hg_formula_first_moment_is_one():
    for n in (3, 4, 5, 7):
        assert free_hg_formula(n, 1) == pytest.approx(1.0, abs=1e-12)


def test_free_hg_degenerate_parameter():
    with pytest.raises(DegenerateParameter):
        free_hg_formula(2, 2)

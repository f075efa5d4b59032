"""Partition combinatorics, Gram/Weingarten and moment formula tests."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qperm._exact import fraction_matrix_inverse
from qperm.errors import SingularGram
from qperm.partitions import (
    PartitionFamily,
    SetPartition,
    bell_number,
    catalan_number,
    char_moment,
    clebsch_dim,
    enum_partitions,
    free_bessel_even_moment,
    free_gram_convention,
    gram_det_classical,
    gram_det_exact,
    gram_det_free,
    gram_weingarten,
    integrate_monomial,
    join,
    t_pi_matrix,
    truncated_char_moment,
    truncated_moment_limit,
)

ALL = PartitionFamily.ALL
NC = PartitionFamily.NONCROSSING


def refines(p, q):
    """p <= q in refinement order: p-blocks sit inside q-blocks."""
    for i in range(p.size):
        for j in range(i + 1, p.size):
            if p.rgs[i] == p.rgs[j] and q.rgs[i] != q.rgs[j]:
                return False
    return True


def bell_recurrence(kmax):
    bells = [1]
    for k in range(kmax):
        bells.append(sum(math.comb(k, j) * bells[j] for j in range(k + 1)))
    return bells


def catalan_recurrence(kmax):
    cats = [1]
    for k in range(kmax):
        cats.append(sum(cats[j] * cats[k - j] for j in range(k + 1)))
    return cats


def test_enumeration_counts_match_recurrences():
    bells = bell_recurrence(8)
    cats = catalan_recurrence(8)
    for k in range(1, 9):
        assert len(enum_partitions(k, ALL)) == bells[k] == bell_number(k)
        assert len(enum_partitions(k, NC)) == cats[k] == catalan_number(k)


def test_noncrossing_is_a_subset_of_all():
    for k in range(1, 7):
        allp = set(enum_partitions(k, ALL))
        ncp = set(enum_partitions(k, NC))
        assert ncp <= allp
        assert all(p.is_noncrossing() for p in ncp)
        assert not any(p.is_noncrossing() for p in allp - ncp)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_join_is_lattice_join(k):
    parts = enum_partitions(k, ALL)
    for p, q in itertools.product(parts, parts):
        j = join(p, q)
        assert refines(p, j) and refines(q, j)
        for r in parts:
            if refines(p, r) and refines(q, r):
                assert refines(j, r)


@given(st.integers(2, 6), st.data())
def test_join_laws(k, data):
    parts = enum_partitions(k, ALL)
    p = data.draw(st.sampled_from(parts))
    q = data.draw(st.sampled_from(parts))
    assert join(p, q) == join(q, p)
    assert join(p, p) == p


def test_gram_equals_t_pi_inner_products():
    for k in range(1, 5):
        for n in range(1, 5):
            parts = enum_partitions(k, ALL)
            gw = gram_weingarten(ALL, k, n)
            vecs = [t_pi_matrix(p, n).ravel() for p in parts]
            for a, p in enumerate(parts):
                for b, q in enumerate(parts):
                    inner = int(vecs[a] @ vecs[b])
                    assert gw.gram[a][b] == inner
                    assert inner == n ** join(p, q).block_count


def direct_permutation_average(n, idx_i, idx_j):
    total = Fraction(0)
    for perm in itertools.permutations(range(1, n + 1)):
        if all(perm[a - 1] == b for a, b in zip(idx_i, idx_j)):
            total += 1
    return total / math.factorial(n)


def test_integrate_monomial_matches_direct_average():
    rng = random.Random(20240814)
    for _ in range(25):
        n = rng.randint(2, 5)
        k = rng.randint(1, min(4, n))
        idx_i = tuple(rng.randint(1, n) for _ in range(k))
        idx_j = tuple(rng.randint(1, n) for _ in range(k))
        lhs = integrate_monomial(ALL, n, idx_i, idx_j)
        assert lhs == direct_permutation_average(n, idx_i, idx_j)


def test_integrate_monomial_singular_below_rank():
    with pytest.raises(SingularGram):
        integrate_monomial(ALL, 2, (1, 1, 1), (1, 1, 1))


def test_free_moments_independent_of_n():
    cats = [catalan_number(k) for k in range(7)]
    for n in (4, 5, 6, 7, 9):
        for k in range(7):
            assert char_moment(NC, n, k) == cats[k]


def test_classical_moments_are_bell_numbers_for_large_n():
    for k in range(6):
        assert char_moment(ALL, 7, k) == bell_number(k)


def test_classical_moments_refuse_singular_rank():
    with pytest.raises(SingularGram):
        char_moment(ALL, 2, 3)


def test_char_moment_singularity_matches_inversion():
    """Singularity and W against Fraction Gauss-Jordan on the same Gram matrix.

    gram_weingarten and char_moment both decide singularity without
    inverting, so the oracle inverts G itself; the same inverse checks W
    entry by entry (Moebius closed form for ALL, certified modular inverse
    otherwise), None and the empty matrix included.
    """
    for fam in (ALL, NC, PartitionFamily.EVEN_NONCROSSING):
        for n in range(1, 10):
            for k in range(7):
                gw = gram_weingarten(fam, k, n)
                inv = fraction_matrix_inverse([list(r) for r in gw.gram])
                if inv is None:
                    assert gw.weingarten is None
                    with pytest.raises(SingularGram):
                        char_moment(fam, n, k)
                else:
                    assert gw.weingarten == tuple(tuple(r) for r in inv)
                    assert char_moment(fam, n, k) == len(gw.partitions)


def test_gram_det_formulas_match_exact():
    for k in range(1, 5):
        for n in (4, 5, 8):
            assert gram_det_classical(k, n) == gram_det_exact(ALL, k, n)
    for k in range(1, 7):
        for n in (4, 5, 9):
            assert gram_det_free(k, n) == gram_det_exact(NC, k, n)


def test_gram_det_free_with_negative_exponent():
    """At k = 8 the exponent a(8, 1) is negative; at n = 9, sqrt(n) = 3 and
    the formula is 3^C_8 * prod_r U_r(3)^a(8,r), computed here in
    Fractions with U_0 = 1, U_1 = 3, U_{r+1} = 3 U_r - U_{r-1}."""
    k = 8

    def binom(m):
        return math.comb(2 * k, m) if m >= 0 else 0

    def f(r):
        return binom(k - r) - binom(k - r - 1)

    u = [1, 3]
    while len(u) <= k:
        u.append(3 * u[-1] - u[-2])
    expected = Fraction(3) ** catalan_number(k)
    exponents = [f(r) - f(r + 1) for r in range(1, k + 1)]
    assert min(exponents) < 0
    for r, a in enumerate(exponents, start=1):
        expected *= Fraction(u[r]) ** a
    assert expected.denominator == 1
    assert gram_det_free(k, 9) == expected.numerator


def test_gram_det_small_cases():
    for n in (3, 4, 7):
        assert gram_det_classical(1, n) == n
        assert gram_det_classical(2, n) == n ** 2 * (n - 1)
    for n in (4, 7):
        assert gram_det_free(1, n) == n
        assert gram_det_free(2, n) == n ** 2 * (n - 1)


def test_free_gram_convention_is_frozen_and_documented():
    assert free_gram_convention() == "f(k,r)-f(k,r+1)"


def test_clebsch_dimensions():
    assert clebsch_dim(5, 0) == 1
    assert clebsch_dim(5, 1) == 4
    for a in range(6):
        assert clebsch_dim(4, a) == 2 * a + 1
    for n in (4, 5, 6):
        for a in range(5):
            for b in range(5):
                lhs = clebsch_dim(n, a) * clebsch_dim(n, b)
                rhs = sum(clebsch_dim(n, c)
                          for c in range(abs(a - b), a + b + 1))
                assert lhs == rhs


def even_block_noncrossing_count(k):
    return sum(
        1 for p in enum_partitions(2 * k, NC)
        if all(len(b) % 2 == 0 for b in p.blocks())
    )


def test_free_bessel_small_values():
    assert free_bessel_even_moment(0, Fraction(1)) == 1
    for k in range(1, 5):
        assert free_bessel_even_moment(k, Fraction(1)) == \
            even_block_noncrossing_count(k)
    assert free_bessel_even_moment(2, Fraction(1, 2)) == Fraction(1)


def test_truncated_moments_interpolate():
    for fam in (ALL, NC):
        for k in range(4):
            full = char_moment(fam, 6, k)
            assert truncated_char_moment(fam, 6, 6, k) == full
            assert truncated_char_moment(fam, 6, 0, k) == (1 if k == 0 else 0)


def test_truncated_classical_moment_is_trace_against_inverse():
    """The ALL closed form sum (s)_|tau|/(n)_|tau| equals Tr(G_s W_n)."""
    for k in range(1, 6):
        parts = enum_partitions(k, ALL)
        joins = [[join(p, q).block_count for q in parts] for p in parts]
        for n in range(1, 10):
            if n < k:
                with pytest.raises(SingularGram):
                    truncated_char_moment(ALL, n, n, k)
                continue
            w = fraction_matrix_inverse([[n ** j for j in r] for r in joins])
            for s in range(n + 1):
                trace = sum((s ** joins[a][b] * w[b][a]
                             for a in range(len(parts))
                             for b in range(len(parts))), Fraction(0))
                assert truncated_char_moment(ALL, n, s, k) == trace


def test_truncated_limit_is_partition_sum():
    t = Fraction(1, 2)
    for fam in (ALL, NC):
        for k in range(1, 5):
            expected = sum(t ** p.block_count
                           for p in enum_partitions(k, fam))
            assert truncated_moment_limit(fam, t, k) == expected


def test_weingarten_inverts_gram():
    for fam in (ALL, NC):
        gw = gram_weingarten(fam, 3, 6)
        g = np.array([[Fraction(x) for x in row] for row in gw.gram])
        w = np.array(gw.weingarten)
        prod = g @ w
        m = len(gw.partitions)
        for a in range(m):
            for b in range(m):
                assert prod[a][b] == (1 if a == b else 0)


def test_noncrossing_weingarten_at_k7():
    """NONCROSSING at k = 7, n = 4 (429 partitions), checked without the
    certified engine: W is symmetric, G·(W·v) = v in Fractions for a fixed
    integer vector v (Freivalds), and Tr(G·W) is the partition count."""
    gw = gram_weingarten(NC, 7, 4)
    w = gw.weingarten
    m = len(w)
    assert m == catalan_number(7) == 429
    assert all(w[a][b] == w[b][a] for a in range(m) for b in range(a))
    v = [int(x) for x in np.random.default_rng(7).integers(-9, 10, m)]
    wv = [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in w]
    assert [sum((g * x for g, x in zip(row, wv)), Fraction(0))
            for row in gw.gram] == v
    assert truncated_char_moment(NC, 4, 4, 7) == 429


def test_classical_weingarten_at_k7():
    """ALL at k = 7, n = 9 (877 partitions), checked as NONCROSSING is
    above: W is symmetric, G·(W·v) = v exactly for a fixed integer vector
    v, and Tr(G·W) is the partition count.  The products run in integers
    over the common denominator D of W: G·(D·W·v) = D·v."""
    gw = gram_weingarten(ALL, 7, 9)
    w = gw.weingarten
    m = len(w)
    assert m == bell_number(7) == 877
    assert all(w[a][b] == w[b][a] for a in range(m) for b in range(a))
    den = math.lcm(*(x.denominator for row in w for x in row))
    v = [int(x) for x in np.random.default_rng(7).integers(-9, 10, m)]
    dwv = [sum(x.numerator * (den // x.denominator) * y
               for x, y in zip(row, v)) for row in w]
    assert [sum(g * x for g, x in zip(row, dwv))
            for row in gw.gram] == [den * x for x in v]
    assert truncated_char_moment(ALL, 9, 9, 7) == 877


def test_empty_family_has_empty_weingarten():
    gw = gram_weingarten(PartitionFamily.EVEN_NONCROSSING, 3, 4)
    assert gw.partitions == ()
    assert gw.gram == ()
    assert gw.weingarten == ()
    assert not gw.is_singular

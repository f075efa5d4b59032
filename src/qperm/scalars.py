"""Exact arithmetic in Z[zeta_l] and the float comparison policy.

An element of Z[zeta_l] is held as integer group-algebra coefficients
{zeta_l^e : 0 <= e < l}: a Butson exponent e stands for zeta_l^e, so
multiplication is index addition and conjugation is index reversal.  The
relations among the roots enter in one place, the reduction modulo the l-th
cyclotomic polynomial (`root_reduction_table`), through which the exact
checks of `hadamard` and `quantum` test for zero.  The certified nullity
engine tests instead at the embeddings zeta -> r modulo primes; it needs
only the power-basis degree phi(l), the width of the same table.  The
norm-form solvers decide which integers are |d|^2 for d in Z[zeta_l] at
the orders where that is classical.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache

import numpy as np

#: Default absolute tolerance for float comparisons across the package.
DEFAULT_TOL = 1e-9


# ---------------------------------------------------------------------------
# cyclotomic polynomials and reduction
# ---------------------------------------------------------------------------

def _poly_divmod_exact(num, den):
    """Exact division of integer polynomials (lists, low degree first).

    den must be monic.  Returns (quotient, remainder); used only in contexts
    where the remainder is known to vanish.
    """
    num = list(num)
    dd = len(den) - 1
    quot = [0] * max(0, len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        quot[i - dd] = c
        for j, dj in enumerate(den):
            num[i - dd + j] -= c * dj
    while num and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_poly(order):
    """Coefficients (low degree first) of the cyclotomic polynomial Phi_order."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if order == 1:
        return (-1, 1)
    poly = [-1] + [0] * (order - 1) + [1]  # x^order - 1
    for d in range(1, order):
        if order % d == 0:
            quot, rem = _poly_divmod_exact(poly, list(cyclotomic_poly(d)))
            assert not rem, "cyclotomic division must be exact"
            poly = quot
    return tuple(poly)


@lru_cache(maxsize=None)
def root_reduction_table(level):
    """Integer coefficient vectors of zeta^e mod the cyclotomic polynomial.

    Row e is x^e mod Phi_level in the power basis, so a group-algebra
    coefficient vector c (length level) reduces to c @ table, of length
    phi(level), and vanishes there exactly when sum_e c_e zeta^e = 0.
    Each row is the previous one shifted up a degree with its overflow
    reduced by the monic Phi.  The table is cached per level and read-only.
    """
    phi = np.array(cyclotomic_poly(level), dtype=np.int64)
    deg = len(phi) - 1
    table = np.zeros((level, deg), dtype=np.int64)
    row = np.zeros(deg, dtype=np.int64)
    row[0] = 1
    for e in range(level):
        table[e] = row
        top = row[-1]
        row = np.concatenate(([0], row[:-1])) - top * phi[:-1]
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# Hermitian norm-form solvability (orders 1, 2, 3, 4, 6)
# ---------------------------------------------------------------------------

class NormVerdict(Enum):
    SOLVABLE = "solvable"
    UNSOLVABLE = "unsolvable"
    INCONCLUSIVE = "inconclusive"


def factorize(m):
    """Prime factorization of a positive integer by trial division."""
    if m < 1:
        raise ValueError("m must be positive")
    factors = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    return factors


def hermitian_norm_solvable(order, m):
    """Does Z[zeta_order] contain d with |d|^2 = m?

    Decided for order in {1, 2, 3, 4, 6} by classical sum-of-squares /
    Eisenstein norm criteria; every other order reports INCONCLUSIVE.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if order in (1, 2):
        r = math.isqrt(m)
        return NormVerdict.SOLVABLE if r * r == m else NormVerdict.UNSOLVABLE
    if order == 4:
        # m is a sum of two squares iff primes = 3 (mod 4) occur evenly.
        for p, e in factorize(m).items():
            if p % 4 == 3 and e % 2 == 1:
                return NormVerdict.UNSOLVABLE
        return NormVerdict.SOLVABLE
    if order in (3, 6):
        # Eisenstein norms: primes = 2 (mod 3) must occur evenly.
        for p, e in factorize(m).items():
            if p % 3 == 2 and e % 2 == 1:
                return NormVerdict.UNSOLVABLE
        return NormVerdict.SOLVABLE
    return NormVerdict.INCONCLUSIVE


def hermitian_norm_witness(order, m, bound=None):
    """Bounded brute-force search for d with |d|^2 = m; oracle for tests.

    Returns a coefficient pair (a, b) over the canonical Z-basis, or None if
    no witness exists within the search box.  Only supports the decidable
    orders {1, 2, 3, 4, 6}.
    """
    if order in (1, 2):
        r = math.isqrt(m)
        return (r, 0) if r * r == m else None
    if order == 4:
        lim = math.isqrt(m)
        for a in range(lim + 1):
            rest = m - a * a
            b = math.isqrt(rest)
            if b * b == rest:
                return (a, b)
        return None
    if order in (3, 6):
        # norm of a + b*zeta_6 is a^2 + ab + b^2; search |a|,|b| <= 2*sqrt(m/3)+1
        lim = bound if bound is not None else 2 * math.isqrt(m // 3 + 1) + 2
        for a in range(-lim, lim + 1):
            for b in range(-lim, lim + 1):
                if a * a + a * b + b * b == m:
                    return (a, b)
        return None
    raise ValueError("witness search only for orders 1, 2, 3, 4, 6")

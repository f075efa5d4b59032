"""Exact arithmetic in Z[zeta_l] and the float comparison policy.

An element of Z[zeta_l] is held as integer group-algebra coefficients
{zeta_l^e : 0 <= e < l}: a Butson exponent e stands for zeta_l^e, so
multiplication is index addition and conjugation is index reversal.  The
relations among the roots are never written out: every exact zero test
of the package (the orthogonality and zero-sum checks of `hadamard`, the
magic-unitary checks of `quantum` and the certified nullity engine)
evaluates at the embeddings zeta -> r modulo primes, under a norm bound
(see `_exact`).  The norm-form solvers decide which integers are |d|^2
for d in Z[zeta_l] at the orders where that is classical.

Floats are equal within a tolerance tol, different from _GAP_FACTOR * tol
on, and RankAmbiguous in between: `float_nullity` applies this to singular
values, and `_tolerance_keys` turns complex values into exact keys by it,
through which `hadamard` makes every float comparison, so no verdict
depends on where a rounding boundary falls.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import RankAmbiguous

#: Default absolute tolerance for float comparisons across the package.
DEFAULT_TOL = 1e-9

#: Margin, as a factor, that float quantities must keep from the tolerance.
_GAP_FACTOR = 10.0


def _tolerance_keys(values, tol=DEFAULT_TOL):
    """Exact integer keys of complex values, in the shape of `values`.

    In the max norm max(|dRe|, |dIm|), values within tol share a key,
    values with different keys are at least s = _GAP_FACTOR * tol apart,
    and a pair in between raises RankAmbiguous.  Values are binned in
    square cells of side s; a cell, or two neighbouring cells, merge if
    together they spread at most tol, stay apart if their boxes are s
    apart, and raise otherwise.  A cluster spans at most 2 x 2 cells, all
    merged with its least, whose order numbers the keys.
    """
    z = np.asarray(values, dtype=np.complex128)
    pts = np.stack([z.real.ravel(), z.imag.ravel()], axis=1)
    span = _GAP_FACTOR * tol
    cells = np.floor(pts / span).astype(np.int64)
    order = np.lexsort((cells[:, 1], cells[:, 0]))
    cells, pts = cells[order], pts[order]
    new = np.concatenate(([True], (cells[1:] != cells[:-1]).any(axis=1)))
    starts = np.flatnonzero(new)
    lo, hi = np.minimum.reduceat(pts, starts), np.maximum.reduceat(pts, starts)
    index = {c: i for i, c in enumerate(map(tuple, cells[starts].tolist()))}
    # each cell with itself and with the neighbours after it
    a, b = np.array([(i, index[x + dx, y + dy]) for (x, y), i in index.items()
                     for dx, dy in ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1))
                     if (x + dx, y + dy) in index]).T
    gap = np.maximum(lo[b] - hi[a], lo[a] - hi[b]).max(axis=1)
    spread = (np.maximum(hi[a], hi[b]) - np.minimum(lo[a], lo[b])).max(axis=1)
    merge = spread <= tol
    if (~merge & (gap < span)).any():
        raise RankAmbiguous(f"values closer than {_GAP_FACTOR:g} tol spread "
                            f"{spread[~merge & (gap < span)].max():.3e}")
    label = np.arange(len(starts))
    np.minimum.at(label, b[merge], a[merge])
    rank = np.cumsum(label == np.arange(len(label))) - 1
    keys = np.empty(len(pts), dtype=np.int64)
    keys[order] = rank[label[np.cumsum(new) - 1]]
    return keys.reshape(z.shape)


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


# order -> (mod, r): m is a norm from Z[zeta_order] iff every prime
# p = r (mod mod), inert there, occurs in m to an even power.  That is a
# square at orders 1 and 2 (every prime counts), the sum of two squares at
# order 4 and the Eisenstein norms at orders 3 and 6.
_INERT = {1: (1, 0), 2: (1, 0), 4: (4, 3), 3: (3, 2), 6: (3, 2)}


def factored_norm_solvable(order, factors):
    """hermitian_norm_solvable for the m whose factorization is {p: e}."""
    if order not in _INERT:
        return NormVerdict.INCONCLUSIVE
    mod, r = _INERT[order]
    odd = any(p % mod == r and e % 2 for p, e in factors.items())
    return NormVerdict.UNSOLVABLE if odd else NormVerdict.SOLVABLE


def hermitian_norm_solvable(order, m):
    """Does Z[zeta_order] contain d with |d|^2 = m?

    Decided for order in {1, 2, 3, 4, 6} by classical sum-of-squares /
    Eisenstein norm criteria; every other order reports INCONCLUSIVE.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if order in (1, 2):  # a square: isqrt spares the factorization
        r = math.isqrt(m)
        return NormVerdict.SOLVABLE if r * r == m else NormVerdict.UNSOLVABLE
    return factored_norm_solvable(order,
                                  factorize(m) if order in _INERT else {})


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

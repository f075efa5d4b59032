"""Exact cyclotomic scalars and the float comparison policy.

Elements of Q(zeta_l) are stored in the group-algebra basis {zeta_l^j : 0 <= j < l},
so multiplication is index addition and conjugation is index reversal.  Zero testing
reduces the coefficient vector modulo the l-th cyclotomic polynomial, which is the
only step where the basis relations enter.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .errors import ShapeMismatch

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


def euler_phi(order):
    return len(cyclotomic_poly(order)) - 1


def reduce_mod_cyclotomic(coeffs, order):
    """Reduce a length-order coefficient vector modulo Phi_order.

    Input entries may be ints or Fractions; the return value is a tuple of
    length euler_phi(order) giving the element in the power basis
    {1, zeta, ..., zeta^(phi-1)}.
    """
    phi = cyclotomic_poly(order)
    deg = len(phi) - 1
    work = list(coeffs)
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c == 0:
            continue
        # phi is monic: subtract c * x^(i-deg) * phi
        for j in range(deg + 1):
            work[i - deg + j] -= c * phi[j]
    work = work[:deg]
    work += [0] * (deg - len(work))
    return tuple(work)


# ---------------------------------------------------------------------------
# CycloScalar
# ---------------------------------------------------------------------------

def _promote(coeffs, order, target):
    """Re-express coefficients of Q(zeta_order) in the order-target basis."""
    if order == target:
        return list(coeffs)
    step = target // order
    out = [Fraction(0)] * target
    for j, c in enumerate(coeffs):
        out[j * step] += c
    return out


@dataclass(frozen=True, eq=False)
class CycloScalar:
    """An element of Q(zeta_order) as group-algebra coefficients."""

    order: int
    coeffs: tuple

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if len(self.coeffs) != self.order:
            raise ShapeMismatch(
                f"expected {self.order} coefficients, got {len(self.coeffs)}"
            )
        object.__setattr__(
            self, "coeffs", tuple(Fraction(c) for c in self.coeffs)
        )

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, order=1):
        return cls(order, (Fraction(0),) * order)

    @classmethod
    def one(cls, order=1):
        return cls.from_rational(1, order)

    @classmethod
    def from_rational(cls, value, order=1):
        coeffs = [Fraction(0)] * order
        coeffs[0] = Fraction(value)
        return cls(order, tuple(coeffs))

    # -- ring ops -------------------------------------------------------

    def _with(self, other):
        if isinstance(other, CycloScalar):
            target = math.lcm(self.order, other.order)
            return (
                _promote(self.coeffs, self.order, target),
                _promote(other.coeffs, other.order, target),
                target,
            )
        other = CycloScalar.from_rational(other, 1)
        return self._with(other)

    def __add__(self, other):
        a, b, target = self._with(other)
        return CycloScalar(target, tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self):
        return CycloScalar(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other if isinstance(other, CycloScalar)
                       else CycloScalar.from_rational(-Fraction(other), 1))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b, target = self._with(other)
        out = [Fraction(0)] * target
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if y:
                    out[(i + j) % target] += x * y
        return CycloScalar(target, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = CycloScalar.one(self.order)
        base = self
        while exponent:
            if exponent & 1:
                out = out * base
            base = base * base
            exponent >>= 1
        return out

    def conjugate(self):
        out = [Fraction(0)] * self.order
        for j, c in enumerate(self.coeffs):
            out[(-j) % self.order] = c
        return CycloScalar(self.order, tuple(out))

    def norm_squared(self):
        """|z|^2 as a CycloScalar (rational for low orders)."""
        return self * self.conjugate()

    # -- predicates ------------------------------------------------------

    def is_zero(self):
        return not any(reduce_mod_cyclotomic(self.coeffs, self.order))

    def is_rational(self):
        reduced = reduce_mod_cyclotomic(self.coeffs, self.order)
        return all(c == 0 for c in reduced[1:])

    def rational_value(self):
        reduced = reduce_mod_cyclotomic(self.coeffs, self.order)
        if any(c != 0 for c in reduced[1:]):
            raise ValueError("not a rational element")
        return reduced[0]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloScalar.from_rational(other, 1)
        if not isinstance(other, CycloScalar):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def __bool__(self):
        return not self.is_zero()

    # -- evaluation -------------------------------------------------------

    def evaluate(self):
        return sum(
            c * cmath.exp(2j * math.pi * j / self.order)
            for j, c in enumerate(self.coeffs)
            if c
        ) + 0j

    def __repr__(self):
        terms = [
            (f"{c}" if j == 0 else f"{c}*z{self.order}^{j}")
            for j, c in enumerate(self.coeffs)
            if c
        ]
        return "CycloScalar(" + (" + ".join(terms) if terms else "0") + ")"


def cyclo_root(order, exponent=1):
    """zeta_order^exponent as a CycloScalar."""
    coeffs = [Fraction(0)] * order
    coeffs[exponent % order] = Fraction(1)
    return CycloScalar(order, tuple(coeffs))


def cyclo_is_zero(x):
    return x.is_zero()


def cyclo_eval(x):
    return x.evaluate()


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

"""Soundness of the certified engine's exact verification.

A residual entry r of A·x is an algebraic integer with |sigma(r)| <= B_1 =
ncols * coeff_l1_bound * max ||x_j||_1 at every embedding.  Verification
checks r at every embedding modulo primes whose product must exceed B_1;
these stubs sit on that boundary and on a single vanishing embedding.
"""

from fractions import Fraction

import numpy as np

from qperm._exact import _verify_basis, primes_one_mod, unity_root_mod
from qperm.hadamard import f6_two_three
from qperm.quantum import fix_dim_direct


class _OneEntry:
    """A 1 x 1 system whose only entry has the given coefficients."""

    ncols = 1

    def __init__(self, coeffs, coeff_l1_bound):
        self.coeffs = coeffs
        self.level = len(coeffs)
        self.coeff_l1_bound = coeff_l1_bound

    def chunks_modp(self, p, root):
        value = sum(c * pow(root, e, p) for e, c in enumerate(self.coeffs))
        yield np.array([[value % p]], dtype=np.int64)


def _verify(entry, coeff_l1_bound):
    system = _OneEntry(entry, coeff_l1_bound)
    pool = primes_one_mod(system.level, 1 << 26, 4)
    one = np.zeros((1, system.level), dtype=object)
    one[0, 0] = 1
    tags = []
    return _verify_basis(system, [one], pool, tags), tags, pool


def test_prime_product_must_exceed_the_bound():
    p1 = primes_one_mod(5, 1 << 26, 1)[0]
    # r = p1 vanishes at every embedding mod p1, and B_1 = p1 exactly.
    ok, tags, pool = _verify([p1, 0, 0, 0, 0], p1)
    assert pool[0] == p1
    assert tags == ["verify-primes=2"]
    assert not ok


def test_one_vanishing_embedding_is_rejected():
    pool = primes_one_mod(5, 1 << 26, 1)
    c = unity_root_mod(pool[0], 5)
    # zeta_5 - c vanishes at zeta -> c mod p1 and at no other embedding.
    entry = [-c, 1, 0, 0, 0]
    assert next(_OneEntry(entry, 1 + c).chunks_modp(pool[0], c))[0, 0] == 0
    ok, _, _ = _verify(entry, 1 + c)
    assert not ok


def test_a_true_zero_is_accepted():
    ok, tags, _ = _verify([1, 1, 1, 1, 1], 5)
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

"""The reduction modulo the cyclotomic polynomial and norm-equation tests."""

import cmath
import math

import numpy as np
import pytest

from qperm.scalars import (
    NormVerdict,
    factorize,
    hermitian_norm_solvable,
    hermitian_norm_witness,
    root_reduction_table,
)


def test_reduction_table_preserves_value():
    for level in list(range(1, 25)) + [105, 210]:
        table = root_reduction_table(level)
        units = [t for t in range(level) if math.gcd(t, level) == 1]
        assert table.shape == (level, len(units))
        assert table.dtype == np.int64 and not table.flags.writeable
        for t in units:
            z = cmath.exp(2j * math.pi * t / level)
            powers = z ** np.arange(table.shape[1])
            for e in range(level):
                scale = 1 + np.abs(table[e]).sum()
                assert abs(table[e] @ powers - z ** e) < 1e-9 * scale


@pytest.mark.parametrize("order", [1, 2, 3, 4, 6])
def test_norm_solvable_matches_bruteforce(order):
    for m in list(range(1, 40)) + [49, 50, 98, 243, 3125, 9999, 10000]:
        verdict = hermitian_norm_solvable(order, m)
        witness = hermitian_norm_witness(order, m)
        assert verdict is not NormVerdict.INCONCLUSIVE
        assert (verdict is NormVerdict.SOLVABLE) == (witness is not None)


def test_norm_inconclusive_outside_euclidean_orders():
    assert hermitian_norm_solvable(5, 10) is NormVerdict.INCONCLUSIVE


def test_factorize_and_phi():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert root_reduction_table(1).shape[1] == 1
    widths = [root_reduction_table(k).shape[1] for k in (2, 3, 4, 6, 12)]
    assert widths == [1, 2, 2, 2, 4]

"""Norm-equation, factorization and float tolerance-key tests."""

import numpy as np
import pytest

from qperm._exact import embedding_roots, prime_pool
from qperm.errors import RankAmbiguous
from qperm.scalars import (
    DEFAULT_TOL,
    NormVerdict,
    _GAP_FACTOR,
    _tolerance_keys,
    factored_norm_solvable,
    factorize,
    hermitian_norm_solvable,
    hermitian_norm_witness,
)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 6])
def test_norm_solvable_matches_bruteforce(order):
    for m in list(range(1, 40)) + [49, 50, 98, 243, 3125, 9999, 10000]:
        verdict = hermitian_norm_solvable(order, m)
        witness = hermitian_norm_witness(order, m)
        assert verdict is not NormVerdict.INCONCLUSIVE
        assert (verdict is NormVerdict.SOLVABLE) == (witness is not None)


def test_norm_inconclusive_outside_euclidean_orders():
    assert hermitian_norm_solvable(5, 10) is NormVerdict.INCONCLUSIVE


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
def test_norm_verdict_from_the_factors_matches_m(order):
    for m in range(1, 300):
        assert factored_norm_solvable(order, factorize(m)) is \
            hermitian_norm_solvable(order, m), m


def test_factorize_and_phi():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    widths = [len(embedding_roots(next(prime_pool(k, 1)), k))
              for k in (1, 2, 3, 4, 6, 12)]
    assert widths == [1, 1, 2, 2, 2, 4]


TOL = DEFAULT_TOL


def test_tolerance_keys_share_a_key_within_tol():
    rng = np.random.default_rng(1)
    centres = np.exp(2j * np.pi * rng.random(50))
    jitter = TOL / 2 * (rng.random((50, 4)) - 0.5
                        + 1j * (rng.random((50, 4)) - 0.5))
    keys = _tolerance_keys(centres[:, None] + jitter)
    assert (keys == keys[:, :1]).all()
    assert len(set(keys[:, 0].tolist())) == 50
    # a pair tol / 2 apart across a cell edge (cells have side 10 tol)
    edge = _GAP_FACTOR * TOL * 12345
    assert len(set(_tolerance_keys([edge - TOL / 4, edge + TOL / 4]))) == 1


def test_tolerance_keys_raise_in_the_gap():
    for a, b in ((0, 3 * TOL), (0, 3 * TOL * 1j), (0.5, 0.5 + 3 * TOL),
                 (0.5j, 0.5j + 9 * TOL + 0.5 * TOL * 1j)):
        with pytest.raises(RankAmbiguous):
            _tolerance_keys([a, b])
    edge = _GAP_FACTOR * TOL * 777
    with pytest.raises(RankAmbiguous):
        _tolerance_keys([edge - TOL, edge + 2 * TOL])


def test_tolerance_keys_judge_pairs_in_max_norm():
    # close in one coordinate but far in the other: distinct, no raise
    keys = _tolerance_keys([0, 3 * TOL + 1j])
    assert keys[0] != keys[1]
    keys = _tolerance_keys([1j, 3 * TOL, 3 * TOL + 1j + 2 * _GAP_FACTOR * TOL])
    assert len(set(keys.tolist())) == 3
    assert _tolerance_keys(np.zeros((2, 3))).shape == (2, 3)


def test_tolerance_keys_separate_keys_by_the_gap():
    rng = np.random.default_rng(2)
    values = np.exp(2j * np.pi * rng.random(400))
    values = np.concatenate([values, values * (1 + 1e-15)])
    keys = _tolerance_keys(values)
    assert (keys[:400] == keys[400:]).all()
    apart = np.maximum(abs(values.real[:, None] - values.real),
                       abs(values.imag[:, None] - values.imag))
    same = keys[:, None] == keys
    assert (apart[same] <= TOL).all()
    assert (apart[~same] >= _GAP_FACTOR * TOL).all()

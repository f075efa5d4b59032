"""Hadamard construction, equivalence, enumeration and obstruction tests."""

import cmath
import itertools
import math
import re
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qperm.hadamard as hadamard_module
from qperm.errors import (
    MalformedMatrix,
    OrderTooLarge,
    ParseError,
    UnknownName,
)
from qperm.hadamard import (
    RULE_ORDER,
    Hadamard,
    RuleVerdict,
    _catalog_witness,
    _form_keys,
    _orbit_keys,
    _orthogonal_rows,
    _zero_sum_pool,
    bjorck_froberg,
    butson_enumerate,
    certificate_resum,
    dephase,
    dita,
    dita_fourier_params,
    equivalent,
    f4q,
    f6_three_two,
    f6_two_three,
    fingerprint,
    fourier,
    haagerup,
    haar_sample,
    i_g_estimate,
    is_regular,
    level,
    named,
    obstruction_table,
    obstructions,
    one_norm,
    petrescu,
    random_equivalent,
    read_but,
    read_cmat,
    strongest_obstruction,
    tao,
    tensor,
    write_but,
    write_cmat,
)
from qperm.scalars import DEFAULT_TOL, _tolerance_keys

EXACT_CATALOG = [
    fourier(2),
    fourier(3),
    fourier(5),
    tao(),
    haagerup(Fraction(1, 4)),
    f4q(Fraction(1, 7)),
    f6_two_three(Fraction(1, 5), Fraction(2, 7)),
    f6_three_two(Fraction(1, 5), Fraction(1, 3)),
    petrescu(Fraction(1, 7)),
]


@pytest.mark.parametrize("h", EXACT_CATALOG, ids=lambda h: h.provenance)
def test_catalog_matrices_verify(h):
    assert h.verify()
    assert h.is_exact


def test_float_catalog_matrices_verify():
    q = complex(np.exp(0.246j * np.pi))
    for h in (bjorck_froberg(), haagerup(q), f4q(q)):
        assert not h.is_exact
        assert h.verify()


@pytest.mark.parametrize("h", EXACT_CATALOG, ids=lambda h: h.provenance)
def test_dephase_properties(h):
    d = dephase(h)
    assert d.verify() == h.verify()
    assert (d.exponents[0] == 0).all()
    assert (d.exponents[:, 0] == 0).all()
    again = dephase(d)
    assert (again.exponents == d.exponents).all()


def test_dephase_float_path():
    d = dephase(bjorck_froberg())
    assert np.allclose(d.entries[0], 1.0)
    assert np.allclose(d.entries[:, 0], 1.0)
    assert d.verify()


def test_level_divides_lcm_under_tensor():
    pairs = [(fourier(2), fourier(3)), (fourier(2), haagerup(Fraction(1, 4))),
             (fourier(3), tao())]
    for h, k in pairs:
        t = tensor(h, k)
        assert t.verify()
        assert math.lcm(h.level, k.level) % level(t) == 0


def turns(t):
    """The unimodular value of a decimal turn, as the CLI reads it."""
    return complex(cmath.exp(2j * math.pi * t))


def same_keys(a, b):
    """Are two equally shaped float arrays equal entry by entry, compared
    through their joint tolerance keys at DEFAULT_TOL?"""
    ka, kb = _tolerance_keys(np.stack([a, b]), DEFAULT_TOL)
    return bool((ka == kb).all())


def same_multiset(a, b):
    """Are two float arrays equal as multisets, by their tolerance keys?"""
    ka, kb = _tolerance_keys(np.stack([a, b]), DEFAULT_TOL)
    return np.array_equal(np.sort(ka, axis=None), np.sort(kb, axis=None))


FLOAT_CATALOG = [
    pytest.param(haagerup(turns(0.13)), id="haagerup:0.13"),
    pytest.param(petrescu(turns(0.07)), id="petrescu:0.07"),
    pytest.param(f4q(turns(0.37)), id="f4q:0.37"),
    pytest.param(bjorck_froberg(), id="bjorck_froberg"),
]


@pytest.mark.parametrize("h", EXACT_CATALOG[:6] + FLOAT_CATALOG,
                         ids=lambda h: h.provenance)
@pytest.mark.parametrize("seed", [1, 2])
def test_equivalence_and_fingerprint_invariance(h, seed):
    moved = random_equivalent(h, seed)
    if h.is_exact:
        assert fingerprint(h) == fingerprint(moved)
    else:
        assert same_multiset(fingerprint(h), fingerprint(moved))
    assert equivalent(h, moved)


@pytest.mark.parametrize("h", [
    fourier(2).with_level(4),
    tensor(fourier(2), fourier(2)).with_level(4),
    tao().with_level(6),
], ids=lambda h: h.provenance)
def test_moves_at_a_multiple_level_stay_equivalent(h):
    # the moves scale by roots of the higher level, so a move's undephased
    # level can differ from that of h; its dephased level cannot
    for seed in range(6):
        moved = random_equivalent(h, seed)
        assert fingerprint(moved) == fingerprint(h), seed
        assert equivalent(h, moved), seed


def test_fingerprint_matches_loop_reference():
    for h in (tao(), haagerup(Fraction(1, 4)),
              random_equivalent(fourier(4).with_level(8), 2)):
        n, lev, e = h.n, h.level, h.exponents.tolist()
        qs = Counter((e[i][j] - e[k][j] - e[i][m] + e[k][m]) % lev
                     for i in range(n) for k in range(n)
                     for j in range(n) for m in range(n))
        g = math.gcd(lev, *qs)
        dlev, hist = fingerprint(h)
        assert dlev == lev // g == level(dephase(h))
        assert {q // g: c for q, c in qs.items()} == \
            {q: c for q, c in enumerate(hist) if c}
        # the float path keeps the same products, in the layout [i, k, j, l]
        want = np.array([[[[cmath.exp(2j * math.pi * (e[i][j] - e[k][j]
                                                     - e[i][m] + e[k][m])
                                      / lev)
                            for m in range(n)] for j in range(n)]
                          for k in range(n)] for i in range(n)])
        got = fingerprint(Hadamard(entries=h.entries))
        assert got.shape == (n, n, n, n)
        assert same_keys(got, want)


def test_exact_equivalence_is_float_free():
    h = tao()
    k = random_equivalent(h, 3)
    fingerprint(h)
    assert equivalent(h, k)
    assert h._entries_cache is None and k._entries_cache is None


def test_mixed_pair_is_compared_in_float_form():
    assert equivalent(fourier(4), Hadamard(entries=fourier(4).entries))


def test_inequivalent_pairs():
    assert not equivalent(fourier(6), tao())
    assert not equivalent(fourier(4), tensor(fourier(2), fourier(2)))
    assert not equivalent(fourier(4),
                          Hadamard(entries=tensor(fourier(2), fourier(2))
                                   .entries))


def test_fingerprint_separates_catalog():
    prints = {}
    for h in (fourier(4), tensor(fourier(2), fourier(2)), fourier(6), tao()):
        prints.setdefault(fingerprint(h), []).append(h.provenance)
    assert all(len(v) == 1 for v in prints.values())


def test_obstructed_cells_have_empty_enumeration():
    for n in range(2, 7):
        for lev in range(2, 5):
            if strongest_obstruction(n, lev) is None:
                continue
            res = butson_enumerate(n, lev, mode="any_witness")
            assert res.complete
            assert not res.matrices


def test_witness_cells_yield_verified_matrices():
    for n, lev in [(2, 2), (3, 3), (4, 2), (4, 4), (6, 3), (6, 4), (6, 6),
                   (7, 6), (8, 4), (8, 6)]:
        assert strongest_obstruction(n, lev) is None
        res = butson_enumerate(n, lev, mode="any_witness")
        assert len(res.matrices) == 1, (n, lev)
        w = res.matrices[0]
        assert w.verify()
        assert w.level == lev and w.n == n


def test_level_six_classes_of_order_six():
    classes = butson_enumerate(6, 6, mode="all_dephased_classes").matrices
    for h in (fourier(6), tensor(fourier(2), fourier(3)), tao().with_level(6)):
        assert sum(equivalent(h, c) for c in classes) == 1, h.provenance


# A nonzero sum of at most 8 l-th roots of unity, l <= 6, is an algebraic
# integer of degree phi(l) <= 2 whose conjugates all have modulus at most
# 8, so its own modulus is at least 8^(1 - phi(l)) >= 1/8: |z| < 1e-6
# decides zero with a wide margin.
def _is_zero(z):
    return abs(z) < 1e-6


def _roots(lev):
    return np.exp(2j * np.pi * np.arange(lev) / lev)


def _zero_sum_pool_by_loop(n, lev):
    roots = _roots(lev)
    return [list(tup) for tup in itertools.product(range(lev), repeat=n - 1)
            if _is_zero(1 + sum(roots[e] for e in tup))]


def test_zero_sum_pool_matches_the_loop():
    cells = [(n, lev) for n in range(1, 9) for lev in range(1, 7)
             if lev ** (n - 1) <= 50_000]
    for n, lev in cells:
        pool, zero = _zero_sum_pool(n, lev)
        assert pool.dtype == np.int64 and pool.shape == (len(pool), n - 1)
        assert pool.tolist() == _zero_sum_pool_by_loop(n, lev), (n, lev)
        assert zero.shape == (lev,) * (n - 1)
        assert zero.sum() == len(pool)


@pytest.mark.parametrize("n, lev", [(6, 4), (6, 6)])
def test_orthogonal_rows_match_the_table_sums(n, lev):
    pool, zero = _zero_sum_pool(n, lev)
    roots = _roots(lev)
    for idx in range(len(pool)):
        sums = roots[(pool[idx] - pool) % lev].sum(axis=1) + 1
        assert np.array_equal(_orthogonal_rows(pool, zero, lev, idx),
                              _is_zero(sums)), idx


FAILING_PAIR_LEVELS = (1, 2, 3, 4, 5, 6, 8, 10, 12)


def _failing_pair_cases(count, seed):
    """Seeded exponent matrices of order n <= 8, with the pair each must
    fail at when that is known: random entries, or a moved Fourier matrix
    as it is (None), with one entry redrawn, or with row j replaced by row
    i < j times a root, which fails at (i, j) and nowhere else."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, lev = int(rng.integers(1, 9)), int(rng.choice(FAILING_PAIR_LEVELS))
        kind = int(rng.integers(4)) if n > 1 and lev % n == 0 else 0
        if kind == 0:
            yield rng.integers(0, lev, (n, n)), lev, "any"
            continue
        move = random_equivalent(fourier(n).with_level(lev),
                                 int(rng.integers(1 << 31)))
        e, want = move.exponents.copy(), None
        if kind == 2:
            i, j = rng.integers(0, n, 2)
            e[i, j] = rng.integers(0, lev)
            want = "any"
        elif kind == 3:
            i, j = sorted(rng.choice(n, 2, replace=False).tolist())
            e[j] = e[i] + rng.integers(0, lev)
            want = (i, j)
        yield e, lev, want


def test_exact_failing_pair_matches_the_float_form():
    # A nonzero sum of at most 8 l-th roots of unity, phi(l) <= 4 here, is
    # an algebraic integer of degree phi(l) whose conjugates all have
    # modulus at most 8, so its modulus is at least 8^(1 - phi(l)) >= 8^-3
    # (about 0.002), far above the float test's n tol <= 8e-9.  The named
    # matrices are Hadamard, so there the float form sees only rounding.
    cases = list(_failing_pair_cases(2400, seed=21))
    cases += [(h.exponents, h.level, None)
              for h in [fourier(n).with_level(2 * n) for n in range(1, 13)]
              + [tao().with_level(6), haagerup(Fraction(1, 4))]]
    seen = Counter()
    for e, lev, want in cases:
        h = Hadamard(exponents=e, level=lev)
        pair = h.failing_pair()
        assert pair == Hadamard(entries=h.entries).failing_pair(), (e, lev)
        assert want == "any" or pair == want, (e, lev, want)
        seen[None if pair is None else pair[0] > 0] += 1
    # Hadamard, failing in row 0 and failing in a later row all occur
    assert min(seen.values()) >= 40, seen


@pytest.mark.parametrize("n, lev, mode, nodes, configs, count", [
    (6, 4, "all_dephased_classes", 1972, 72, 1),
    (6, 3, "all_dephased_classes", 357, 12, 1),
    (5, 5, "all_dephased_classes", 90, 6, 1),
    (4, 4, "all_dephased_classes", 25, 4, 2),
    (7, 6, "any_witness", 12, 1, 1),
    (8, 4, "any_witness", 7, 1, 1),
])
def test_search_order_is_pinned(n, lev, mode, nodes, configs, count):
    res = butson_enumerate(n, lev, mode=mode)
    assert (res.nodes, res.configurations, len(res.matrices)) == \
        (nodes, configs, count)


@pytest.mark.parametrize("n, lev, budget", [
    (0, 2, 10), (-1, 2, 10), (3, 0, 10), (3, -2, 10), (3, 3, -1),
])
def test_butson_enumerate_rejects_bad_inputs(n, lev, budget):
    for mode in ("any_witness", "all_dephased_classes"):
        with pytest.raises(ValueError, match="need n >= 1"):
            butson_enumerate(n, lev, mode=mode, budget=budget)


@pytest.mark.parametrize("n, lev", [(9, 2), (7, 7), (9, 7)])
def test_both_modes_share_one_order_bound(n, lev):
    for mode in ("any_witness", "all_dephased_classes"):
        with pytest.raises(OrderTooLarge, match="n<=8, l<=6"):
            butson_enumerate(n, lev, mode=mode)


def test_class_mode_reaches_order_eight():
    # every real Hadamard matrix of order 8 is equivalent to F2 (x) F2 (x) F2
    res = butson_enumerate(8, 2, mode="all_dephased_classes")
    f2 = fourier(2)
    assert (res.nodes, res.configurations, len(res.matrices)) == (3215, 30, 1)
    assert equivalent(res.matrices[0], tensor(tensor(f2, f2), f2))
    assert butson_enumerate(7, 4, mode="all_dephased_classes").matrices == []


def _classes_by_pairwise_search(configs, lev):
    """The class deduplication by fingerprint buckets and pairwise
    `equivalent`, kept as the oracle of the orbit keys."""
    buckets = {}
    reps = []
    for i, e in enumerate(configs):
        h = Hadamard(exponents=e, level=lev)
        bucket = buckets.setdefault(fingerprint(h), [])
        if not any(equivalent(h, rep) for rep in bucket):
            bucket.append(h)
            reps.append(i)
    return reps


def _recorded_configurations(monkeypatch):
    """The list that collects each configuration stack `butson_enumerate`
    hands to its class step."""
    seen = []
    real = hadamard_module._class_representatives

    def spy(configs, lev):
        seen.append(configs)
        return real(configs, lev)

    monkeypatch.setattr(hadamard_module, "_class_representatives", spy)
    return seen


def test_class_mode_matches_the_pairwise_oracle(monkeypatch):
    seen = _recorded_configurations(monkeypatch)
    for n in range(1, 7):
        for lev in range(1, 7):
            seen.clear()
            res = butson_enumerate(n, lev, mode="all_dephased_classes")
            got = [h.exponents.tolist() for h in res.matrices]
            if n == 1:
                assert not seen and got == [[[0]]]
                continue
            [configs] = seen
            assert len(configs) == res.configurations
            want = [configs[i].tolist()
                    for i in _classes_by_pairwise_search(configs, lev)]
            assert got == want, (n, lev)
            for a, b in itertools.combinations(res.matrices, 2):
                assert not equivalent(a, b), (n, lev)


def test_configuration_keys_increase_in_search_order(monkeypatch):
    seen = _recorded_configurations(monkeypatch)
    butson_enumerate(6, 6, mode="all_dephased_classes")
    [configs] = seen
    codes = configs[:, 1:, 1:] @ 6 ** np.arange(4, -1, -1)
    assert (np.diff(codes, axis=1) > 0).all()
    rows = [tuple(c) for c in codes.tolist()]
    assert rows == sorted(set(rows))


def test_class_mode_calls_neither_fingerprint_nor_equivalent(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("class mode called the pairwise search")

    monkeypatch.setattr(hadamard_module, "fingerprint", refuse)
    monkeypatch.setattr(hadamard_module, "equivalent", refuse)
    for n, lev, count in [(6, 4, 1), (4, 4, 2), (6, 6, 4)]:
        res = butson_enumerate(n, lev, mode="all_dephased_classes")
        assert len(res.matrices) == count


@pytest.mark.parametrize("k, lev", [(5, 4), (5, 6), (7, 4), (7, 6)])
def test_form_keys_order_as_code_rows(k, lev):
    rng = np.random.default_rng(k * lev)
    codes = rng.integers(0, lev ** k, (400, k))
    codes[::7, :-1] = codes[0, :-1]        # rows that differ in one code
    codes[1::7] = codes[2::7]               # repeated rows
    keys = _form_keys(codes, lev)
    assert keys.shape == (400,)
    ordered = np.array(sorted(map(tuple, codes.tolist())))
    assert np.array_equal(np.sort(keys), _form_keys(ordered, lev))
    same = keys[:, None] == keys[None, :]
    assert np.array_equal(same, (codes[:, None] == codes[None, :]).all(-1))


def _normal_key(h):
    """h dephased at (0, 0), its columns kept and its rows sorted as
    base-l codes, with the zero first row dropped."""
    e = dephase(h).exponents
    codes = np.sort(e[1:, 1:] @ h.level ** np.arange(h.n - 2, -1, -1))
    return _form_keys(codes[None], h.level)


def _orbit_cases():
    f2 = fourier(2)
    yield from (fourier(4), tensor(f2, f2), fourier(5), fourier(6), tao(),
                haagerup(Fraction(0)), haagerup(Fraction(1, 4)))
    for n, lev in [(7, 6), (8, 4)]:
        yield butson_enumerate(n, lev).matrices[0]


@pytest.mark.parametrize("h", list(_orbit_cases()),
                         ids=lambda h: f"{h.provenance}-{h.level}")
def test_every_move_is_a_form_with_the_same_table(h):
    table = np.sort(_orbit_keys(h.exponents, h.level))
    assert len(table) == h.n ** 2 * math.factorial(h.n - 1)
    assert (table == _normal_key(h)).any()
    for seed in range(3):
        move = random_equivalent(h, seed)
        assert (table == _normal_key(move)).any(), seed
        assert np.array_equal(
            np.sort(_orbit_keys(move.exponents, move.level)), table), seed


def test_tao_and_f6_have_disjoint_tables():
    a = _orbit_keys(tao().with_level(6).exponents, 6)
    b = _orbit_keys(fourier(6).exponents, 6)
    assert set(a.tolist()).isdisjoint(b.tolist())


def test_table_witnesses_have_order_and_level():
    grid = obstruction_table(10, 14)
    cells = [c for row in grid for c in row if c.outcome == "exists"]
    assert cells
    for cell in cells:
        expr, w = _catalog_witness(cell.n, cell.level)
        assert expr == cell.witness
        assert w.is_exact and w.n == cell.n
        assert cell.level % level(w) == 0, (cell, level(w))
        assert w.verify()


def test_dita_products_are_fourier_equivalent():
    for n, m in [(2, 2), (2, 3), (3, 2)]:
        l_params = dita_fourier_params(n, m)
        prod = dita(fourier(n), fourier(m), l_params)
        assert prod.verify()
        assert equivalent(prod, fourier(n * m))


def test_dita_generic_parameters_stay_hadamard():
    l_params = [[Fraction(0), Fraction(1, 5)], [Fraction(0), Fraction(3, 7)]]
    prod = dita(fourier(2), fourier(2), l_params)
    assert prod.verify()
    assert prod.n == 4
    assert prod.is_exact


# The one-parameter families as published (Tadej and Zyczkowski, "A concise
# guide to complex Hadamard matrices", 2006): an entry is a sign, a unit
# (1, i or w^k with w = e^{2 pi i/6}) and q, or Q for its conjugate.
HAAGERUP_H6 = """
1   1   1   1   1   1
1  -1   i   i  -i  -i
1   i  -1  -i   q  -q
1   i  -i  -1  -q   q
1  -i   Q  -Q   i  -1
1  -i  -Q   Q  -1   i
"""
PETRESCU_P7 = """
1   1    1    1    1    1   1
1   wq   w4q  w5   w3   w3  w
1   w4q  wq   w3   w5   w3  w
1   w5   w3   wQ   w4Q  w   w3
1   w3   w5   w4Q  wQ   w   w3
1   w3   w3   w    w    w4  w5
1   w    w    w3   w3   w5  w4
"""


def published(text):
    """The entries of a published pattern as (constant turn, power of q)."""
    out = []
    for row in text.split("\n")[1:-1]:
        out.append([])
        for tok in row.split():
            sign, i, w, k, q = re.fullmatch(
                r"(-?)(?:1|(i)|(w)(\d?))?([qQ]?)", tok).groups()
            turn = (Fraction(len(sign), 2) + Fraction(len(i or ""), 4)
                    + Fraction(int(k or 1) if w else 0, 6))
            out[-1].append((turn, {"q": 1, "Q": -1, "": 0}[q]))
    return out


def turn_value(turn, q, power):
    """e^{2 pi i turn} q^power for a unimodular q."""
    return cmath.exp(2j * math.pi * turn) * (q if power >= 0 else
                                             q.conjugate()) ** abs(power)


@pytest.mark.parametrize("family, text, base", [
    (haagerup, HAAGERUP_H6, 4), (petrescu, PETRESCU_P7, 6)],
    ids=["haagerup", "petrescu"])
def test_one_parameter_families_are_the_published_matrices(family, text,
                                                           base):
    pattern = published(text)
    for q in (Fraction(1, 4), Fraction(1, 7), Fraction(3, 5)):
        h = family(q)
        lev = math.lcm(base, q.denominator)
        want = [[(t + s * q) * lev for t, s in row] for row in pattern]
        assert all(x.denominator == 1 for row in want for x in row)
        assert h.is_exact and h.level == lev
        assert h.exponents.tolist() == [[int(x) % lev for x in row]
                                        for row in want]
        assert h.provenance == \
            f"{family.__name__}({q.numerator}/{q.denominator})"
    for t in (0.13, -0.3871):
        q = cmath.exp(2j * math.pi * t)
        h = family(q)
        want = [[turn_value(t0, q, s) for t0, s in row] for row in pattern]
        assert not h.is_exact and h.provenance == f"{family.__name__}(float)"
        assert np.abs(h.entries - np.array(want)).max() <= 1e-15


@pytest.mark.parametrize("family, n, m, params", [
    (f4q, 2, 2, lambda r, s: [[0, 0], [0, r]]),
    (f6_two_three, 2, 3, lambda r, s: [[0, 0], [0, r], [0, s]]),
    (f6_three_two, 3, 2, lambda r, s: [[0, 0, 0], [0, r, s]]),
], ids=["f4q", "f6_two_three", "f6_three_two"])
def test_dita_families_entry_by_entry(family, n, m, params):
    # entry (i m + a, j m + b) is (F_n)_ij L_aj (F_m)_ab
    arity = 1 if family is f4q else 2
    cells = list(itertools.product(range(n), range(m), range(n), range(m)))
    for rs in [(Fraction(1, 4), Fraction(1, 7)),
               (Fraction(3, 5), Fraction(2, 9))]:
        h = family(*rs[:arity])
        lt = params(*rs)
        lev = math.lcm(n, m, *(x.denominator for x in rs[:arity]))
        assert h.is_exact and h.level == lev
        for i, a, j, b in cells:
            t = Fraction(i * j, n) + lt[a][j] + Fraction(a * b, m)
            assert (h.exponents[i * m + a, j * m + b] - t * lev) % lev == 0
    for rs in [(0.13, 0.41), (-0.27, 0.05)]:
        qs = [cmath.exp(2j * math.pi * t) for t in rs]
        h = family(*qs[:arity])
        lv = [[x or 1 for x in row] for row in params(*qs)]
        assert not h.is_exact
        for i, a, j, b in cells:
            want = (cmath.exp(2j * math.pi * i * j / n) * lv[a][j]
                    * cmath.exp(2j * math.pi * a * b / m))
            assert abs(h.entries[i * m + a, j * m + b] - want) <= 1e-15


def test_regular_certificates_resum():
    for h in (fourier(5), tao(), haagerup(Fraction(1, 4)),
              haagerup(turns(0.13)), petrescu(turns(0.07)), f4q(turns(0.37)),
              f6_two_three(turns(0.11), turns(0.23))):
        rep = is_regular(h)
        assert rep.regular, h.provenance
        assert len(rep.certificates) == h.n * (h.n - 1)
        assert certificate_resum(h, rep), h.provenance


def test_bjorck_froberg_is_not_regular():
    rep = is_regular(bjorck_froberg())
    assert not rep.regular
    assert rep.failing_pair is not None


def test_level_detection():
    assert level(fourier(6)) == 6
    assert level(haagerup(Fraction(1, 4))) == 4
    assert level(Hadamard(entries=fourier(4).entries)) == 4
    assert math.isinf(level(bjorck_froberg()))
    assert level(fourier(1)) == 2


def test_named_catalog_dispatch():
    h = named("fourier", 4)
    assert h.n == 4
    with pytest.raises(UnknownName):
        named("nonexistent")


def test_file_round_trips(tmp_path):
    for h in EXACT_CATALOG:
        path = tmp_path / "m.but"
        write_but(h, str(path))
        back = read_but(str(path))
        assert back.level == h.level
        assert (back.exponents == h.exponents).all()
    b = bjorck_froberg()
    path = tmp_path / "m.cmat"
    write_cmat(b, str(path))
    back = read_cmat(str(path))
    assert np.allclose(back.entries, b.entries, atol=1e-12)


def test_parse_errors(tmp_path):
    bad = tmp_path / "bad.but"
    bad.write_text("2 2\n0 0\n")
    with pytest.raises(ParseError):
        read_but(str(bad))
    bad.write_text("junk\n")
    with pytest.raises(ParseError):
        read_but(str(bad))
    bad.write_text("2 2\n0 0\n0 x\n")
    with pytest.raises(ParseError):
        read_but(str(bad))
    # an empty matrix is malformed in either form
    with pytest.raises(MalformedMatrix):
        Hadamard(entries=np.zeros((0, 0)))
    with pytest.raises(MalformedMatrix):
        Hadamard(exponents=np.zeros((0, 0)), level=2)


def test_one_norm_catalog_values():
    for h in EXACT_CATALOG + [bjorck_froberg()]:
        n = h.n
        assert abs(one_norm(h.entries / math.sqrt(n)) - n * math.sqrt(n)) \
            <= 1e-10


def test_one_norm_strictly_below_bound_off_catalog():
    rng = np.random.default_rng(0)
    u = haar_sample("ORTHOGONAL", 4, 1, rng)[0]
    assert one_norm(u) < 4 * 2.0


def test_haar_sample_is_orthogonal():
    rng = np.random.default_rng(7)
    mats = haar_sample("ORTHOGONAL", 5, 3, rng)
    for u in mats:
        assert np.allclose(u @ u.T, np.eye(5), atol=1e-10)
    mats = haar_sample("UNITARY", 3, 2, rng)
    for u in mats:
        assert np.allclose(u @ u.conj().T, np.eye(3), atol=1e-10)


def test_ig_estimate_deterministic_per_seed():
    a = i_g_estimate("ORTHOGONAL", 4, 4, 500, 11)
    b = i_g_estimate("ORTHOGONAL", 4, 4, 500, 11)
    assert a == b
    c = i_g_estimate("ORTHOGONAL", 4, 4, 500, 12)
    assert a.value != c.value


@pytest.mark.parametrize("n", [0, -1])
def test_ig_estimate_rejects_order_below_one(n):
    for group in ("ORTHOGONAL", "UNITARY"):
        with pytest.raises(ValueError, match="n must be >= 1"):
            i_g_estimate(group, n, 1, 2, 1)


def test_obstruction_rules_spot_cells():
    assert strongest_obstruction(3, 2).rule == "LamLeung"
    assert strongest_obstruction(5, 2) is not None
    assert strongest_obstruction(5, 6) is not None
    assert strongest_obstruction(6, 5) is not None
    assert strongest_obstruction(6, 6) is None
    verdicts = obstructions(6, 5)
    assert any(v.obstructs for v in verdicts)


def _is_prime(p):
    return p > 1 and all(p % d for d in range(2, p))


def _rules_by_definition(n, lev):
    """(applies, obstructs) of each rule of RULE_ORDER, restated by trial
    division and by listing the levels each rule names."""
    if n == 1:
        return [(False, False)] * len(RULE_ORDER)
    primes = [p for p in range(2, lev + 1) if lev % p == 0 and _is_prime(p)]
    sums = [True]
    for v in range(1, n + 1):
        sums.append(any(sums[v - p] for p in primes if p <= v))
    # |d|^2 = n^n over Z[zeta_l], decided at l in {2, 3, 4, 6} only: n^n
    # is a square at l = 2, and else no inert prime divides it to an odd
    # power (p = 3 mod 4 at l = 4, p = 2 mod 3 at l = 3 and 6)
    odd = [p for p in range(2, n + 1) if _is_prime(p)
           and n * max(b for b in range(n) if n % p ** b == 0) % 2]
    not_norm = {2: math.isqrt(n ** n) ** 2 != n ** n,
                4: any(p % 4 == 3 for p in odd),
                3: any(p % 3 == 2 for p in odd),
                6: any(p % 3 == 2 for p in odd)}.get(lev, False)
    gen1 = n - 2 >= 3 and _is_prime(n - 2)
    gen2 = n % 2 == 0 and n // 2 >= 3 and _is_prime(n // 2)
    gen2_levels = {2 ** a * p ** b for p in range(n // 2 + 1, lev + 1)
                   if gen2 and _is_prime(p)
                   for a in range(7) for b in range(1, 7)}
    return [
        (True, not sums[n]),
        (lev == 2, lev == 2 and n != 2 and n % 4 != 0),
        (True, not_norm),
        (gen1, gen1 and lev in {2 * (n - 2) ** b for b in range(1, 7)}),
        (gen2, gen2 and lev in gen2_levels),
        (n == 5, n == 5 and lev % 5 != 0),
    ]


def test_obstruction_rules_match_their_definitions():
    for n in range(1, 41):
        for lev in range(2, 81):
            got = obstructions(n, lev)
            assert [v.rule for v in got] == list(RULE_ORDER)
            assert [(v.applies, v.obstructs) for v in got] == \
                _rules_by_definition(n, lev), (n, lev)
    # l = 2 p^b with p = n - 2 an odd prime; l = 2^a p^b, p > q, n = 2q
    assert obstructions(7, 50)[3].obstructs
    assert obstructions(10, 4 * 7 ** 2)[4].obstructs
    assert not obstructions(10, 4 * 5)[4].obstructs


def test_de_launey_at_a_large_order_reads_the_factors_of_n():
    """v_p(n^n) = n v_p(n): the rule never factors n^n, which took seconds
    at n = 16 000 by trial division.  16 000 = 2^7 5^3 has no prime
    3 (mod 4), so 16 000^16 000 is a sum of two squares.  At level 2, n^n
    is a square exactly when n is even or a square: 10 001 = 73 * 137 is
    neither, 10 000 is both."""
    start = time.perf_counter()
    got = obstructions(16000, 4)[2]
    assert time.perf_counter() - start < 0.5
    assert got == RuleVerdict("DeLauney", True, False, "16000^16000 is a "
                              "norm in the order-4 cyclotomic integers")
    assert obstructions(10001, 2)[2].obstructs
    assert not obstructions(10000, 2)[2].obstructs


def test_obstruction_table_shape():
    grid = obstruction_table(4, 4)
    assert len(grid) == 3 and len(grid[0]) == 3
    assert grid[0][0].outcome == "exists"
    assert grid[1][0].outcome == "obstructed"


@pytest.mark.parametrize("n_max,l_max", [(1, 3), (3, 1), (0, 0)])
def test_obstruction_table_needs_orders_and_levels_from_two(n_max, l_max):
    with pytest.raises(ValueError):
        obstruction_table(n_max, l_max)


def on_circle(a):
    """The unimodular value with real part a in (-1, 1) and Im > 0."""
    return complex(a, math.sqrt(1 - a * a))


def test_rounding_boundary_is_no_boundary():
    # Re q = 0.1234565 lies on a 6-digit rounding boundary
    for q in (on_circle(0.1234565), on_circle(0.3)):
        h = f4q(q)
        assert all(equivalent(h, random_equivalent(h, s)) for s in range(40))


def far_from_coincidence(q):
    """Is q at least 1e-6 turns from every root of unity of order 12 d,
    d <= 8?  The quadruple products of the three families are q^a zeta,
    |a| <= 4 and zeta a 12th root, so two distinct ones coincide only
    there."""
    t = cmath.phase(q) / (2 * math.pi)
    return all(abs(t * m - round(t * m)) / m > 1e-6
               for m in range(12, 97, 12))


@given(st.sampled_from([f4q, haagerup, petrescu]),
       st.one_of(st.integers(-999_999, 999_998).map(lambda k: (k + .5) / 1e6),
                 st.integers(-999_999_999, 999_999_998)
                 .map(lambda k: (k + .5) / 1e9),
                 st.sampled_from([0.1234565, 0.1234567895, -0.4999995])),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_float_random_moves_stay_equivalent(family, re_q, seed):
    # real parts on 6- and 9-digit rounding boundaries
    q = on_circle(re_q)
    assume(far_from_coincidence(q))
    h = family(q)
    assert not h.is_exact
    assert equivalent(h, random_equivalent(h, seed))


@given(st.integers(2, 5), st.integers(0, 20))
@settings(max_examples=30, deadline=None)
def test_fourier_random_moves_stay_equivalent(n, seed):
    h = fourier(n)
    moved = random_equivalent(h, seed)
    assert moved.verify()
    assert equivalent(h, moved)

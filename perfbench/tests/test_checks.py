"""Each check passes on the library's output and fails on a corrupted one."""

import json
from fractions import Fraction

import numpy as np
import pytest

import checks
import workloads
import qperm.hadamard as hd
from qperm import cli
from qperm.hadamard import butson_enumerate, fourier, tao, tensor
from qperm.models import (
    free_hg_oracle,
    model_word_expectation,
    pauli_magic,
    su2_sample,
)
from qperm.partitions import (
    PartitionFamily,
    char_moment,
    free_bessel_even_moment,
    gram_det_exact,
    gram_weingarten,
    truncated_char_moment,
)
from qperm.quantum import hom_dim_via_g, invariants

ALL, NC = PartitionFamily.ALL, PartitionFamily.NONCROSSING


def test_oracles_match_known_values():
    assert [checks.bell(k) for k in range(7)] == [1, 1, 2, 5, 15, 52, 203]
    assert [checks.catalan(k) for k in range(6)] == [1, 1, 2, 5, 14, 42]
    assert [checks.fuss_catalan(k) for k in range(5)] == [1, 1, 3, 12, 55]
    assert len(checks.set_partitions(5)) == 52
    assert len(checks.set_partitions(5, noncrossing=True)) == 42
    assert checks.s4_word_average(((1, 1),)) == Fraction(1, 4)
    assert checks.s4_word_average(((1, 1), (2, 2))) == Fraction(1, 12)
    assert checks.s4_word_average(((1, 1), (1, 2))) == 0
    assert checks.bareiss([[2, 1], [1, 3]]) == 5


def test_fourier_series_check():
    values = list(invariants(fourier(3), 3, "both").values)
    assert checks.check_fourier_series(3, values) == []
    values[2] += 1
    assert checks.check_fourier_series(3, values)


def test_series_lower_bound_and_hom_equals_fix():
    values = list(invariants(tao(), 2, "both").values)
    assert checks.check_series_lower_bound(values) == []
    assert hom_dim_via_g(tao(), 0, 2) == values[2]
    assert checks.check_series_lower_bound([1, 1, values[2] - 1])
    assert checks.check_series_lower_bound([1, 2, values[2]])


@pytest.mark.parametrize("family, oracle", [(ALL, checks.bell),
                                            (NC, checks.catalan)])
def test_character_moment_check(family, oracle):
    values = [char_moment(family, 6, k) for k in range(5)]
    assert checks.check_moments(values, oracle) == []
    values[3] += Fraction(1, 1000)
    assert checks.check_moments(values, oracle)


def test_truncated_moment_check():
    values = [truncated_char_moment(ALL, 7, 3, k) for k in range(5)]
    oracle = lambda k: checks.truncated_moment_oracle(7, 3, k)  # noqa: E731
    assert checks.check_moments(values, oracle) == []
    values[4] *= Fraction(1001, 1000)
    assert checks.check_moments(values, oracle)


def test_gram_weingarten_checks():
    gw = gram_weingarten(NC, 4, 5)
    rgs = [p.rgs for p in gw.partitions]
    assert checks.check_gram_matches(4, 5, True, rgs, gw.gram) == []
    assert checks.check_gram_inverse(gw.gram, gw.weingarten) == []
    bad_w = [list(r) for r in gw.weingarten]
    bad_w[1][2] += Fraction(1, 10 ** 9)
    assert checks.check_gram_inverse(gw.gram, bad_w)
    bad_g = [list(r) for r in gw.gram]
    bad_g[0][1] += 1
    assert checks.check_gram_matches(4, 5, True, rgs, bad_g)
    assert checks.check_gram_matches(4, 5, True, rgs[1:],
                                     [r[1:] for r in gw.gram[1:]])
    assert checks.check_gram_inverse(gw.gram, None)


def test_gram_determinant_checks():
    det_all = gram_det_exact(ALL, 3, 5)
    det_nc = gram_det_exact(NC, 4, 5)
    assert checks.check_gram_det_all(3, 5, det_all) == []
    assert checks.check_gram_det_free(4, 5, det_nc) == []
    assert checks.check_gram_det_all(3, 5, det_all + 1)
    assert checks.check_gram_det_free(4, 5, det_nc - 1)


def test_word_check():
    word = ((1, 2), (2, 1), (3, 3))
    est = model_word_expectation(word, 4000, 7)
    assert checks.check_word(word, est.value, est.stderr) == []
    assert checks.check_word(word, est.value + 10 * est.stderr, est.stderr)
    assert checks.check_word(word, float("nan"), est.stderr)


def test_free_moment_oracles_agree_with_library():
    assert checks.free_block_moment(3, 3, 9, 3) == free_hg_oracle(3, 3, 9, 3)
    assert [free_bessel_even_moment(k, 1) for k in range(6)] == \
        [checks.fuss_catalan(k) for k in range(6)]


def test_hadamard_checks():
    f5 = fourier(5)
    assert checks.check_hadamard(f5.exponents, 5) == []
    bad = f5.exponents.copy()
    bad[2, 3] = (bad[2, 3] + 1) % 5
    assert checks.check_hadamard(bad, 5)
    assert checks.check_hadamard(f5.exponents[:4], 5)


def test_class_check():
    res = butson_enumerate(4, 4, "all_dephased_classes")
    reps = [h.exponents for h in res.matrices]
    f2 = fourier(2)
    catalog = [("F4", fourier(4).exponents, 4),
               ("F2xF2", tensor(f2, f2).exponents, 2)]
    assert checks.check_classes(reps, 4, 2, catalog) == []
    # one class dropped
    assert checks.check_classes(reps[:1], 4, 2, catalog)
    # a class repeated in place of the other
    assert checks.check_classes([reps[0], reps[0]], 4, 2, [])
    # a catalog matrix that matches no representative
    assert checks.check_classes(reps, 4, 2, [("F5", fourier(5).exponents, 5)])
    assert checks.check_empty_search(0, True, "x") == []
    assert checks.check_empty_search(1, True, "x")
    assert checks.check_empty_search(0, False, "x")


def test_magic_check():
    blocks = pauli_magic(su2_sample(3)).blocks
    assert checks.check_magic_blocks(blocks) == []
    bad = blocks.copy()
    bad[0, 1] *= 1.001
    assert checks.check_magic_blocks(bad)


def _envelope(capsys, argv):
    assert cli.run(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_cli_command_checks_catch_corrupted_payloads(tmp_path, capsys):
    commands = {c.name: c for c in workloads.cli_commands(5, str(tmp_path))}
    corrupt = {
        "invariants F3": lambda p: p["values"].__setitem__(2, 4),
        "free-bessel": lambda p: p["moments"].__setitem__(
            3, {"num": "13", "den": "1"}),
        "gram-det ALL": lambda p: p.__setitem__("determinant",
                                                p["determinant"] + 1),
        "butson-enum (4,4)": lambda p: p["matrices"].pop(),
        "equiv F6 move": lambda p: p.__setitem__("equivalent", False),
        "weingarten ALL": lambda p: p["weingarten"][0].__setitem__(
            0, {"num": "1", "den": "7"}),
        "table 8x4": lambda p: p["cells"][4][0].__setitem__("outcome",
                                                            "exists"),
        "catalog F3": lambda p: p.__delitem__("matrix"),
    }
    for name, spoil in corrupt.items():
        cmd = commands[name]
        payload = _envelope(capsys, cmd.argv)["payload"]
        assert cmd.check(payload) == [], name
        spoil(payload)
        assert cmd.check(payload), name


def test_every_cli_command_passes_its_check(tmp_path, capsys):
    for cmd in workloads.cli_commands(11, str(tmp_path)):
        assert cmd.check(_envelope(capsys, cmd.argv)["payload"]) == [], \
            cmd.name


def test_butson_workload_reports_corrupted_class_counts(monkeypatch):
    ops = {op.name: op for op in workloads.butson_classify(3)}
    op = ops["classes (4,4)"]
    res = op.call()
    assert op.check(res, {}) == []
    res.matrices.pop()
    assert op.check(res, {})
    monkeypatch.setitem(workloads.CLASS_COUNTS, (4, 4), 3)
    assert ops["classes (4,4)"].check(op.call(), {})


def test_seeded_inputs_repeat():
    a = workloads.moments_float(4)
    b = workloads.moments_float(4)
    assert [op.name for op in a] == [op.name for op in b]
    c = workloads.moments_float(5)
    assert [op.name for op in a] != [op.name for op in c]
    rng = workloads.rng_for(2, 1)
    h = workloads.butson_move(hd, fourier(6), rng)
    assert checks.haagerup_histogram(h.exponents, 6) == \
        checks.haagerup_histogram(fourier(6).exponents, 6)
    assert not np.array_equal(h.exponents, fourier(6).exponents)


def test_invariant_workload_checks_catch_off_by_one_dimensions():
    from types import SimpleNamespace as NS
    ops = {op.name: op for op in workloads.invariants_exact(1)}
    f4 = ops["invariants F4 k<=4"].check
    assert f4(NS(values=(1, 1, 4, 16, 64)), {}) == []
    assert f4(NS(values=(1, 1, 4, 17, 64)), {})
    hom = ops["hom tao (0,2) full protocol"].check
    done = {"invariants tao k<=2": NS(values=(1, 1, 2))}
    assert hom(2, done) == []
    assert hom(3, done)
    assert ops["invariants tao k<=2"].check(NS(values=(1, 1, 1)), {})

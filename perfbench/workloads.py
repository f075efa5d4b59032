"""The benchmark's workloads: seeded inputs, operations and their checks.

A library workload is a list of Op values built from the seed.  Each op
calls the library through module attributes (qperm.quantum.invariants,
...), so that a tracer patching those attributes sees the call.  The check
of an op gets its value and the values of the ops before it, and returns a
list of failure messages.

cli-cold is a list of Command values: qperm argument lists, each run in a
fresh `python -m qperm.cli` process, with a check on the JSON envelope.
"""

import cmath
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import checks

N_MOMENTS = 9          # Weingarten and moment dimension
K_MOMENTS = 5          # largest moment order
WORD_SAMPLES = 15_000  # Monte Carlo samples per word
PAULI_SAMPLES = 1000   # spin-model magic unitaries checked


@dataclass
class Op:
    name: str
    call: Callable
    check: Callable


@dataclass
class Command:
    name: str
    argv: list
    check: Callable


def rng_for(seed, stream):
    """Independent generator per (seed, input stream)."""
    return np.random.default_rng([seed % (1 << 63), stream])


# ---------------------------------------------------------------------------
# equivalence moves made by the benchmark
# ---------------------------------------------------------------------------


def butson_move(hd, h, rng):
    """Row/column permutations and root-of-unity row/column phases."""
    n, lev = h.n, h.level
    e = h.exponents[rng.permutation(n)][:, rng.permutation(n)]
    e = e + rng.integers(0, lev, n)[:, None] + rng.integers(0, lev, n)[None]
    return hd.Hadamard(exponents=e % lev, level=lev,
                       provenance=h.provenance + "+move")


def complex_move(hd, entries, rng, provenance):
    """Permutations and unimodular row/column phases of a complex matrix."""
    m = np.asarray(entries, dtype=np.complex128)
    n = m.shape[0]
    m = m[rng.permutation(n)][:, rng.permutation(n)]
    m = m * np.exp(2j * np.pi * rng.random(n))[:, None] \
        * np.exp(2j * np.pi * rng.random(n))[None, :]
    return hd.Hadamard(entries=m, provenance=provenance + "+move")


def unit(turn):
    return complex(cmath.exp(2j * math.pi * turn))


# ---------------------------------------------------------------------------
# invariants-exact
# ---------------------------------------------------------------------------


def invariants_exact(seed):
    import qperm.hadamard as hd
    import qperm.quantum as qu
    rng = rng_for(seed, 1)
    f4 = butson_move(hd, hd.fourier(4), rng)
    f5 = butson_move(hd, hd.fourier(5), rng)
    tao_a = butson_move(hd, hd.tao(), rng)
    tao_b = butson_move(hd, hd.tao(), rng)

    def tao_hom_check(dim, done):
        fix = done["invariants tao k<=2"].values[2]
        return (checks.check_equal("hom(tao, 0, 2) vs fix c_2", dim, fix)
                + checks.check_series_lower_bound([1, 1, dim]))

    return [
        Op("invariants F4 k<=4", lambda: qu.invariants(f4, 4, "both"),
           lambda s, _: checks.check_fourier_series(4, s.values)),
        Op("invariants F5 k<=3", lambda: qu.invariants(f5, 3, "both"),
           lambda s, _: checks.check_fourier_series(5, s.values)),
        Op("invariants tao k<=2", lambda: qu.invariants(tao_a, 2, "both"),
           lambda s, _: checks.check_series_lower_bound(s.values)),
        Op("hom tao (0,2) full protocol",
           lambda: qu.hom_dim_via_g(tao_b, 0, 2), tao_hom_check),
    ]


# ---------------------------------------------------------------------------
# moments-float
# ---------------------------------------------------------------------------


def random_word(rng, length):
    return tuple((int(i), int(j)) for i, j in rng.integers(1, 5, (length, 2)))


def moments_float(seed):
    import qperm.hadamard as hd
    import qperm.models as mo
    import qperm.partitions as pa
    import qperm.quantum as qu
    rng = rng_for(seed, 2)
    fam_all, fam_nc = pa.PartitionFamily.ALL, pa.PartitionFamily.NONCROSSING
    n, kmax, s = N_MOMENTS, K_MOMENTS, N_MOMENTS // 2
    words = [random_word(rng, length) for length in (2, 3, 3)]
    word_seeds = [int(x) for x in rng.integers(0, 1 << 31, len(words))]
    f5 = complex_move(hd, hd.fourier(5).entries, rng, "fourier(5)")
    f4q = complex_move(hd, hd.f4q(unit(1 / 7)).entries, rng, "f4q")
    spins = [mo.SpinElement(tuple(v / np.linalg.norm(v)))
             for v in rng.standard_normal((PAULI_SAMPLES, 4))]

    def gw_check(noncrossing):
        def check(gw, _):
            rgs = [p.rgs for p in gw.partitions]
            return (checks.check_gram_matches(kmax, n, noncrossing, rgs,
                                              gw.gram)
                    + checks.check_gram_inverse(gw.gram, gw.weingarten))
        return check

    def moments_check(values, _):
        classical, free, truncated = values
        return (checks.check_moments(classical, checks.bell)
                + checks.check_moments(free, checks.catalan)
                + checks.check_moments(
                    truncated,
                    lambda k: checks.truncated_moment_oracle(n, s, k)))

    def word_op(word, wseed):
        return Op(f"word {word}",
                  lambda: mo.model_word_expectation(word, WORD_SAMPLES, wseed),
                  lambda est, _: checks.check_word(word, est.value,
                                                   est.stderr))

    def f4q_check(dims, _):
        hom, fix = dims
        return (checks.check_equal("f4q hom(0, k) vs fix(k)", hom, fix)
                + checks.check_series_lower_bound([1] + fix))

    def pauli_check(reports, _):
        fails = [f"check_magic rejected sample {i}"
                 for i, r in enumerate(reports) if not r.ok]
        for x in spins[:8]:
            fails += checks.check_magic_blocks(mo.pauli_magic(x).blocks)
        return fails

    return [
        Op(f"gram_weingarten ALL k={kmax}",
           lambda: pa.gram_weingarten(fam_all, kmax, n), gw_check(False)),
        Op(f"gram_weingarten NONCROSSING k={kmax}",
           lambda: pa.gram_weingarten(fam_nc, kmax, n), gw_check(True)),
        # three groups of tens of milliseconds each, timed as one operation
        Op("character moments k<=5",
           lambda: [[pa.char_moment(fam_all, n, k) for k in range(kmax + 1)],
                    [pa.char_moment(fam_nc, n, k) for k in range(kmax + 1)],
                    [pa.truncated_char_moment(fam_all, n, s, k)
                     for k in range(kmax + 1)]],
           moments_check),
        *[word_op(w, ws) for w, ws in zip(words, word_seeds)],
        Op("invariants complex F5 k<=3", lambda: qu.invariants(f5, 3, "both"),
           lambda v, _: checks.check_fourier_series(5, v.values)),
        Op("hom and fix f4q k<=3",
           lambda: ([qu.hom_dim_via_g(f4q, 0, k) for k in (1, 2, 3)],
                    [qu.fix_dim_direct(f4q, k) for k in (1, 2, 3)]),
           f4q_check),
        Op(f"pauli magic check x{PAULI_SAMPLES}",
           lambda: [qu.check_magic(mo.pauli_magic(x)) for x in spins],
           pauli_check),
    ]


# ---------------------------------------------------------------------------
# butson-classify
# ---------------------------------------------------------------------------

# (n, level) -> class count.  (6,4) has no independent source: it is the
# count this search reports, recomputed as the README describes.
CLASS_COUNTS = {(6, 4): 1, (6, 3): 1, (5, 5): 1, (4, 4): 2}


def butson_classify(seed):
    import qperm.hadamard as hd
    rng = rng_for(seed, 3)
    f2 = hd.fourier(2)
    # catalog matrices whose entries are l-th roots, per enumerated (n, l)
    catalog = {
        (6, 4): [hd.haagerup(Fraction(0)), hd.haagerup(Fraction(1, 4))],
        (6, 3): [hd.tao()],
        (5, 5): [hd.fourier(5)],
        (4, 4): [hd.fourier(4), hd.tensor(f2, f2)],
    }
    exact = [hd.fourier(4), hd.tensor(f2, f2), hd.fourier(5), hd.fourier(6),
             hd.tao(), hd.haagerup(Fraction(0)), hd.fourier(8)]
    floats = [hd.haagerup(unit(rng.random())), hd.petrescu(unit(rng.random())),
              hd.bjorck_froberg(), hd.f4q(unit(rng.random())),
              hd.f6_two_three(unit(rng.random()), unit(rng.random()))]
    exact_pairs = [(h, butson_move(hd, h, rng)) for h in exact for _ in "ab"]
    float_pairs = [(h, complex_move(hd, h.entries, rng, h.provenance))
                   for h in floats for _ in "ab"]
    f8, f2f4 = hd.fourier(8), hd.tensor(f2, hd.fourier(4))

    def classes_op(n, lev):
        cat = [(h.provenance, h.exponents, h.level) for h in catalog[n, lev]]

        def check(res, _):
            return ([] if res.complete else ["search incomplete"]) + \
                checks.check_classes([h.exponents for h in res.matrices], lev,
                                     CLASS_COUNTS[n, lev], cat)
        return Op(f"classes ({n},{lev})",
                  lambda: hd.butson_enumerate(n, lev, "all_dephased_classes"),
                  check)

    def witness_check(res, _):
        if len(res.matrices) != 1:
            return [f"{len(res.matrices)} witnesses, expected 1"]
        h = res.matrices[0]
        return checks.check_hadamard(h.exponents, h.level, "witness")

    def real_check(results, _):
        return [f for (n, res) in zip((3, 5, 6), results)
                for f in checks.check_empty_search(
                    len(res.matrices), res.complete, f"real Butson n={n}")]

    def all_true(what):
        return lambda flags, _: [f"{what} move {i} judged inequivalent"
                                 for i, f in enumerate(flags) if f is not True]

    return [
        *[classes_op(n, lev) for (n, lev) in CLASS_COUNTS],
        Op("real witnesses n=3,5,6",
           lambda: [hd.butson_enumerate(n, 2) for n in (3, 5, 6)], real_check),
        Op("witness (7,6)", lambda: hd.butson_enumerate(7, 6), witness_check),
        Op("witness (8,4)", lambda: hd.butson_enumerate(8, 4), witness_check),
        Op("equivalent exact moves",
           lambda: [hd.equivalent(a, b) for a, b in exact_pairs],
           all_true("exact")),
        Op("equivalent float moves",
           lambda: [hd.equivalent(a, b) for a, b in float_pairs],
           all_true("float")),
        Op("F8 vs F2 (x) F4", lambda: hd.equivalent(f8, f2f4),
           lambda eq, _: checks.check_equal("F8 ~ F2 (x) F4", eq, False)),
    ]


BUILDERS = {
    "invariants-exact": invariants_exact,
    "moments-float": moments_float,
    "butson-classify": butson_classify,
}
WORKLOADS = tuple(BUILDERS) + ("cli-cold",)


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------


def _frac(d):
    return Fraction(int(d["num"]), int(d["den"]))


def _payload_check(fn):
    """Wrap a payload check so that a missing key is a failure, not a crash."""
    def check(payload):
        try:
            return fn(payload)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return [f"malformed payload: {type(exc).__name__}: {exc}"]
    return check


def cli_commands(seed, workdir):
    """The cli-cold commands; writes the seeded matrix file they read."""
    rng = rng_for(seed, 4)
    n6 = 6
    e = np.outer(np.arange(n6), np.arange(n6))[rng.permutation(n6)]
    e = (e[:, rng.permutation(n6)] + rng.integers(0, n6, n6)[:, None]
         + rng.integers(0, n6, n6)[None]) % n6
    move = os.path.join(workdir, f"fourier6-move-{seed}.but")
    with open(move, "w") as fh:
        fh.write(f"{n6} {n6}\n")
        fh.writelines(" ".join(map(str, row)) + "\n" for row in e)
    mc_seeds = [str(int(x)) for x in rng.integers(0, 1 << 31, 3)]

    def fourier_cat(n):
        def check(p):
            want = (np.outer(np.arange(n), np.arange(n)) % n).tolist()
            return checks.check_equal("catalog fourier exponents",
                                      (p["matrix"]["exponents"],
                                       p["matrix"]["l"]), (want, n))
        return check

    def series(n, key):
        def check(p):
            vals = p[key]
            if key == "coefficients":
                vals = [_frac(v) for v in vals]
            return checks.check_fourier_series(n, vals)
        return check

    def classes44(p):
        mats = p["matrices"]
        reps = [m["exponents"] for m in mats]
        return (checks.check_equal("complete", p["complete"], True)
                + checks.check_classes(reps, 4, 2, []))

    def table_check(p):
        fails = []
        for row in p["cells"]:
            for cell in row:
                n, lev = cell["n"], cell["level"]
                if lev == 2:
                    # real Hadamard matrices need n = 1, 2 or 4 | n
                    want = "exists" if n in (1, 2) or n % 4 == 0 \
                        else "obstructed"
                elif lev == n:
                    want = "exists"  # the Fourier matrix
                else:
                    continue
                if cell["outcome"] != want:
                    fails.append(f"table cell ({n},{lev}): "
                                 f"{cell['outcome']}, expected {want}")
        return fails

    def gram_det(k, n, free):
        def check(p):
            fails = checks.check_equal("agree", p["agree"], True)
            oracle = checks.check_gram_det_free if free else \
                checks.check_gram_det_all
            return fails + oracle(k, n, p["determinant"])
        return check

    def weingarten_check(p):
        w = [[_frac(x) for x in row] for row in p["weingarten"]]
        rgs = [checks.blocks_to_labels(3, b) for b in p["partitions"]]
        return (checks.check_gram_matches(3, 4, False, rgs, p["gram"])
                + checks.check_gram_inverse(p["gram"], w))

    def free_hg(p):
        want = checks.free_block_moment(3, 3, 9, 3)
        return (checks.check_equal("free-hg oracle", _frac(p["oracle"]), want)
                + ([] if abs(p["formula"] - float(want)) <= 1e-9 * float(want)
                   else [f"free-hg formula {p['formula']} vs {want}"]))

    def ig(p):
        est = p["estimate"]
        return [] if est["value"] <= p["bound"] + 5 * est["stderr"] else \
            [f"I_G estimate {est['value']} above n sqrt(n) = {p['bound']}"]

    def ok(p):
        return checks.check_equal("ok", p["ok"], True)

    cmds = [
        ("verify F4", ["verify", "--catalog", "fourier:4"], ok),
        ("catalog F3", ["catalog", "fourier:3"], fourier_cat(3)),
        ("level tao", ["level", "--catalog", "tao"],
         lambda p: checks.check_equal("level", p["level"], 3)),
        ("equiv F6 move", ["equiv", "--in", move, "--catalog2", "fourier:6"],
         lambda p: checks.check_equal("equivalent", p["equivalent"], True)),
        ("butson-enum (4,4)", ["butson-enum", "--n", "4", "--l", "4",
                               "--mode", "all_dephased_classes"], classes44),
        ("obstruct (6,2)", ["obstruct", "--n", "6", "--l", "2"],
         lambda p: checks.check_equal("obstructed", p["obstructed"], True)),
        ("table 8x4", ["table", "--nmax", "8", "--lmax", "4"], table_check),
        ("magic F4", ["magic", "--catalog", "fourier:4"],
         lambda p: ok(p) + checks.check_equal("components",
                                              p["components"], 1)),
        ("invariants F3", ["invariants", "--catalog", "fourier:3",
                           "--kmax", "3"], series(3, "values")),
        ("poincare F4", ["poincare", "--catalog", "fourier:4", "--kmax", "3"],
         series(4, "coefficients")),
        ("gram-det ALL", ["gram-det", "--family", "all", "--k", "4",
                          "--n", "6"], gram_det(4, 6, False)),
        ("gram-det NONCROSSING", ["gram-det", "--family", "noncrossing",
                                  "--k", "4", "--n", "6"], gram_det(4, 6, True)),
        ("char-moments ALL", ["char-moments", "--family", "all", "--n", "6",
                              "--kmax", "4"],
         lambda p: checks.check_moments([_frac(v) for v in p["moments"]],
                                        checks.bell)),
        ("weingarten ALL", ["weingarten", "--family", "all", "--k", "3",
                            "--n", "4"], weingarten_check),
        ("free-bessel", ["free-bessel", "--kmax", "6", "--t", "1"],
         lambda p: checks.check_moments([_frac(v) for v in p["moments"]],
                                        checks.fuss_catalan)),
        ("free-hg", ["free-hg", "--n", "3", "--k", "3"], free_hg),
        ("pauli-check", ["pauli-check", "--samples", "40", "--seed",
                         mc_seeds[0]], ok),
        ("klein-check", ["klein-check", "--samples", "20", "--seed",
                         mc_seeds[1]], ok),
        ("one-norm F5", ["one-norm", "--catalog", "fourier:5"],
         lambda p: checks.check_equal("within", p["within"], True)),
        ("ig-estimate", ["ig-estimate", "--group", "UNITARY", "--n", "3",
                         "--k", "1", "--samples", "2000", "--seed",
                         mc_seeds[2]], ig),
    ]
    return [Command(name, argv, _payload_check(check))
            for name, argv, check in cmds]

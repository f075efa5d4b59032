"""End-to-end command line tests: envelopes, exit codes, determinism."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from qperm.cli import _emit_text, emit_json
from qperm.hadamard import fourier, read_but, tao
from qperm.partitions import gram_det_free

DATA = Path(__file__).parent / "data"
QPERM = shutil.which("qperm")


def run_cli(*argv):
    cmd = [QPERM] if QPERM else [sys.executable, "-m", "qperm.cli"]
    return subprocess.run(cmd + list(argv), capture_output=True, text=True)


def envelope(*argv):
    proc = run_cli(*argv)
    assert proc.returncode == 0, proc.stderr or proc.stdout
    return json.loads(proc.stdout)


def canonical_without_timing(stdout):
    env = json.loads(stdout)
    env.pop("timing", None)
    return json.dumps(env, sort_keys=True, separators=(",", ":")) + "\n"


def test_verify_golden_envelope():
    proc = run_cli("verify", "--catalog", "fourier:2")
    assert proc.returncode == 0
    golden = (DATA / "verify_f2.golden.json").read_text()
    assert canonical_without_timing(proc.stdout) == golden


def test_payloads_are_deterministic_modulo_timing():
    runs = [run_cli("ig-estimate", "--group", "ORTHOGONAL", "--n", "3",
                    "--k", "4", "--samples", "400", "--seed", "7").stdout
            for _ in range(2)]
    assert canonical_without_timing(runs[0]) == \
        canonical_without_timing(runs[1])


def test_exit_code_matrix(tmp_path):
    bad = tmp_path / "bad.but"
    bad.write_text("3 2\n0 0 0\n0 1 0\n0 0 1\n")
    trunc = tmp_path / "trunc.but"
    trunc.write_text("3 2\n0 0 0\n")
    cases = [
        (["verify", "--catalog", "fourier:3"], 0),
        (["verify", "--in", str(bad)], 0),
        (["obstruct", "--n", "5", "--l", "2"], 0),
        (["butson-enum", "--n", "3", "--l", "2"], 0),
        (["dephase", "--in", str(bad)], 1),
        (["verify", "--in", str(trunc)], 1),
        (["catalog", "nosuch"], 1),
        (["free-hg", "--n", "2", "--k", "1"], 1),
        (["free-hg", "--n", "3", "--k", "3", "--m", "-1"], 1),
        (["free-hg", "--n", "10", "--k", "2", "--N", "9"], 1),
        (["free-hg", "--n", "3", "--k", "3", "--m", "0"], 0),
        (["verify"], 2),
        (["verify", "--catalog", "fourier:3", "--in", str(bad)], 2),
        (["verify", "--catalog", "fourier:x"], 2),
        (["catalog", "haagerup:1/0"], 2),
        (["free-bessel", "--kmax", "2", "--t", "1/0"], 2),
        (["pauli-check", "--samples", "5"], 2),
        (["nonexistent-subcommand"], 2),
        (["invariants", "--catalog", "fourier:2", "--kmax", "-1"], 2),
        (["gram-det", "--family", "all", "--k", "5", "--n", "3"], 1),
        (["gram-det", "--family", "noncrossing", "--k", "3", "--n", "3"], 1),
        (["invariants", "--catalog", "haagerup:0.25", "--kmax", "1",
          "--tol", "nan"], 2),
        (["regular", "--catalog", "haagerup:0.25", "--tol", "nan"], 2),
        (["verify", "--catalog", "fourier:3", "--tol", "0"], 2),
        (["magic", "--catalog", "fourier:3", "--tol", "-1"], 2),
        (["one-norm", "--catalog", "fourier:3", "--tol", "inf"], 2),
        (["level", "--catalog", "tao", "--max-level", "0"], 2),
        (["level", "--catalog", "haagerup:0.25", "--max-level", "0"], 2),
        (["level", "--catalog", "tao", "--max-level", "-3"], 2),
        (["equiv", "--catalog", "fourier:4", "--catalog2", "fourier:4",
          "--max-order", "0"], 2),
        (["equiv", "--catalog", "fourier:4", "--catalog2", "fourier:4",
          "--max-order", "-5"], 2),
        (["table", "--nmax", "-1", "--lmax", "3"], 2),
        (["table", "--nmax", "3", "--lmax", "-1"], 2),
        (["table", "--nmax", "0", "--lmax", "3"], 2),
        (["table", "--nmax", "1", "--lmax", "3"], 2),
        (["table", "--nmax", "3", "--lmax", "1"], 2),
        (["butson-enum", "--n", "0", "--l", "2"], 2),
        (["butson-enum", "--n", "3", "--l", "0"], 2),
        (["butson-enum", "--n", "3", "--l", "2", "--budget", "-1"], 2),
        (["butson-enum", "--n", "3", "--l", "2", "--budget", "0"], 0),
        (["butson-enum", "--n", "9", "--l", "2"], 1),
        (["obstruct", "--n", "0", "--l", "2"], 2),
        (["obstruct", "--n", "3", "--l", "0"], 2),
        (["obstruct", "--n", "3", "--l", "1"], 2),
        (["obstruct", "--n", "1", "--l", "2"], 0),
    ]
    for argv, expected in cases:
        proc = run_cli(*argv)
        assert proc.returncode == expected, (argv, proc.stderr, proc.stdout)


def test_negative_verify_payload(tmp_path):
    env = envelope("verify", "--catalog", "fourier:3")
    assert env["payload"]["ok"] is True
    bad = tmp_path / "bad.but"
    bad.write_text("3 2\n0 0 0\n0 1 0\n0 0 1\n")
    env = envelope("verify", "--in", str(bad))
    assert env["payload"]["ok"] is False
    assert env["payload"]["failing_pair"] == [0, 1]
    proc = run_cli("obstruct", "--n", "5", "--l", "3")
    env = json.loads(proc.stdout)
    assert proc.returncode == 0
    assert env["payload"]["obstructed"] is True


def test_domain_error_envelope():
    proc = run_cli("catalog", "nosuch")
    env = json.loads(proc.stdout)
    assert proc.returncode == 1
    assert env["error"]["type"] == "UnknownName"


def test_value_error_on_parsed_request_is_a_domain_error():
    proc = run_cli("gram-det", "--family", "all", "--k", "5", "--n", "3")
    env = json.loads(proc.stdout)
    assert proc.returncode == 1
    assert env["error"]["type"] == "ValueError"


def test_error_envelope_honours_text_format():
    proc = run_cli("equiv", "--catalog", "fourier:9", "--catalog2",
                   "fourier:9", "--format", "text")
    assert proc.returncode == 1
    assert not proc.stdout.startswith("{")
    assert "  type: OrderTooLarge" in proc.stdout.splitlines()


def test_catalog_roundtrip_through_files(tmp_path):
    out = tmp_path / "t.but"
    envelope("catalog", "tao", "--out", str(out))
    back = read_but(str(out))
    assert (back.exponents == tao().exponents).all()
    out2 = tmp_path / "f.cmat"
    envelope("catalog", "fourier:3", "--out", str(out2))
    env = envelope("verify", "--in", str(out2))
    assert env["payload"]["ok"] is True


def test_rational_and_infinite_serialization():
    env = envelope("free-bessel", "--kmax", "2", "--t", "1/2")
    assert env["payload"]["moments"][2] == {"den": "1", "num": "1"}
    assert env["payload"]["t"] == {"den": "2", "num": "1"}
    env = envelope("level", "--catalog", "bjorck_froberg")
    assert env["payload"]["level"] == "infinite"
    assert env["warnings"]


def test_invariants_payload():
    env = envelope("invariants", "--catalog", "fourier:5",
                   "--kmax", "3", "--method", "both")
    assert env["payload"]["values"] == [1, 1, 5, 25]
    assert env["method_tags"] == ["both-agree"]


def test_turns_parameter_paths():
    env = envelope("catalog", "haagerup:1/4")
    assert env["payload"]["matrix"]["kind"] == "butson"
    assert env["payload"]["matrix"]["l"] == 4
    env = envelope("catalog", "haagerup:0.25")
    assert env["payload"]["matrix"]["kind"] == "complex"


def test_text_format():
    proc = run_cli("verify", "--catalog", "fourier:2", "--format", "text")
    assert proc.returncode == 0
    assert "ok: True" in proc.stdout
    assert "subcommand: verify" in proc.stdout


def test_equiv_subcommand():
    env = envelope("equiv", "--catalog", "fourier:2",
                   "--catalog2", "fourier:2")
    assert env["payload"]["equivalent"] is True
    env = envelope("equiv", "--catalog", "fourier:6", "--catalog2", "tao")
    assert env["payload"]["equivalent"] is False


def test_equiv_across_levels(tmp_path):
    # i*F2 written at level 4: its undephased entries are 4th roots, its
    # dephased form is F2
    path = tmp_path / "if2.but"
    path.write_text("2 4\n1 1\n1 3\n")
    env = envelope("equiv", "--in", str(path), "--catalog2", "fourier:2")
    assert env["payload"]["equivalent"] is True


def test_writers_print_integers_of_any_size():
    limit = sys.get_int_max_str_digits()
    det = gram_det_free(8, 9)  # about 5700 digits
    assert det.bit_length() > 4 * limit
    out = emit_json({"determinant": det})
    lines = _emit_text({"determinant": det})
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        digits = str(det)
    finally:
        sys.set_int_max_str_digits(limit)
    assert out == b'{"determinant":' + digits.encode() + b"}\n"
    assert lines == ["determinant: " + digits]


def test_gram_det_and_weingarten_payloads():
    env = envelope("gram-det", "--family", "all", "--k", "3", "--n", "5")
    assert env["payload"]["agree"] is True
    env = envelope("weingarten", "--family", "noncrossing",
                   "--k", "2", "--n", "4")
    assert env["payload"]["gram"] == [[4, 4], [4, 16]]
    assert env["payload"]["weingarten"][0][0] == {"den": "3", "num": "1"}


def test_magic_and_klein_subcommands():
    env = envelope("magic", "--catalog", "tao")
    assert env["payload"]["ok"] is True
    assert env["payload"]["components"] == 1
    env = envelope("klein-check", "--samples", "5", "--seed", "2")
    assert env["payload"]["ok"] is True


def test_magic_and_commutative_at_level_210():
    spec = "f6_two_three:1/5,2/7"
    env = envelope("magic", "--catalog", spec)
    assert env["payload"]["ok"] is True
    assert env["payload"]["exact"] is True
    env = envelope("commutative", "--catalog", spec)
    assert env["payload"]["commutative"] is False


def test_butson_enum_payload():
    env = envelope("butson-enum", "--n", "4", "--l", "2")
    assert env["payload"]["count"] == 1
    assert env["payload"]["matrices"][0]["kind"] == "butson"
    env = envelope("butson-enum", "--n", "3", "--l", "2")
    assert env["payload"]["empty"] is True


@pytest.mark.parametrize("argv", [["--n", "0", "--l", "2"],
                                  ["--n", "3", "--l", "2", "--budget", "-1"]])
def test_butson_enum_rejects_bad_inputs(argv):
    """A size below its range is a usage error, caught by the parser
    before the library runs: exit 2, the argument named on stderr and
    no envelope."""
    proc = run_cli("butson-enum", *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    bad = "--n" if argv[1] == "0" else "--budget"
    assert f"argument {bad}: expected a " in proc.stderr


@pytest.mark.parametrize("n", ["0", "-1"])
def test_ig_estimate_rejects_order_below_one(n):
    proc = run_cli("ig-estimate", "--group", "UNITARY", "--n", n, "--k", "1",
                   "--samples", "2", "--seed", "1")
    env = json.loads(proc.stdout)
    assert proc.returncode == 1
    assert env["error"] == {"type": "ValueError",
                            "message": "n must be >= 1"}


def test_table_payload_matches_obstruct():
    env = envelope("table", "--nmax", "6", "--lmax", "4")
    cells = env["payload"]["cells"]
    flat = {(c["n"], c["level"]): c["outcome"] for row in cells for c in row}
    assert flat[(2, 2)] == "exists"
    assert flat[(3, 2)] == "obstructed"
    assert flat[(4, 4)] == "exists"
    assert flat[(5, 4)] == "obstructed"

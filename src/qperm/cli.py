"""Command line front end: matrix I/O, catalog access, invariants, reports.

Every subcommand prints one report envelope (JSON by default) holding the
tool version, an echo of the request, the result payload, warnings and
method tags, plus a timing field that is excluded from determinism
guarantees.  Exit code 0 means the computation ran (negative mathematical
verdicts such as "obstructed" or "not Hadamard" are still successes),
1 means the library refused a parsed request (an error envelope, in the
requested format), 2 a usage error (stderr only).
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import dataclasses
import json
import math
import re
import sys
import time
from fractions import Fraction
from itertools import permutations

import numpy as np

from . import __version__
from .errors import ParseError, QpermError, VerifyFailed
from .hadamard import (
    Hadamard,
    butson_enumerate,
    catalog_names,
    dephase,
    equivalent,
    i_g_estimate,
    is_regular,
    level,
    named,
    obstruction_table,
    obstructions,
    one_norm,
    read_but,
    read_cmat,
    strongest_obstruction,
    write_but,
    write_cmat,
)
from .models import (
    check_so3q_relations,
    free_hg_formula,
    free_hg_oracle,
    klein_fourier,
    pauli_magic,
    su2_sample,
)
from .partitions import (
    PartitionFamily,
    char_moment,
    enum_partitions,
    free_bessel_even_moment,
    gram_det_classical,
    gram_det_exact,
    gram_det_free,
    gram_weingarten,
    truncated_char_moment,
)
from .quantum import (
    check_magic,
    image_commutative,
    invariants,
    magic_from_hadamard,
    orbit_components,
    permutation_magic,
    poincare_series,
)

_INT_RE = re.compile(r"^[+-]?\d+$")
_FRAC_RE = re.compile(r"^[+-]?\d+/\d+$")


class UsageError(Exception):
    """Bad request detected after argparse; reported with exit code 2."""


# ---------------------------------------------------------------------------
# request parsing helpers
# ---------------------------------------------------------------------------


def _catalog_param(tok):
    """Decode one catalog parameter token.

    Integers stay integers (matrix orders, tensor exponents).  Unimodular
    parameters are given in turns: "p/q" is the exact rational turn p/q and
    keeps the Butson representation, while a decimal turn produces the
    literal complex value exp(2*pi*i*t) and the float representation.
    """
    tok = tok.strip()
    if _INT_RE.match(tok):
        return int(tok)
    if _FRAC_RE.match(tok):
        return _fraction_arg(tok)
    try:
        t = float(tok)
    except ValueError:
        raise UsageError(f"cannot parse catalog parameter {tok!r}") from None
    return complex(cmath.exp(2j * math.pi * t))


def _catalog_matrix(spec):
    name, _, rest = spec.partition(":")
    name = name.strip()
    if not name:
        raise UsageError("empty catalog name")
    params = [_catalog_param(t) for t in rest.split(",")] if rest else []
    return named(name, *params)


def _load_matrix(args, suffix="", verify=True):
    """Resolve the --in/--catalog pair (or --in2/--catalog2) to a matrix.

    A matrix file is `.but` or `.cmat`; with `verify` its rows must be
    orthogonal.
    """
    path = getattr(args, "in" + suffix, None)
    spec = getattr(args, "catalog" + suffix, None)
    if (path is None) == (spec is None):
        raise UsageError("give exactly one of --in%s and --catalog%s"
                         % (suffix, suffix))
    if spec is not None:
        return _catalog_matrix(spec)
    if path.endswith(".but"):
        h = read_but(path)
    elif path.endswith(".cmat"):
        h = read_cmat(path)
    else:
        raise UsageError(f"unknown matrix extension on {path!r} "
                         "(expected .but or .cmat)")
    pair = h.failing_pair() if verify else None
    if pair is not None:
        raise VerifyFailed(f"rows {pair[0]} and {pair[1]} of {path} are "
                           "not orthogonal")
    return h


def _family(tok):
    try:
        return PartitionFamily[tok.upper().replace("-", "_")]
    except KeyError:
        raise UsageError(f"unknown partition family {tok!r}") from None


def _count(tok):
    """argparse type for a nonnegative integer (orders, sample counts,
    search budgets)."""
    if not _INT_RE.match(tok) or int(tok) < 0:
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative integer, got {tok!r}")
    return int(tok)


def _positive(tok):
    """argparse type for a positive integer (a largest level, order or
    grid size)."""
    if not _INT_RE.match(tok) or int(tok) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {tok!r}")
    return int(tok)


def _tol(tok):
    """argparse type for a tolerance: a finite positive float."""
    tol = float(tok)
    if not 0 < tol < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a finite positive tolerance, got {tok!r}")
    return tol


def _fraction_arg(tok):
    if _INT_RE.match(tok) or _FRAC_RE.match(tok):
        try:
            return Fraction(tok)
        except ZeroDivisionError:
            raise UsageError(f"zero denominator in {tok!r}") from None
    raise UsageError(f"expected an integer or p/q rational, got {tok!r}")


def _write_matrix(h, path):
    if path.endswith(".but"):
        if not h.is_exact:
            raise UsageError("cannot write a float matrix to .but; "
                             "use a .cmat path")
        write_but(h, path)
    elif path.endswith(".cmat"):
        write_cmat(h, path)
    else:
        raise UsageError(f"unknown matrix extension on {path!r}")


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------


def jsonable(obj):
    """Rewrite a payload into canonical JSON-ready values.

    Rationals become {"num","den"} decimal strings, complex numbers
    {"re","im"} floats, non-finite floats strings, arrays nested lists,
    dataclasses field dictionaries.
    """
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, Fraction):
        return {"num": str(obj.numerator), "den": str(obj.denominator)}
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "infinite" if f > 0 else "-infinite"
        return f
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return {"im": jsonable(z.imag), "re": jsonable(z.real)}
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, Hadamard):
        if obj.is_exact:
            return {
                "exponents": obj.exponents.tolist(),
                "kind": "butson",
                "l": int(obj.level),
                "n": obj.n,
                "provenance": obj.provenance,
            }
        return {
            "entries": jsonable(obj.entries),
            "kind": "complex",
            "n": obj.n,
            "provenance": obj.provenance,
        }
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return [jsonable(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


@contextlib.contextmanager
def _any_int_digits():
    """Lift Python's int-to-str digit limit while an envelope is rendered
    (exact Gram determinants run to thousands of digits); input parsing
    keeps the interpreter's guard."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@_any_int_digits()
def emit_json(envelope):
    """Canonical bytes: sorted keys, compact separators, trailing newline."""
    text = json.dumps(jsonable(envelope), sort_keys=True,
                      separators=(",", ":"), allow_nan=False)
    return (text + "\n").encode()


@_any_int_digits()
def _emit_text(value, indent=0):
    pad = "  " * indent
    lines = []
    value = jsonable(value)
    if isinstance(value, dict):
        for k in sorted(value):
            v = value[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.extend(_emit_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_emit_text(v, indent + 1))
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{value}")
    return lines


def _echo(args):
    skip = {"func", "format"}
    out = {"subcommand": args.subcommand}
    for k, v in vars(args).items():
        if k in skip or k == "subcommand" or v is None:
            continue
        if callable(v):
            continue
        out[k] = v if isinstance(v, (bool, int, float, str)) else str(v)
    return out


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (payload, warnings, method_tags)
# ---------------------------------------------------------------------------


def _cmd_verify(args):
    h = _load_matrix(args, verify=False)
    pair = h.failing_pair(args.tol)
    payload = {
        "exact": h.is_exact,
        "failing_pair": list(pair) if pair else None,
        "l": int(h.level) if h.is_exact else None,
        "n": h.n,
        "ok": pair is None,
    }
    return payload, [], ["exact" if h.is_exact else "float"]


def _cmd_dephase(args):
    h = dephase(_load_matrix(args))
    if args.out:
        _write_matrix(h, args.out)
    return {"matrix": h, "written": args.out}, [], []


def _cmd_catalog(args):
    h = _catalog_matrix(args.name)
    if args.out:
        _write_matrix(h, args.out)
    payload = {"matrix": h, "name": args.name, "written": args.out}
    return payload, [], ["exact" if h.is_exact else "float"]


def _cmd_level(args):
    h = _load_matrix(args)
    lev = level(h, tol=args.tol, max_level=args.max_level)
    warnings = []
    if math.isinf(lev):
        warnings.append("no rational angle fit within max-level; "
                        "level is infinite")
    payload = {"level": lev, "n": h.n}
    return payload, warnings, []


def _cmd_regular(args):
    rep = is_regular(_load_matrix(args), tol=args.tol)
    certs = {f"{i},{j}": [list(c) for c in cyc]
             for (i, j), cyc in sorted(rep.certificates.items())}
    payload = {
        "certificates": certs,
        "failing_pair": list(rep.failing_pair) if rep.failing_pair else None,
        "regular": rep.regular,
    }
    return payload, [], []


def _cmd_equiv(args):
    h = _load_matrix(args)
    k = _load_matrix(args, suffix="2")
    eq = equivalent(h, k, max_order=args.max_order)
    return {"equivalent": bool(eq)}, [], []


def _cmd_butson_enum(args):
    res = butson_enumerate(args.n, args.l, mode=args.mode,
                           budget=args.budget)
    payload = {
        "complete": res.complete,
        "configurations": res.configurations,
        "count": len(res.matrices),
        "empty": res.complete and not res.matrices,
        "l": res.level,
        "matrices": list(res.matrices),
        "mode": res.mode,
        "n": res.n,
        "nodes": res.nodes,
    }
    return payload, [], []


def _cmd_obstruct(args):
    if args.l < 2:
        raise UsageError("--l must be at least 2")
    rules = obstructions(args.n, args.l)
    strongest = strongest_obstruction(args.n, args.l)
    warnings = [f"{r.rule}: {r.detail}" for r in rules
                if r.applies and not r.obstructs and "undecided" in r.detail]
    payload = {
        "l": args.l,
        "n": args.n,
        "obstructed": strongest is not None,
        "rules": list(rules),
        "strongest": strongest,
    }
    return payload, warnings, []


def _cmd_table(args):
    if args.nmax < 2 or args.lmax < 2:
        raise UsageError("--nmax and --lmax must be at least 2")
    grid = obstruction_table(args.nmax, args.lmax)
    payload = {"cells": grid, "lmax": args.lmax, "nmax": args.nmax}
    return payload, [], []


def _cmd_magic(args):
    h = _load_matrix(args)
    u = magic_from_hadamard(h)
    rep = check_magic(u, tol=args.tol)
    payload = {
        "col_sums": rep.col_sums,
        "components": orbit_components(u, tol=args.tol),
        "dim": u.dim,
        "exact": u.is_exact,
        "n": u.n,
        "ok": rep.ok,
        "projection": rep.projection,
        "row_sums": rep.row_sums,
        "selfadjoint": rep.selfadjoint,
    }
    return payload, [], ["exact" if u.is_exact else "float"]


def _cmd_invariants(args):
    h = _load_matrix(args)
    series = invariants(h, args.kmax, method=args.method, tol=args.tol)
    payload = {
        "provenance": series.provenance,
        "values": list(series.values),
    }
    return payload, [], sorted(set(series.methods))


def _cmd_poincare(args):
    h = _load_matrix(args)
    series = invariants(h, args.kmax, method=args.method, tol=args.tol)
    payload = {"coefficients": list(poincare_series(series))}
    return payload, [], sorted(set(series.methods))


def _cmd_commutative(args):
    h = _load_matrix(args)
    flag = image_commutative(h, tol=args.tol)
    return {"commutative": bool(flag)}, [], []


def _cmd_gram_det(args):
    fam = _family(args.family)
    if fam is PartitionFamily.ALL:
        formula = gram_det_classical(args.k, args.n)
    elif fam is PartitionFamily.NONCROSSING:
        formula = gram_det_free(args.k, args.n)
    else:
        raise UsageError("gram-det supports families all and noncrossing")
    exact = gram_det_exact(fam, args.k, args.n)
    payload = {
        "agree": formula == exact,
        "determinant": exact,
        "family": fam.value,
        "formula": formula,
        "k": args.k,
        "n": args.n,
    }
    return payload, [], []


def _cmd_char_moments(args):
    fam = _family(args.family)
    if args.t is None:
        vals = [char_moment(fam, args.n, k) for k in range(args.kmax + 1)]
        s = None
    else:
        t = _fraction_arg(args.t)
        s = math.floor(t * args.n)
        vals = [truncated_char_moment(fam, args.n, s, k)
                for k in range(args.kmax + 1)]
    payload = {
        "family": fam.value,
        "moments": vals,
        "n": args.n,
        "truncation": s,
    }
    return payload, [], []


def _cmd_weingarten(args):
    fam = _family(args.family)
    gw = gram_weingarten(fam, args.k, args.n)
    payload = {
        "family": fam.value,
        "gram": [list(r) for r in gw.gram],
        "k": args.k,
        "n": args.n,
        "partitions": [[sorted(b) for b in p.blocks()] for p in gw.partitions],
        "singular": gw.is_singular,
        "weingarten": ([list(r) for r in gw.weingarten]
                       if gw.weingarten is not None else None),
    }
    warnings = ["gram matrix singular at this order"] if gw.is_singular else []
    return payload, warnings, []


def _cmd_free_bessel(args):
    t = _fraction_arg(args.t)
    vals = [free_bessel_even_moment(k, t) for k in range(args.kmax + 1)]
    return {"moments": vals, "t": t}, [], []


def _cmd_free_hg(args):
    m = args.m if args.m is not None else args.n
    nn = args.N if args.N is not None else args.n * args.n
    oracle = free_hg_oracle(args.n, m, nn, args.k)
    payload = {"N": nn, "k": args.k, "m": m, "n": args.n, "oracle": oracle}
    if args.m is None and args.N is None:
        formula = free_hg_formula(args.n, args.k)
        rel = abs(formula - oracle) / max(abs(oracle), 1e-30)
        payload["formula"] = formula
        payload["rel_err"] = float(rel)
    return payload, [], []


def _cmd_pauli_check(args):
    rng = np.random.default_rng(args.seed)
    worst = {"col_sums": 0.0, "projection": 0.0,
             "row_sums": 0.0, "selfadjoint": 0.0}
    ok = True
    for _ in range(args.samples):
        rep = check_magic(pauli_magic(su2_sample(rng)), tol=args.tol)
        ok = ok and rep.ok
        for key in worst:
            worst[key] = max(worst[key], getattr(rep, key))
    payload = {"ok": ok, "samples": args.samples, "worst": worst}
    return payload, [], ["pauli-model"]


def _cmd_klein_check(args):
    rng = np.random.default_rng(args.seed)
    worst_p = 0.0
    ok = True
    for _ in range(args.samples):
        grid = klein_fourier(pauli_magic(su2_sample(rng)), tol=args.tol)
        rep = check_so3q_relations(grid, tol=args.tol)
        ok = ok and rep.ok
        worst_p = max(worst_p, rep.skew, rep.twisted_det, rep.orthogonality)
    worst_s = 0.0
    for perm in permutations(range(4)):
        grid = klein_fourier(permutation_magic(list(perm)), tol=args.tol)
        rep = check_so3q_relations(grid, tol=args.tol)
        ok = ok and rep.ok
        worst_s = max(worst_s, rep.skew, rep.twisted_det, rep.orthogonality)
    payload = {
        "ok": ok,
        "pauli": {"samples": args.samples, "worst": worst_p},
        "permutations": {"count": 24, "worst": worst_s},
    }
    return payload, [], ["klein-twist"]


def _cmd_one_norm(args):
    h = _load_matrix(args)
    n = h.n
    value = one_norm(h.entries / math.sqrt(n))
    target = n * math.sqrt(n)
    payload = {
        "n": n,
        "target": target,
        "value": value,
        "within": abs(value - target) <= args.tol,
    }
    return payload, [], []


def _cmd_ig_estimate(args):
    est = i_g_estimate(args.group, args.n, args.k, args.samples, args.seed)
    bound = args.n * math.sqrt(args.n)
    payload = {
        "bound": bound,
        "estimate": est,
        "within_three_se": est.value <= bound + 3.0 * est.stderr,
    }
    return payload, [], ["monte-carlo"]


# ---------------------------------------------------------------------------
# argument parser
# ---------------------------------------------------------------------------


def _add_matrix_input(sub, suffix=""):
    sub.add_argument("--in" + suffix, metavar="PATH",
                     help="input matrix file (.but or .cmat)")
    sub.add_argument("--catalog" + suffix, metavar="SPEC",
                     help="catalog matrix, e.g. fourier:5 or haagerup:1/4 "
                          "(known names: %s)" % ", ".join(catalog_names()))


def build_parser():
    p = argparse.ArgumentParser(
        prog="qperm",
        description="Complex Hadamard matrices and quantum permutation "
                    "invariants.")
    p.add_argument("--version", action="version",
                   version="qperm " + __version__)
    subs = p.add_subparsers(dest="subcommand", required=True)

    def new(name, func, helptext, matrix=False, tol=None):
        sp = subs.add_parser(name, help=helptext)
        sp.set_defaults(func=func)
        sp.add_argument("--format", choices=("json", "text"), default="json")
        if matrix:
            _add_matrix_input(sp)
        if tol is not None:
            sp.add_argument("--tol", type=_tol, default=tol)
        return sp

    new("verify", _cmd_verify, "check row orthogonality", matrix=True,
        tol=1e-9)
    sp = new("dephase", _cmd_dephase, "normalize first row and column to 1",
             matrix=True)
    sp.add_argument("--out", metavar="PATH", help="write the result")
    sp = new("catalog", _cmd_catalog, "fetch a named catalog matrix")
    sp.add_argument("name", help="NAME or NAME:PARAM[,PARAM]")
    sp.add_argument("--out", metavar="PATH", help="write the matrix")
    sp = new("level", _cmd_level, "smallest root-of-unity level of entries",
             matrix=True, tol=1e-9)
    sp.add_argument("--max-level", type=_positive, default=256)
    new("regular", _cmd_regular, "row product cycle decomposition check",
        matrix=True, tol=1e-9)
    sp = new("equiv", _cmd_equiv, "decide Hadamard equivalence", matrix=True)
    _add_matrix_input(sp, suffix="2")
    sp.add_argument("--max-order", type=_positive, default=8)
    sp = new("butson-enum", _cmd_butson_enum,
             "enumerate dephased Butson matrices")
    sp.add_argument("--n", type=_positive, required=True)
    sp.add_argument("--l", type=_positive, required=True)
    sp.add_argument("--mode", choices=("any_witness", "all_dephased_classes"),
                    default="any_witness")
    sp.add_argument("--budget", type=_count, default=10_000_000)
    sp = new("obstruct", _cmd_obstruct, "run emptiness rules for H_n(l)")
    sp.add_argument("--n", type=_positive, required=True)
    sp.add_argument("--l", type=_positive, required=True)
    sp = new("table", _cmd_table, "existence/obstruction grid")
    sp.add_argument("--nmax", type=_positive, required=True)
    sp.add_argument("--lmax", type=_positive, required=True)
    new("magic", _cmd_magic, "magic unitary residuals and orbit count",
        matrix=True, tol=1e-9)
    sp = new("invariants", _cmd_invariants, "quantum invariants c_0..c_k",
             matrix=True, tol=1e-9)
    sp.add_argument("--kmax", type=_count, required=True)
    sp.add_argument("--method", choices=("both", "direct", "g_tensor"),
                    default="both")
    sp = new("poincare", _cmd_poincare, "Poincare series coefficients",
             matrix=True, tol=1e-9)
    sp.add_argument("--kmax", type=_count, required=True)
    sp.add_argument("--method", choices=("both", "direct", "g_tensor"),
                    default="both")
    new("commutative", _cmd_commutative,
        "is the symmetry image classical", matrix=True, tol=1e-9)
    sp = new("gram-det", _cmd_gram_det,
             "partition Gram determinant, formula vs exact")
    sp.add_argument("--family", choices=("all", "noncrossing"),
                    required=True)
    sp.add_argument("--k", type=_count, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp = new("char-moments", _cmd_char_moments,
             "character moments, optionally truncated")
    sp.add_argument("--family", choices=("all", "noncrossing"),
                    required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--kmax", type=_count, required=True)
    sp.add_argument("--t", help="truncation ratio as p/q")
    sp = new("weingarten", _cmd_weingarten,
             "partition Gram and Weingarten matrices")
    sp.add_argument("--family",
                    choices=("all", "noncrossing", "even_noncrossing"),
                    required=True)
    sp.add_argument("--k", type=_count, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp = new("free-bessel", _cmd_free_bessel,
             "even moments of the free Bessel law")
    sp.add_argument("--kmax", type=_count, required=True)
    sp.add_argument("--t", default="1", help="parameter as p/q")
    sp = new("free-hg", _cmd_free_hg,
             "free hypergeometric moments, formula vs oracle")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=_count, required=True)
    sp.add_argument("--m", type=int)
    sp.add_argument("--N", type=int)
    sp = new("pauli-check", _cmd_pauli_check,
             "sampled magic residuals of the spin model", tol=1e-12)
    sp.add_argument("--samples", type=_count, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp = new("klein-check", _cmd_klein_check,
             "twisted orthogonal relations of sampled magics", tol=1e-10)
    sp.add_argument("--samples", type=_count, required=True)
    sp.add_argument("--seed", type=int, required=True)
    new("one-norm", _cmd_one_norm, "entrywise 1-norm of H/sqrt(n)",
        matrix=True, tol=1e-10)
    sp = new("ig-estimate", _cmd_ig_estimate,
             "Monte Carlo 1-norm average over a compact group")
    sp.add_argument("--group", choices=("ORTHOGONAL", "UNITARY"),
                    required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=_count, required=True)
    sp.add_argument("--samples", type=_count, required=True)
    sp.add_argument("--seed", type=int, required=True)
    return p


def run(argv=None):
    """Parse, dispatch, print one envelope; return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        payload, warnings, tags = args.func(args)
    except UsageError as exc:
        print(f"qperm: usage error: {exc}", file=sys.stderr)
        return 2
    except (QpermError, ValueError) as exc:
        envelope = {
            "command": _echo(args),
            "error": {"message": str(exc), "type": type(exc).__name__},
            "tool": "qperm " + __version__,
        }
        code = 1
    else:
        envelope = {
            "command": _echo(args),
            "method_tags": list(tags),
            "payload": payload,
            "timing": {"seconds": round(time.perf_counter() - started, 6)},
            "tool": "qperm " + __version__,
            "warnings": list(warnings),
        }
        code = 0
    if args.format == "text":
        print("\n".join(_emit_text(envelope)))
    else:
        sys.stdout.buffer.write(emit_json(envelope))
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()

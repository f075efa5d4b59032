"""Source hygiene: no module of the package evaluates strings as code, no
function keeps a nested helper that it never uses, every function the
package defines is referenced somewhere in the project, no module calls
the numpy set routines whose first call imports numpy.ma, `hadamard`
compares floats through tolerance keys, never by rounding, no system of
`quantum` rebuilds its rows to verify, each system of `quantum` has one
contraction for its rows and its residuals and the Fix trace rows are one
scalar chain (no Gram-block chain `_block_gram`), `_exact` has one prime
loop, one prime pool and one zero test, at the embeddings modulo primes,
serve every exact check (`hadamard` and `quantum` alike; nothing reduces
modulo a cyclotomic polynomial), one float64 reduction, `reduce_mod`,
serves the float64 residue sums, and one split product, `matmul_mod`,
serves the sums of residue products of `quantum`."""

import ast
from pathlib import Path

import pytest

import qperm

PACKAGE = Path(qperm.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)


def _trees():
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_no_eval_or_exec_calls():
    offenders = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("eval", "exec")):
                offenders.append(f"{path.name}:{node.lineno} {node.func.id}")
    assert not offenders, offenders


def test_no_numpy_set_routines():
    """np.unique and np.setdiff1d import numpy.ma on their first call,
    about 16-23 ms of every fresh process that reaches them."""
    offenders = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("np", "numpy")
                    and node.func.attr in ("unique", "setdiff1d")):
                offenders.append(f"{path.name}:{node.lineno} "
                                 f"np.{node.func.attr}")
    assert not offenders, offenders


def test_hadamard_does_not_round():
    path = PACKAGE / "hadamard.py"
    offenders = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if (isinstance(f, ast.Name) and f.id in ("round", "around")
                or isinstance(f, ast.Attribute) and f.attr in ("round", "around")
                and isinstance(f.value, ast.Name)
                and f.value.id in ("np", "numpy")):
            offenders.append(f"hadamard.py:{node.lineno}")
    assert not offenders, offenders


def test_verification_does_not_rebuild_rows():
    """Every residuals_modp of quantum contracts its own A·X blocks; none
    reads a row chunk stream."""
    path = PACKAGE / "quantum.py"
    offenders = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, FUNCTION) and node.name == "residuals_modp":
            offenders += [f"quantum.py:{sub.lineno}" for sub in ast.walk(node)
                          if isinstance(sub, ast.Attribute)
                          and sub.attr in ("chunks_modp", "_chunks")]
    assert not offenders, offenders


def _class_methods(tree, name):
    cls = next(node for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and node.name == name)
    return {node.name: node for node in cls.body if isinstance(node, FUNCTION)}


@pytest.mark.parametrize("cls,calls", [
    ("_HomSystem", {"chunks_modp": ["_rows"], "chunks_complex": ["_rows"],
                    "residuals_modp": ["_blocks"]}),
    ("_FixSystem", {"chunks_modp": ["_rows", "_trace_chunks"],
                    "chunks_complex": ["_rows"],
                    "residuals_modp": ["_blocks"]}),
], ids=["_HomSystem", "_FixSystem"])
def test_system_has_one_contraction(cls, calls):
    """A system's streams form its rows as chain or block products (_rows;
    the Fix stream also _trace_chunks for exact magic inputs) and never
    contract against an identity: only its residuals call the contraction
    _blocks.  No _chunks is left, and quantum defines no GTensor class, no
    g_power and no _block_gram: the trace rows are one scalar chain over
    the rank-one factors of the blocks."""
    path = PACKAGE / "quantum.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    methods = _class_methods(tree, cls)
    assert "_chunks" not in methods
    for name, callees in calls.items():
        called = {sub.attr for sub in ast.walk(methods[name])
                  if isinstance(sub, ast.Attribute)}
        assert set(callees) <= called, (name, callees)
        assert ("_blocks" in called) == (name == "residuals_modp"), name
    assert not {node.name for node in tree.body
                if isinstance(node, (ast.ClassDef, *FUNCTION))} & {
        "GTensor", "g_power", "_block_gram"}


@pytest.mark.parametrize("module,cls,method", [
    ("_exact.py", "ModRREF", "process"),
    ("_exact.py", "_InverseSystem", "residuals_modp"),
    ("quantum.py", "_FixSystem", "_blocks"),
    ("quantum.py", "_HomSystem", "_blocks"),
])
def test_float_reductions_use_reduce_mod(module, cls, method):
    """The float64 sums of residue products are reduced by
    _exact.reduce_mod, never by np.mod or the % operator, which costs
    several times as much on float64 blocks."""
    path = PACKAGE / module
    node = _class_methods(ast.parse(path.read_text(), filename=str(path)),
                          cls)[method]
    offenders = [
        sub.lineno for sub in ast.walk(node)
        if isinstance(sub, (ast.BinOp, ast.AugAssign))
        and isinstance(sub.op, ast.Mod)
        or isinstance(sub, ast.Attribute) and sub.attr in ("mod", "fmod",
                                                           "remainder")]
    assert not offenders, (module, method, offenders)
    assert _calls(node, "reduce_mod")


def _calls(node, name):
    return any(isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
               and sub.func.id == name for sub in ast.walk(node))


def _is_power_53(node):
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and isinstance(node.left, ast.Constant) and node.left.value == 2
            and isinstance(node.right, ast.Constant)
            and node.right.value == 53)


def _is_group_loop(node):
    """A for loop over range(start, stop, step) with a computed step, the
    shape of a loop over groups of a contraction."""
    it = node.iter if isinstance(node, ast.For) else None
    return (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
            and it.func.id == "range" and len(it.args) == 3
            and not isinstance(it.args[2], ast.Constant))


def test_one_split_sum_of_residue_products():
    """_exact.matmul_mod is the one routine that splits a sum of residue
    products: quantum states no float64 bound (1 << 53 or 2 ** 53) and
    keeps no loop over bond groups, _exact defines no _matmul_mod, and the
    Fix rows, the Fix contraction and the Hom chains call matmul_mod."""
    path = PACKAGE / "quantum.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    offenders = [node.lineno for node in ast.walk(tree)
                 if _is_shift(node, 53) or _is_power_53(node)
                 or _is_group_loop(node)]
    assert not offenders, offenders
    path = PACKAGE / "_exact.py"
    assert "_matmul_mod" not in {
        node.name for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, FUNCTION)}
    fix = _class_methods(tree, "_FixSystem")
    chain = next(node for node in tree.body
                 if isinstance(node, FUNCTION) and node.name == "_chain_apply")
    for node in (fix["_rows"], fix["_blocks"], chain):
        assert _calls(node, "matmul_mod"), node.name


def test_exact_has_one_prime_loop():
    """certified_inverse is a client of certified_nullity: CRT and
    reconstruction run only in _lift_basis, and no cap on lift primes is
    left."""
    path = PACKAGE / "_exact.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    defs = {node.name: node for node in tree.body
            if isinstance(node, FUNCTION)}
    assert _calls(defs["certified_inverse"], "certified_nullity")
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, FUNCTION) and node.name != "_lift_basis":
                for name in ("crt_combine", "_reconstruct"):
                    assert not _calls(node, name), (path.name, node.name)
    assert "_MAX_LIFT_PRIMES" not in _referenced_names()


def _is_shift(node, bits):
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift)
            and isinstance(node.left, ast.Constant) and node.left.value == 1
            and isinstance(node.right, ast.Constant)
            and node.right.value == bits)


def _builds_a_pool(node):
    """A float64 prime bound (isqrt of 2^53 / ...), the old 2^26 cap, or
    a name of the pool helpers that `_exact.prime_pool` replaced."""
    if isinstance(node, ast.Call):
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")
        return name == "isqrt" and any(_is_shift(sub, 53)
                                       for sub in ast.walk(node))
    name = (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)
    return _is_shift(node, 26) or name in ("_max_safe_prime",
                                           "_primes_descending")


def test_one_prime_pool_and_one_zero_test():
    """hadamard and quantum take their primes and embeddings from
    _exact.zero_test_primes alone, no module defines or imports the
    reduction modulo Phi_l that the zero test replaced, and only
    _exact.prime_pool computes which primes the pool holds, in the package
    and in the tests."""
    for name in ("hadamard.py", "quantum.py"):
        path = PACKAGE / name
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
        assert "zero_test_primes" in imported, name
        assert not imported & {"_primes_descending", "_max_safe_prime",
                               "leading_primes", "embedding_roots"}, name
    reduction = {"root_reduction_table", "cyclotomic_poly",
                 "_poly_divmod_exact"}
    named = [f"{path.name}:{node.lineno}" for path, tree in _trees()
             for node in ast.walk(tree)
             if isinstance(node, FUNCTION) and node.name in reduction
             or isinstance(node, (ast.Import, ast.ImportFrom))
             and {alias.name for alias in node.names} & reduction]
    assert not named, named
    offenders = []
    for top in (PACKAGE, ROOT / "tests"):
        for path in sorted(top.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            pool = {id(sub) for node in ast.walk(tree)
                    if isinstance(node, FUNCTION) and node.name == "prime_pool"
                    for sub in ast.walk(node)}
            offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                          if _builds_a_pool(node) and id(node) not in pool]
    assert not offenders, offenders


def _nested_defs(func):
    """The defs whose nearest enclosing function is func."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, FUNCTION):
            yield node
        elif not isinstance(node, (ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_no_unreferenced_nested_defs():
    offenders = []
    for path, tree in _trees():
        for func in ast.walk(tree):
            if not isinstance(func, FUNCTION):
                continue
            for inner in _nested_defs(func):
                own = {id(n) for n in ast.walk(inner)}
                if not any(isinstance(n, ast.Name) and n.id == inner.name
                           and id(n) not in own for n in ast.walk(func)):
                    offenders.append(f"{path.name}:{inner.lineno} "
                                     f"{func.name}.{inner.name}")
    assert not offenders, offenders


def _referenced_names():
    """Every name, attribute and imported name used in the project's code."""
    names = set()
    for top in (PACKAGE, ROOT / "tests", ROOT / "demos", ROOT / "perfbench"):
        for path in top.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
    return names


def test_every_def_is_referenced():
    used = _referenced_names()
    offenders = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if (isinstance(node, FUNCTION) and node.name not in used
                    and not (node.name.startswith("__")
                             and node.name.endswith("__"))):
                offenders.append(f"{path.name}:{node.lineno} {node.name}")
    assert not offenders, offenders

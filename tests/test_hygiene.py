"""Source hygiene: no module of the package evaluates strings as code."""

import ast
from pathlib import Path

import qperm

PACKAGE = Path(qperm.__file__).parent


def test_no_eval_or_exec_calls():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("eval", "exec")):
                offenders.append(f"{path.name}:{node.lineno} {node.func.id}")
    assert not offenders, offenders

"""Every linear solve in the package goes through one tridiagonal kernel,
`spatial.tridiagonal_solver`, and no n x n matrix is formed.  This guard
parses the package source and fails on a call that would bring back a
dense matrix or a second solve path."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hbwave"
FORBIDDEN = {
    "np.diag",
    "np.linalg.cond", "np.linalg.solve", "np.linalg.inv",
    "scipy.linalg.solve", "scipy.linalg.solve_banded",
    "scipy.linalg.lu_factor", "scipy.linalg.lu_solve",
}
ALIASES = {"numpy": "np"}


def dotted(node):
    """'a.b.c' for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(ALIASES.get(node.id, node.id))
    return ".".join(reversed(parts))


def forbidden_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names = [dotted(node)]
        elif isinstance(node, ast.ImportFrom) and node.module:
            module = ".".join(ALIASES.get(p, p)
                              for p in node.module.split("."))
            names = [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            if name in FORBIDDEN:
                yield node.lineno, name


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_dense_matrix_or_second_solver(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert list(forbidden_uses(tree)) == []


def test_guard_sees_each_spelling():
    code = ("import numpy\nimport scipy.linalg\n"
            "from scipy.linalg import lu_factor\n"
            "numpy.diag(v)\nnp.linalg.inv(a)\n"
            "scipy.linalg.solve_banded((1, 1), ab, b)\n")
    assert {name for _, name in forbidden_uses(ast.parse(code))} == {
        "scipy.linalg.lu_factor", "np.diag", "np.linalg.inv",
        "scipy.linalg.solve_banded"}

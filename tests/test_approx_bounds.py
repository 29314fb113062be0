"""A `pytest.approx` that names `rel=` alone still passes whatever is
within its default abs=1e-12 of the expected value, which for values near
1e-5 is a relative bound 1e5 times looser than the one written.  This
guard parses the test sources and fails on an `approx` call, spelled in
any way, that passes `rel=` without `abs=`."""
import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


def rel_without_abs(tree):
    """Sorted (line, source) of each call of `approx`, plain or as an
    attribute of anything, that passes rel, by name or position, but not
    abs."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and ast.unparse(
                node.func).rpartition(".")[2] == "approx"):
            continue
        named = {k.arg for k in node.keywords}
        # approx(expected, rel, abs) takes both by position too
        if (("rel" in named or len(node.args) > 1)
                and not ("abs" in named or len(node.args) > 2)):
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_relative_approx_names_its_absolute_bound(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert rel_without_abs(tree) == []


def test_guard_sees_each_spelling():
    code = ("pytest.approx(x, rel=1e-9)\n"
            "approx(x, rel=1e-9)\n"
            "pytest.approx(\n    x,\n    rel=1e-9)\n"
            "pytest.approx(x, 1e-9)\n"
            "pytest.approx(x, rel=1e-9, abs=0.0)\n"
            "pytest.approx(x, 1e-9, 0.0)\n"
            "pytest.approx(x, abs=1e-9)\n"
            "pytest.approx(x)\n"
            "approximate(x, rel=1e-9)\n")
    found = rel_without_abs(ast.parse(code))
    assert [line for line, _ in found] == [1, 2, 3, 6]

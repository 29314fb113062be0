"""The choice between the linear and a nonlinear solve is made in one place,
`nonlinear.solve`; besides it, only the CLI's refusal of `deriv-check` on
a linear config asks for the linear kind.  This guard parses the package
source and fails on any other `==` or `!=` comparison with "linear"."""
import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hbwave"
# (file, enclosing function) -> comparisons allowed there
ALLOWED = {("nonlinear.py", "solve"): 1, ("cli.py", "_run_verb"): 1}


def is_linear(node):
    return isinstance(node, ast.Constant) and node.value == "linear"


def linear_comparisons(node, scope=""):
    """Dotted name of the enclosing function or class of each == or !=
    comparison with the literal "linear" under `node`."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        if isinstance(child, ast.Compare):
            operands = [child.left] + child.comparators
            for op, a, b in zip(child.ops, operands, operands[1:]):
                if (isinstance(op, (ast.Eq, ast.NotEq))
                        and (is_linear(a) or is_linear(b))):
                    yield scope
        yield from linear_comparisons(child, inner)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_linear_kind_is_chosen_in_one_place(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    counts = Counter(linear_comparisons(tree))
    assert {scope: n for scope, n in counts.items()
            if n > ALLOWED.get((path.name, scope), 0)} == {}


def test_guard_sees_each_spelling():
    code = ('top = kind == "linear"\n'
            'def solve(kind):\n'
            '    if kind != "linear":\n'
            '        return "linear" == kind\n'
            'class Study:\n'
            '    def run(self, kind):\n'
            '        def inner():\n'
            '            return 0 < len(kind) == "linear"\n'
            '        return kind in ("linear",), kind < "linear", inner\n'
            'label = "linear"\n')
    assert Counter(linear_comparisons(ast.parse(code))) == {
        "": 1, "solve": 2, "Study.run.inner": 1}

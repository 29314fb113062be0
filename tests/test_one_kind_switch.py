"""The choice between the linear and a nonlinear solve is made in one place,
`nonlinear.solve`; besides it, only the CLI's refusal of `deriv-check` on
a linear config asks for the linear kind.  This guard parses the package
source and fails on any other `==` or `!=` comparison with "linear", or
`in` or `not in` test against `KINDS` or a tuple holding "linear"."""
import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hbwave"
# (file, enclosing function) -> comparisons allowed there.  Besides the
# choice and the refusal, three membership tests choose no solve:
# `_check_kind` (is the kind nonlinear), `manufactured_case` (does r exist,
# for its harmonic count K) and `_Oracle.__init__` (is the kind known)
ALLOWED = {("nonlinear.py", "solve"): 1, ("cli.py", "_run_verb"): 1,
           ("nonlinear.py", "_check_kind"): 1,
           ("studies.py", "manufactured_case"): 1,
           ("oracle.py", "_Oracle.__init__"): 1}


def is_linear(node):
    return isinstance(node, ast.Constant) and node.value == "linear"


def is_kinds(node):
    """`KINDS`, `<module>.KINDS`, or a tuple, list or set display that
    holds the literal "linear"."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(map(is_linear, node.elts))
    return (isinstance(node, ast.Name) and node.id == "KINDS"
            or isinstance(node, ast.Attribute) and node.attr == "KINDS")


def linear_comparisons(node, scope=""):
    """Dotted name of the enclosing function or class of each == or !=
    comparison with the literal "linear", and each in or not in test
    against KINDS or a display holding "linear", under `node`."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        if isinstance(child, ast.Compare):
            operands = [child.left] + child.comparators
            for op, a, b in zip(child.ops, operands, operands[1:]):
                if (isinstance(op, (ast.Eq, ast.NotEq))
                        and (is_linear(a) or is_linear(b))
                        or isinstance(op, (ast.In, ast.NotIn))
                        and is_kinds(b)):
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
        "": 1, "solve": 2, "Study.run": 1, "Study.run.inner": 1}


def test_guard_sees_each_membership_spelling():
    code = ('def solve(kind):\n'
            '    if kind in KINDS:\n'
            '        return kind not in nonlinear.KINDS\n'
            '    return kind in ("linear", *KINDS), kind in ["linear"]\n'
            'def run(kind):\n'
            '    return kind not in {"linear", "westervelt"}\n'
            'def known(kind):\n'
            '    return kind in SOLVER_KINDS, "linear" in kind, kind in K\n')
    assert Counter(linear_comparisons(ast.parse(code))) == {
        "solve": 4, "run": 1}

"""The MGT operator's boundary terms are defined once.  Only `spatial.py`
(the operator's end rows), `model.py` (validation) and `diagnostics.py`
(the energy identity and the boundary traces) read a boundary condition's
`beta` or `gamma`, or call `robin_coefficient`; every other module takes
the end rows, and the Robin u_t diagonal `d_beta`, from the assembled
operator.  The one exception is `studies.manufactured_case`, whose exact
solution must meet each end's condition as the model states it, apart
from the operator it checks.  This guard parses the package source and
fails on any other read."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hbwave"
NAMES = {"beta", "gamma", "robin_coefficient"}
ALLOWED = {"spatial.py", "model.py", "diagnostics.py"}
EXEMPT = {("studies.py", "manufactured_case")}   # (file, top-level function)


def boundary_reads(tree):
    """(line, name) of each read of a NAMES attribute under `tree`: as an
    attribute, or through getattr with a literal name; and each bare name
    robin_coefficient.  A local variable named beta or gamma, such as the
    config parser's, reads no boundary condition."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in NAMES:
            yield node.lineno, node.attr
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)
              and node.args[1].value in NAMES):
            yield node.lineno, node.args[1].value
        elif isinstance(node, ast.Name) and node.id == "robin_coefficient":
            yield node.lineno, node.id


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name not in ALLOWED],
                         ids=lambda p: p.name)
def test_boundary_terms_are_read_in_one_place(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    tree.body = [node for node in tree.body
                 if (path.name, getattr(node, "name", None)) not in EXEMPT]
    assert sorted(boundary_reads(tree)) == []


def test_guard_sees_each_spelling():
    code = ("d = -2.0 * bc.beta / h\n"
            "g = model.bc_right.gamma\n"
            "q = bc.robin_coefficient(m, omega)\n"
            "f = bc.robin_coefficient\n"
            "b = getattr(bc, 'beta')\n"
            "c = getattr(bc, 'gamma', 0.0)\n"
            "r = robin_coefficient\n"
            "bc = BoundaryCondition(kind, beta=beta, gamma=0.5)\n"
            "name = 'beta'\n"
            "k = bc.kind\n")
    assert sorted(boundary_reads(ast.parse(code))) == [
        (1, "beta"), (2, "gamma"), (3, "robin_coefficient"),
        (4, "robin_coefficient"), (5, "beta"), (6, "gamma"),
        (7, "robin_coefficient")]

"""A solved state becomes its energy-to-data ratios in one place,
`diagnostics.energy_ratios`; only `diagnostics.py` calls the data estimates
`estimate_rhs_lo`, `estimate_rhs_me` and `estimate_rhs_hi`.  This guard
parses the package source and fails on a call to one of them anywhere
else, under its own name, through a module or under an import alias."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hbwave"
ESTIMATES = {"estimate_rhs_lo", "estimate_rhs_me", "estimate_rhs_hi"}
HOME = "diagnostics.py"


def estimate_calls(tree):
    """(line, estimate) of each call to a data estimate under `tree`."""
    aliases = {alias.asname: alias.name
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names
               if alias.name in ESTIMATES and alias.asname}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        name = aliases.get(name, name)
        if name in ESTIMATES:
            yield node.lineno, name


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                       if p.name != HOME),
                         ids=lambda p: p.name)
def test_data_estimates_are_called_in_diagnostics_only(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert list(estimate_calls(tree)) == []


def test_guard_sees_each_spelling():
    # the ratio code tau_sweep once carried beside diagnostics
    code = ("from .diagnostics import estimate_rhs_lo, compute_energies\n"
            "def tau_sweep(f, model, taus):\n"
            "    for tau in taus:\n"
            "        den = estimate_rhs_lo(report.rhs, m_tau)\n"
            "        e_lo = compute_energies(report.u, m_tau).lo_total\n"
            "from . import diagnostics\n"
            "from .diagnostics import estimate_rhs_hi as hi\n"
            "me = diagnostics.estimate_rhs_me(energy, r, model)\n"
            "top = hi(energy, r, model)\n"
            "named = estimate_rhs_lo\n")
    assert sorted(estimate_calls(ast.parse(code))) == [
        (4, "estimate_rhs_lo"), (8, "estimate_rhs_me"), (9, "estimate_rhs_hi")]


def test_guard_finds_the_calls_in_diagnostics():
    # the guard is not vacuous: diagnostics itself calls each estimate
    tree = ast.parse((SRC / HOME).read_text())
    assert {name for _, name in estimate_calls(tree)} == ESTIMATES

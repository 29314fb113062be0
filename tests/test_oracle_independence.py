"""The time-stepping oracle checks harmonic balance from outside, so it
shares only the model, the m = 0 spatial operator and the kinds' names with
it.  This guard parses `oracle.py` and fails on any import from the package
beyond those: nothing from `linear`, `norms`, `studies`, `diagnostics`,
`io` or `cli`, whose solves, norms and studies the oracle is checked
against."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hbwave"
# package module -> the names the oracle may import from it; None: any
ALLOWED = {
    "errors": None,
    "model": {"ValidatedModel", "min_samples", "to_time_samples"},
    "spatial": {"assemble_laplacian", "band_product", "gradient",
                "scale_rows", "tridiagonal_solver"},
    "nonlinear": {"KINDS"},
}


def package_imports(tree):
    """Sorted (module, name) of each import of the package under `tree`,
    relative or absolute, at any depth: name is None where a whole module
    is imported (`from . import linear`, `import hbwave.linear`)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(a.name.split(".", 1)[1], None) for a in node.names
                      if a.name.startswith("hbwave.")]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "hbwave" and not module.startswith("hbwave."):
                    continue
                module = module[len("hbwave."):]
            if module:
                found += [(module, a.name) for a in node.names]
            else:
                found += [(a.name, None) for a in node.names]
    return sorted(found, key=lambda pair: (pair[0], pair[1] or ""))


def disallowed(pairs):
    return [(module, name) for module, name in pairs
            if module not in ALLOWED
            or ALLOWED[module] is not None and name not in ALLOWED[module]]


def test_oracle_imports_nothing_of_harmonic_balance():
    tree = ast.parse((SRC / "oracle.py").read_text())
    pairs = package_imports(tree)
    assert pairs, "the guard found no import of the package in oracle.py"
    assert disallowed(pairs) == []


def test_guard_sees_each_spelling():
    code = ("import math\n"
            "import numpy as np\n"
            "from numpy.lib.stride_tricks import as_strided\n"
            "from .errors import StepRejected, UndersampledTime\n"
            "from .model import ValidatedModel, Grid\n"
            "from .nonlinear import KINDS, solve\n"
            "from . import norms\n"
            "import hbwave.studies\n"
            "from hbwave.linear import linear_solver\n"
            "def run():\n"
            "    from .diagnostics import compute_energies\n"
            "    from .io import write_csv\n")
    pairs = package_imports(ast.parse(code))
    assert pairs == [
        ("diagnostics", "compute_energies"), ("errors", "StepRejected"),
        ("errors", "UndersampledTime"), ("io", "write_csv"),
        ("linear", "linear_solver"), ("model", "Grid"),
        ("model", "ValidatedModel"), ("nonlinear", "KINDS"),
        ("nonlinear", "solve"), ("norms", None), ("studies", None)]
    assert disallowed(pairs) == [
        ("diagnostics", "compute_energies"), ("io", "write_csv"),
        ("linear", "linear_solver"), ("model", "Grid"),
        ("nonlinear", "solve"), ("norms", None), ("studies", None)]

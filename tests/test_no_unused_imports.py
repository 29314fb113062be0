"""No module of the package imports a name it does not use.  No linter is
a dependency, so this parses the source with the standard library's `ast`."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hbwave"


def unused_imports(tree):
    """Sorted (line, name) of each name an import under `tree` binds and no
    expression of the module reads.  `import a.b` binds `a`."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for line, name in bound if name not in read)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert unused_imports(tree) == []


def test_check_sees_each_form():
    code = ("from __future__ import annotations\n"
            "import os\n"
            "import numpy as np\n"
            "import scipy.linalg\n"
            "from .spatial import (band_product, scale_rows,\n"
            "                      assemble_laplacian as assemble)\n"
            "def f(x):\n"
            "    import json\n"
            "    from math import sqrt\n"
            "    return np.sum(x) + sqrt(2.0) + band_product\n")
    assert unused_imports(ast.parse(code)) == [
        (2, "os"), (4, "scipy"), (5, "assemble"), (5, "scale_rows"),
        (8, "json")]

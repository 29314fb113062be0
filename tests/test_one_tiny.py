"""A sum of squares out of range, overflowed or underflowed below the
smallest normal float, is taken again by one rule, `model.rescaled`, and
that float is defined once, as `model.TINY`.  This guard parses the package
source and fails on any module other than `model` that reads the smallest
normal float itself: `finfo(...).tiny` or `.smallest_normal`, spelled in
any way, `float_info.min`, or the number written out."""
import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hbwave"


def smallest_normal_reads(tree):
    """Sorted (line, source) of each read of the smallest normal float:
    the attribute `tiny` or `smallest_normal` of any `finfo(...)` call, the
    attribute `min` of anything named `float_info`, and the literal."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            value = node.value
            if (node.attr in ("tiny", "smallest_normal")
                    and isinstance(value, ast.Call)
                    and ast.unparse(value.func).rpartition(".")[2] == "finfo"
                    or node.attr == "min"
                    and ast.unparse(value).rpartition(".")[2] == "float_info"):
                found.append((node.lineno, ast.unparse(node)))
        elif (isinstance(node, ast.Constant)
              and node.value == sys.float_info.min):
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "model.py"),
                         ids=lambda p: p.name)
def test_only_the_model_reads_the_smallest_normal_float(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert smallest_normal_reads(tree) == []


def test_the_model_defines_it_once():
    tree = ast.parse((SRC / "model.py").read_text(encoding="utf-8"))
    assert [src for _, src in smallest_normal_reads(tree)] == [
        "sys.float_info.min"]


def test_guard_sees_each_spelling():
    code = ("np.finfo(float).tiny\n"
            "numpy.finfo(np.float64).tiny\n"
            "finfo(float).tiny\n"
            "np.finfo(float).smallest_normal\n"
            "sys.float_info.min\n"
            "float_info.min\n"
            "x = 2.2250738585072014e-308\n"
            "np.finfo(float).eps\n"
            "sys.float_info.max\n"
            "values.min()\n"
            "TINY\n")
    assert [line for line, _ in smallest_normal_reads(ast.parse(code))] == (
        list(range(1, 8)))

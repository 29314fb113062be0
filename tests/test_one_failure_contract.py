"""How a failure is reported is decided in `errors.py` alone: each error
class carries its `exit_code`, and the keyword details a raise site passes
are its error.json fields.  This guard parses the package source and fails
if `cli.run_command` grows a second `except` clause or an exit-code
literal, if `io.write_error_record` names a detail, or if an error class
other than `HbwaveError` and `InvalidModel` defines `__init__`."""
import ast
from pathlib import Path

import pytest

from hbwave import errors

SRC = Path(__file__).resolve().parents[1] / "src" / "hbwave"
ERROR_CLASSES = [cls for cls in vars(errors).values()
                 if isinstance(cls, type) and issubclass(cls, Exception)]
INIT_OWNERS = {"HbwaveError", "InvalidModel"}


def _function(tree, name):
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def handler_problems(tree):
    """What in `run_command` decides an exit code or a record itself."""
    func = _function(tree, "run_command")
    handlers = [n for n in ast.walk(func) if isinstance(n, ast.ExceptHandler)]
    if len(handlers) != 1:
        yield f"{len(handlers)} except clauses"
    for node in ast.walk(func):
        value = node.value if isinstance(node, ast.Return) else None
        if isinstance(value, ast.Constant) and value.value != 0:
            yield f"line {node.lineno} returns {value.value!r}"


def raise_site_details(trees):
    """Keyword names passed to an error class anywhere in `trees`."""
    names = {cls.__name__ for cls in ERROR_CLASSES}
    return {kw.arg for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in names
            for kw in node.keywords if kw.arg is not None}


def named_details(tree, details):
    """The details `write_error_record` spells out by name."""
    func = _function(tree, "write_error_record")
    return sorted({node.value for node in ast.walk(func)
                   if isinstance(node, ast.Constant) and node.value in details}
                  | {node.attr for node in ast.walk(func)
                     if isinstance(node, ast.Attribute)
                     and node.attr in details})


def init_owners(tree):
    return {node.name for node in tree.body if isinstance(node, ast.ClassDef)
            and any(isinstance(item, ast.FunctionDef)
                    and item.name == "__init__" for item in node.body)}


def parse(name):
    return ast.parse((SRC / name).read_text(), filename=name)


def test_cli_keeps_one_handler_and_no_exit_code():
    assert list(handler_problems(parse("cli.py"))) == []


def test_error_record_names_no_detail():
    details = raise_site_details(parse(p.name) for p in SRC.glob("*.py"))
    # not vacuous: the raise sites pass details, and validation its list
    assert {"line", "alpha_min", "history", "gaps"} <= details
    assert named_details(parse("io.py"), details | {"violations"}) == []


def test_only_the_base_and_invalid_model_define_init():
    assert init_owners(parse("errors.py")) == INIT_OWNERS


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_each_error_class_declares_its_exit_code(cls):
    expected = 2 if issubclass(cls, errors.NumericalFailure) else 1
    assert cls.exit_code == expected


def test_guard_sees_the_split_contract():
    # three handlers, an attribute list and a per-class __init__, as the
    # failure contract once was spread over cli, io and errors
    cli = ("def run_command(argv):\n"
           "    try:\n"
           "        run()\n"
           "    except SolverFailure as exc:\n"
           "        return 2\n"
           "    except (ConfigError, InvalidModel, HbwaveError) as exc:\n"
           "        return 1\n"
           "    except Exception as exc:\n"
           "        return 2\n"
           "    return 0\n")
    io = ("def write_error_record(output_dir, exc):\n"
          "    for attr in ('line', 'violations', 'alpha_min'):\n"
          "        record[attr] = getattr(exc, attr, None)\n"
          "    record['gaps'] = exc.gaps\n")
    errs = ("class HbwaveError(Exception):\n"
            "    def __init__(self, message, **details): pass\n"
            "class DegeneracyDetected(HbwaveError):\n"
            "    def __init__(self, message, alpha_min=None): pass\n")
    assert list(handler_problems(ast.parse(cli))) == [
        "3 except clauses", "line 5 returns 2", "line 7 returns 1",
        "line 9 returns 2"]
    assert named_details(ast.parse(io), {"line", "violations", "alpha_min",
                                         "gaps"}) == [
        "alpha_min", "gaps", "line", "violations"]
    assert init_owners(ast.parse(errs)) == {"HbwaveError",
                                            "DegeneracyDetected"}

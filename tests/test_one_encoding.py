"""Every file the package reads or writes as text is UTF-8, whatever the
locale, so a config, a nodal file or a result CSV means the same bytes on
every machine.  This guard parses the package source and fails on an
`open` or `os.fdopen` call, spelled in any way, that does not name
encoding="utf-8"; the fd-level `os.open` takes no encoding and is exempt."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hbwave"


def without_utf8(tree):
    """Sorted (line, source) of each call of `open` or `fdopen`, plain or
    as an attribute of anything, other than `os.open`, that does not name
    encoding="utf-8"."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = ast.unparse(node.func)
        if func.rpartition(".")[2] not in ("open", "fdopen") or (
                func == "os.open"):
            continue
        if not any(k.arg == "encoding" and isinstance(k.value, ast.Constant)
                   and k.value.value == "utf-8" for k in node.keywords):
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_text_file_is_opened_as_utf8(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert without_utf8(tree) == []


def test_guard_sees_each_spelling():
    code = ("open(p)\n"
            "open(p, 'r')\n"
            "open(p, encoding='latin-1')\n"
            "open(p, encoding=enc)\n"
            "io.open(p)\n"
            "builtins.open(p, 'w')\n"
            "os.fdopen(fd, 'w')\n"
            "gzip.open(p, 'rt')\n"
            "importlib.import_module(m).open(p, 'rt')\n"
            "open(p, encoding='utf-8')\n"
            "os.fdopen(fd, 'w', encoding='utf-8', newline='\\n')\n"
            "os.open(p, os.O_RDONLY)\n")
    assert [line for line, _ in without_utf8(ast.parse(code))] == list(
        range(1, 10))

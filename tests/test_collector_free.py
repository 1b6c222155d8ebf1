"""The program frees what it builds without help from the cycle collector.

Finished sessions and testbeds are freed by reference counting because
no object graph the program builds has a cycle
(``tests/core/test_moneq_result.py`` checks that with the collector
off).  A module that called ``gc``, held ``weakref``s or defined
``__del__`` could fake that result, so none may, apart from
``perfbench.py``, whose rows collect other rows' garbage before timing.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
ALLOWED = {"perfbench.py"}
BANNED_MODULES = {"gc", "weakref"}


def _violations(path: pathlib.Path) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name == "__del__":
            out.append(f"line {node.lineno}: defines __del__")
            continue
        else:
            continue
        out += [f"line {node.lineno}: imports {name}" for name in names
                if name.split(".")[0] in BANNED_MODULES]
    return out


@pytest.mark.tier1
def test_no_module_leans_on_the_collector():
    found = {
        str(path.relative_to(SRC)): bad
        for path in sorted(SRC.rglob("*.py"))
        if str(path.relative_to(SRC)) not in ALLOWED
        and (bad := _violations(path))
    }
    assert found == {}


def test_the_check_sees_each_banned_form(tmp_path):
    source = tmp_path / "bad.py"
    source.write_text("import gc\nfrom weakref import ref\n"
                      "import os.path\n"
                      "class A:\n    def __del__(self):\n        pass\n")
    assert _violations(source) == ["line 1: imports gc",
                                   "line 2: imports weakref",
                                   "line 5: defines __del__"]

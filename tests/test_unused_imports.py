"""Tier-1 lint for unused imports (pyflakes F401) that needs no ruff.

``test_api_surface.test_repo_is_ruff_clean`` runs the full ruff gate,
but skips where ruff is not installed.  This AST check keeps the one
rule that most often rots — an import nothing uses — enforced on every
machine.  It mirrors ruff's exemptions:

* a name listed in the module's ``__all__`` is used;
* ``# noqa`` (bare, or naming F401) on the import statement's lines;
* in an ``__init__.py`` every import is a re-export;
* ``from x import y as y`` is an explicit re-export;
* ``from __future__`` imports.

A name counts as used if it appears anywhere in the module (any scope)
or inside a string annotation, so the check can miss an import that is
unused only in its own scope, but it never flags a used one.
"""

import ast
import pathlib
import re
import subprocess

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
LINTED_DIRS = ("src", "tests", "benchmarks", "examples")
_NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


def _python_files() -> list[pathlib.Path]:
    """Git-tracked ``.py`` files under the linted directories (every
    ``.py`` file there when the tree is not a git checkout)."""
    try:
        listed = subprocess.run(
            ["git", "ls-files", "--", *LINTED_DIRS], cwd=REPO_ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        return sorted(path for name in LINTED_DIRS
                      for path in (REPO_ROOT / name).rglob("*.py"))
    return [REPO_ROOT / name for name in listed if name.endswith(".py")]


def _names_in_annotation(node: ast.AST) -> set[str]:
    """Names a (possibly quoted) annotation refers to."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= _names_in_annotation(parsed)
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _names_in_annotation(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            used |= _names_in_annotation(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _names_in_annotation(node.annotation)
    # Names exported through __all__ (assigned or extended at module level).
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets) \
                and node.value is not None:
            used |= {elt.value for elt in ast.walk(node.value)
                     if isinstance(elt, ast.Constant)
                     and isinstance(elt.value, str)}
    return used


def _noqa_f401(lines: list[str], node: ast.stmt) -> bool:
    for line in lines[node.lineno - 1:node.end_lineno]:
        match = _NOQA.search(line)
        if match and (match.group("codes") is None
                      or "F401" in match.group("codes").upper()):
            return True
    return False


def unused_imports(path: pathlib.Path) -> list[tuple[int, str]]:
    """``(line, name)`` for each import the module never uses."""
    if path.name == "__init__.py":
        return []
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used = _used_names(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if _noqa_f401(lines, node):
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            if isinstance(node, ast.ImportFrom) and alias.asname == alias.name:
                continue  # explicit re-export
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                found.append((node.lineno, alias.name))
    return found


@pytest.mark.tier1
def test_no_unused_imports():
    files = _python_files()
    assert files, "no Python files found to lint"
    found = [f"{path.relative_to(REPO_ROOT)}:{line}: {name}"
             for path in files for line, name in unused_imports(path)]
    assert not found, "unused imports (F401):\n" + "\n".join(found)


@pytest.mark.tier1
def test_unused_import_check_honours_exemptions(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import sys  # noqa: F401\n"
        "import json  # noqa: E501\n"
        "from typing import Sequence\n"
        "from pathlib import Path as Path\n"
        "import collections.abc\n"
        "from re import compile\n"
        "__all__ = ['compile']\n"
        "def f(x: 'Sequence[int]') -> None:\n"
        "    return collections.abc\n"
    )
    assert unused_imports(module) == [(2, "os"), (4, "json")]
    (tmp_path / "__init__.py").write_text("import os\n")
    assert unused_imports(tmp_path / "__init__.py") == []

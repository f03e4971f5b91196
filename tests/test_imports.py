"""Imports of the package: every name a module imports is used in that module,
and importing the command line leaves scipy unloaded."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncgv

MODULES = sorted(Path(ncgv.__file__).parent.glob("*.py"))


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detects_an_unused_name():
    assert unused_imports("from os import path, sep\nprint(sep)\n") == [(1, "path")]
    assert unused_imports("import os.path\nos.getcwd()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_imported_name(path):
    assert unused_imports(path.read_text()) == []


def test_cli_import_leaves_scipy_unloaded():
    # scipy costs about 0.2 s to import, so only the numeric checks load it
    root = str(Path(ncgv.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    code = ("import sys, ncgv.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.stdout.strip() == "[]"

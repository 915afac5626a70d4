"""The demos import only names the package still provides, the quick
ones run to completion, and every module's ``__all__`` names only what
the module holds.

A deleted or renamed public name, or a changed signature, would
otherwise break a demo or ``from module import *`` without any test
failing.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import equalloc

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
# Demo 02 takes about 6 s, so it is only import-checked.
QUICK_DEMOS = [p for p in DEMOS if not p.name.startswith("02_")]
# The directory the tests import equalloc from, for the demo subprocesses.
PACKAGE_ROOT = str(Path(equalloc.__file__).resolve().parents[1])


def _imports(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("equalloc"):
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    names = list(_imports(path))
    assert names, f"{path.name} imports nothing from equalloc"
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"{path.name} imports missing names: {missing}"


@pytest.mark.parametrize("path", QUICK_DEMOS, ids=lambda p: p.name)
def test_quick_demo_runs(path, tmp_path):
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    result = subprocess.run([sys.executable, str(path)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def test_every_exported_name_exists():
    modules = [equalloc] + [importlib.import_module(info.name) for info in
                            pkgutil.walk_packages(equalloc.__path__, "equalloc.")]
    missing = [f"{m.__name__}.{name}" for m in modules
               for name in getattr(m, "__all__", []) if not hasattr(m, name)]
    assert len(modules) > 10 and not missing, missing

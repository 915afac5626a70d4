"""Importing the package loads neither ``scipy.stats`` nor ``scipy.optimize``.

Loading ``scipy.stats`` costs about 0.6 s of a process's start, and the
package needs none of it: the special functions it uses come from
``scipy.special`` directly.  Nothing needs ``scipy.optimize`` either: the
solvers and the genomic environment's Platt fit are numpy loops, so a
CLI or harness process also skips the ``linalg``, ``sparse``, ``spatial``
and ``fft`` subpackages that ``scipy.optimize`` pulls in.
"""

import os
import subprocess
import sys
from pathlib import Path

import equalloc

PACKAGE_ROOT = str(Path(equalloc.__file__).resolve().parents[1])


def _loaded(imports: str, prefix: str | tuple[str, ...]) -> str:
    """The modules under ``prefix`` (one or a tuple) a fresh interpreter holds
    after ``imports``."""
    code = (f"import sys, {imports}; "
            f"print(sorted(m for m in sys.modules if m.startswith({prefix!r})))")
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    return result.stdout.strip()


def test_package_import_does_not_load_scipy_stats():
    assert _loaded("equalloc, equalloc.envs, equalloc.harness, equalloc.cli",
                   "scipy.stats") == "[]"


def test_package_import_does_not_load_scipy_optimize():
    assert _loaded("equalloc, equalloc.envs, equalloc.harness, equalloc.cli",
                   ("scipy.optimize", "scipy.linalg", "scipy.sparse")) == "[]"

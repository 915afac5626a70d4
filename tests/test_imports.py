"""Importing the package, or running the CLI, loads no scipy module.

The runtime needs numpy only: the solvers and the genomic environment's
Platt fit are numpy loops, and the special functions (the normal CDF, its
logarithm and their inverses, and the chi-squared tail and quantile on one
degree of freedom) come from Python's ``math.erfc`` and
``statistics.NormalDist``.  Loading ``scipy.special`` alone costs a
process about 0.25 s and 19 MB at start.  scipy stays a test dependency,
as the reference those functions are checked against.
"""

import os
import subprocess
import sys
from pathlib import Path

import equalloc

PACKAGE_ROOT = str(Path(equalloc.__file__).resolve().parents[1])


def _loaded(code: str, prefix: str | tuple[str, ...]) -> str:
    """The modules under ``prefix`` (one or a tuple) a fresh interpreter holds
    after running ``code``."""
    code += f"; print(sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    result = subprocess.run([sys.executable, "-c", "import sys; " + code], env=env,
                            capture_output=True, text=True, check=True, timeout=120)
    return result.stdout.strip().splitlines()[-1]


IMPORTS = "import equalloc, equalloc.envs, equalloc.harness, equalloc.cli"


def test_package_import_does_not_load_scipy_stats():
    assert _loaded(IMPORTS, "scipy.stats") == "[]"


def test_package_import_does_not_load_scipy_optimize():
    assert _loaded(IMPORTS, ("scipy.optimize", "scipy.linalg", "scipy.sparse")) == "[]"


def test_package_import_and_cli_run_load_no_scipy(tmp_path):
    code = (f"{IMPORTS}; from equalloc.cli import main; "
            f"assert main(['audit', '--out', {str(tmp_path)!r}]) == 0")
    assert _loaded(code, "scipy") == "[]"

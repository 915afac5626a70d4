"""Importing the package does not load ``scipy.stats``.

Loading ``scipy.stats`` costs about 0.6 s of a process's start, and the
package needs none of it: the special functions it uses come from
``scipy.special`` directly.
"""

import os
import subprocess
import sys
from pathlib import Path

import equalloc

PACKAGE_ROOT = str(Path(equalloc.__file__).resolve().parents[1])


def test_package_import_does_not_load_scipy_stats():
    code = ("import sys, equalloc, equalloc.envs, equalloc.harness, equalloc.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"

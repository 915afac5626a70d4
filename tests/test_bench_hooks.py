"""The benchmark's hooks into the program still hold.

``bench/tracer.py`` wraps program functions by module and attribute name;
a renamed or moved function is only named on stderr and its per-layer
metrics read 0, so this is what catches it.  ``bench/selftest.py`` shows
each of the benchmark's correctness checks rejecting a wrong answer.
"""

import importlib
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tracer_targets():
    # executed from source, so no bytecode is written under bench/
    path = BENCH / "tracer.py"
    namespace = {"__name__": "bench_tracer"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace["TARGETS"]


def test_every_traced_function_exists():
    targets = _tracer_targets()
    assert targets
    missing = []
    for span, module_name, attr, _work, _name_of in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{span}: {module_name}.{attr}")
    assert not missing, f"traced functions missing from the program: {missing}"


def test_benchmark_checks_reject_wrong_answers():
    result = subprocess.run(
        [sys.executable, str(BENCH / "selftest.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr

"""The benchmark's hooks into the program still hold.

``bench/tracer.py`` wraps program functions by module and attribute name;
a renamed or moved function is only named on stderr and its per-layer
metrics read 0, so this is what catches it.  ``bench/selftest.py`` shows
each of the benchmark's correctness checks rejecting a wrong answer.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import equalloc

BENCH = Path(__file__).resolve().parents[1] / "bench"
# The directory the tests import equalloc from, for the subprocesses.
PACKAGE_ROOT = str(Path(equalloc.__file__).resolve().parents[1])

# Installs the tracer, executed from source, and prints each span's call
# count over one short estimator-driven greedy run.
_ESTIMATOR_RUN = """
import json, sys
import numpy as np
from equalloc import AnalyticCurve, CostModel, GreedyConfig, UtilitySpec, run_greedy
from equalloc.envs import AnalyticEnvironment

namespace = {"__name__": "bench_tracer"}
exec(compile(open(sys.argv[1]).read(), sys.argv[1], "exec"), namespace)
tracer = namespace["Tracer"]()
namespace["install"](tracer)
env = AnalyticEnvironment(AnalyticCurve(gamma=np.eye(2) + 0.3), noise_sd=0.01, rng_seed=1)
config = GreedyConfig(step_cost=1.0, marginal_source="estimator", seed=1)
tracer.begin_op()
run_greedy(env, UtilitySpec(weights=[1.0, 1.0]), CostModel([1.0, 1.0], 20.0), config)
tracer.end_op()
calls = {name: total[0] for name, total in tracer.totals().items()}
print(json.dumps(calls))
"""


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


def test_estimator_layers_record_spans():
    # the estimator's per-layer metrics read 0 if a call stops going
    # through the traced module-level names (an inlined draw or fit, say)
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    result = subprocess.run(
        [sys.executable, "-c", _ESTIMATOR_RUN, str(BENCH / "tracer.py")],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert result.returncode == 0, result.stderr
    calls = json.loads(result.stdout)
    for span in ("estimator.estimate_marginal", "estimator.fit_local_slope",
                 "estimator.draw_truncated_normal"):
        assert calls.get(span, 0) > 0, (span, calls)


def test_benchmark_checks_reject_wrong_answers():
    result = subprocess.run(
        [sys.executable, str(BENCH / "selftest.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr

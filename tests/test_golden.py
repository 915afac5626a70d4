"""Golden outputs: each experiment's CSV at its default config, and the
``greedy --trace-out`` CSVs of the Table 1 instance.

The CSVs are byte-identical between reruns, so one SHA-256 pins every
cell.  Floating-point results may move between numpy and Python releases
(the special functions come from Python's ``math`` and ``statistics``),
so the digests are recorded per version pair and the test skips on any
other.  A change that moves a number on purpose records the new digests
here and says why in CHANGES.md.
"""

import hashlib
import json
import platform

import numpy as np
import pytest

from equalloc.cli import main
from equalloc.harness import default_table1_config

DIGESTS = {
    ("2.4.6", "3.11.7"): {
        "table1": "7568619f7a10dc6ce88a291a0fad7a31ee40c81c84e6e6f70820d9f7aacbfda3",
        "convergence": "c95a746139a14656e6858742a4c362202fa46af8e6f5148c44d351667c257c89",
        "frontier": "4bea5e5fcdea63b5d39be9287f90337623be2cd7364609ef57854c74b2814738",
        "prs-sim": "8dc5298eaefcd380db648793a5d28f232b21ff551e553343384f41d5756b0c78",
        "audit": "00587af95cbdbd4725f96bc38d7c5e34280408d725f3a03b7c8dc7b84f91fbb9",
        # greedy --trace-out on the Table 1 instance under U_equal, by --marginals
        "trace-true": "ee80fe090de17805826ad97e7ef607d7ad3218e4c63be554b6c1a14dfdf5fc45",
        "trace-estimated": "63ec0094772a628d7b89e4ddcf04803dc0027045ffcdff197297f8c9d6eeaf05",
    },
}
CSV_NAMES = {"table1": "table1", "convergence": "convergence", "frontier": "frontier",
             "prs-sim": "adaptive_prs", "audit": "audit"}
VERSIONS = (np.__version__, platform.python_version())


@pytest.mark.skipif(VERSIONS not in DIGESTS,
                    reason=f"no digests recorded for numpy, Python {VERSIONS}")
@pytest.mark.parametrize("command", list(CSV_NAMES))
def test_default_csv_matches_recorded_digest(command, tmp_path, capsys):
    assert main([command, "--out", str(tmp_path)]) == 0
    blob = (tmp_path / f"{CSV_NAMES[command]}.csv").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == DIGESTS[VERSIONS][command]


@pytest.mark.skipif(VERSIONS not in DIGESTS,
                    reason=f"no digests recorded for numpy, Python {VERSIONS}")
@pytest.mark.parametrize("marginals", ["true", "estimated"])
def test_greedy_trace_matches_recorded_digest(marginals, tmp_path, capsys):
    table1 = default_table1_config()
    instance = {key: table1[key] for key in ("curve", "costs", "budget", "step_cost")}
    instance["utility"] = table1["utilities"]["equal"]
    instance["environment"] = {"type": "analytic", "noise_sd": 0.01, "rng_seed": 3}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    trace = tmp_path / "trace.csv"
    assert main(["greedy", "--instance", str(path), "--marginals", marginals,
                 "--seed", "1", "--trace-out", str(trace)]) == 0
    blob = trace.read_bytes()
    assert hashlib.sha256(blob).hexdigest() == DIGESTS[VERSIONS][f"trace-{marginals}"]

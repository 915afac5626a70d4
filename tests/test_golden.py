"""Golden outputs: each experiment's CSV at its default config.

The CSVs are byte-identical between reruns, so one SHA-256 pins every
cell.  Floating-point results may move between numpy, scipy and Python
releases, so the digests are recorded per version triple and the test
skips on any other.  A change that moves a number on purpose records the
new digests here and says why in CHANGES.md.
"""

import hashlib
import platform

import numpy as np
import pytest
import scipy

from equalloc.cli import main

DIGESTS = {
    ("2.4.6", "1.17.1", "3.11.7"): {
        "table1": "7568619f7a10dc6ce88a291a0fad7a31ee40c81c84e6e6f70820d9f7aacbfda3",
        "convergence": "ad2ff6571bafcb65b1a2a17d340d43259d4ef05ce3d89bdff896857414241df4",
        "frontier": "970dfba316b7d8d1c25d205bfef5fb1b7b0c516c9a2065041456adc677629265",
        "prs-sim": "8dc5298eaefcd380db648793a5d28f232b21ff551e553343384f41d5756b0c78",
        "audit": "00587af95cbdbd4725f96bc38d7c5e34280408d725f3a03b7c8dc7b84f91fbb9",
    },
}
CSV_NAMES = {"table1": "table1", "convergence": "convergence", "frontier": "frontier",
             "prs-sim": "adaptive_prs", "audit": "audit"}
VERSIONS = (np.__version__, scipy.__version__, platform.python_version())


@pytest.mark.skipif(VERSIONS not in DIGESTS,
                    reason=f"no digests recorded for numpy, scipy, Python {VERSIONS}")
@pytest.mark.parametrize("command", list(CSV_NAMES))
def test_default_csv_matches_recorded_digest(command, tmp_path, capsys):
    assert main([command, "--out", str(tmp_path)]) == 0
    blob = (tmp_path / f"{CSV_NAMES[command]}.csv").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == DIGESTS[VERSIONS][command]

"""Flat-file persistence: self-describing CSV tables and run manifests.

Every CSV starts with a comment line carrying the config digest, then a
header row.  Floats are written with ``repr`` (shortest round-trip), so
identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import platform
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import __version__

__all__ = ["Table", "write_table", "write_manifest", "format_cell"]


@dataclass
class Table:
    """An in-memory result table with its provenance digest."""

    name: str
    header: list
    rows: list
    digest: str = ""


def format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_table(table: Table, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{table.name}.csv"
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_digest={table.digest}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(table.header)
        for row in table.rows:
            writer.writerow([format_cell(v) for v in row])
    return path


def write_manifest(out_dir, config: dict, digest: str, seeds, timings: dict) -> Path:
    """Record what ran: config digest, versions, wall-clock timings, and the
    seed lists, keyed by config key (see :func:`~.config.seed_lists`)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config_digest": digest,
        "config": config,
        "seeds": dict(seeds),
        "timings_seconds": timings,
        "versions": {
            "equalloc": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path

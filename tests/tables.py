"""Readers for result tables, shared by the harness and acceptance tests."""

import numpy as np


def column(table, name: str) -> list:
    """The values of one named column of a :class:`~equalloc.harness.io.Table`."""
    idx = table.header.index(name)
    return [row[idx] for row in table.rows]


def mean_gaps(table) -> dict:
    """Mean absolute gap and mean absolute relative gap of a convergence
    table, per (form, step_divisor)."""
    keys = {}
    for row in table.rows:
        form, div = row[0], row[4]
        keys.setdefault((form, div), []).append((abs(row[7]), abs(row[8])))
    return {
        key: (float(np.mean([g for g, _ in vals])), float(np.mean([r for _, r in vals])))
        for key, vals in sorted(keys.items())
    }

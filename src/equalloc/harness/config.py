"""Experiment configuration: JSON documents, validation, and digests.

A config is a plain JSON object with a ``kind`` plus the blocks each
experiment needs (curve, costs/budget, utilities, world, greedy and
estimator settings, seeds).  Every block is read by :func:`read_block`,
so a block's keys are exactly the keyword arguments of the type it
builds: an unknown key, a non-integer for an integer field, or a value
the type rejects raises :class:`ConfigError`, which the CLI turns into
exit status 2.  Unknown top-level keys are ignored.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import inspect
import json
from pathlib import Path

from ..core import CostModel
from ..envs.genomic import GenomicWorldConfig
from ..errors import ConfigError, DomainError

__all__ = [
    "load_config",
    "config_digest",
    "read_block",
    "parse_cost",
    "read_number",
    "read_list",
    "require_block",
    "default_table1_config",
    "default_convergence_config",
    "default_frontier_config",
    "default_prs_sim_config",
    "default_audit_config",
]

# Eq-style four-country instance used throughout: square-root curves with
# 30% cross-country data transfer, one country twice as expensive.
_FOUR_GROUP_GAMMA = [
    [1.0, 0.3, 0.3, 0.3],
    [0.3, 0.5, 0.3, 0.3],
    [0.3, 0.3, 1.0, 0.3],
    [0.3, 0.3, 0.3, 1.0],
]


def load_config(path) -> dict:
    """Read a JSON config document, raising ConfigError on any problem."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return doc


def config_digest(doc: dict) -> str:
    """Content hash of a config: sha256 over canonical JSON."""
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def read_block(cls, block, name: str, **fixed):
    """``cls(**fixed, **block)``: the config block ``name`` read as the
    keyword arguments of ``cls``.

    A key that is not one of ``cls``'s parameters, a missing required one,
    a non-integer for a parameter annotated ``int``, or a value ``cls``
    rejects raises :class:`ConfigError`, so no key is ever ignored.
    """
    if not isinstance(block, dict):
        raise ConfigError(f"{name} block must be a JSON object, got {block!r}")
    try:
        signature = inspect.signature(cls)
        signature.bind(**fixed, **block)  # an unknown key, or a required one missing
        for key, value in block.items():
            if signature.parameters[key].annotation in (int, "int") and (
                    isinstance(value, bool) or not isinstance(value, int)):
                raise TypeError(f"{key!r} must be an integer, got {value!r}")
        return cls(**fixed, **block)
    except (TypeError, ValueError, ArithmeticError, DomainError) as exc:
        raise ConfigError(f"bad {name} block: {exc}") from exc


def parse_cost(doc: dict) -> CostModel:
    try:
        return CostModel(doc["costs"], doc["budget"])
    except KeyError as exc:
        raise ConfigError(f"cost block is missing {exc}") from exc
    except Exception as exc:
        raise ConfigError(f"bad cost block: {exc}") from exc


def read_number(doc: dict, key: str, default, cast=float):
    """``cast(doc[key])``, or ``cast(default)`` when the key is absent or
    null (``None`` when the default is ``None``).  A value ``cast``
    rejects raises :class:`ConfigError`.
    """
    value = default if doc.get(key) is None else doc[key]
    if value is None:
        return None
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key!r} must be a number, got {value!r}") from exc


def read_list(doc: dict, key: str, default, cast=float, length=None):
    """Like :func:`read_number`, for a list of ``cast`` values (of
    ``length`` entries, when given); anything else raises ConfigError."""
    value = default if doc.get(key) is None else doc[key]
    if value is None:
        return None
    try:
        if not isinstance(value, list) or length not in (None, len(value)):
            raise TypeError(f"expected a list of {length or 'any number of'} entries")
        return [cast(x) for x in value]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {key!r} {value!r}: {exc}") from exc


def require_block(doc: dict, key: str):
    if key not in doc:
        raise ConfigError(f"config is missing required block {key!r}")
    return doc[key]


# The seed lists each experiment kind runs, by config key, with the list it
# runs when a config omits the key; an integer n stands for the seeds 0..n-1.
SEED_DEFAULTS = {
    "convergence": {"seeds": [0]},
    "frontier": {"frontier_seeds": 20, "policy_seeds": 8},
    "adaptive_prs": {"seeds": 5, "curve_seeds": 10},
}
# Every config key that holds a seed list.
SEED_KEYS = ("seeds", "frontier_seeds", "policy_seeds", "curve_seeds")


def seed_lists(config: dict, kind: str | None = None) -> dict:
    """Every seed list an experiment of ``kind`` (by default the config's
    own kind) runs, keyed by config key: the lists the config names, and
    the kind's defaults for the seed keys it omits."""
    defaults = SEED_DEFAULTS.get(kind or config.get("kind"), {})
    lists = {}
    for key in SEED_KEYS:
        seeds = config.get(key, defaults.get(key))
        if isinstance(seeds, int):
            seeds = list(range(seeds))
        if seeds is not None:
            lists[key] = read_list({key: seeds}, key, None, int)
    return lists


def apply_seed_offset(config: dict, offset: int, kind: str | None = None) -> dict:
    """Shift every seed list an experiment of ``kind`` (by default the
    config's own kind) runs by a constant, for replication."""
    if offset == 0:
        return config
    doc = copy.deepcopy(config)
    for key, seeds in seed_lists(config, kind).items():
        doc[key] = [s + offset for s in seeds]
    return doc


def check_kind(doc: dict, expected: str) -> None:
    kind = doc.get("kind", expected)
    if kind != expected:
        raise ConfigError(f"config kind is {kind!r}, expected {expected!r}")


def default_table1_config() -> dict:
    return {
        "kind": "table1",
        "curve": {"gamma": copy.deepcopy(_FOUR_GROUP_GAMMA), "form": "sqrt"},
        "costs": [1.0, 1.0, 2.0, 1.0],
        "budget": 1000.0,
        "utilities": {
            "equal": {"weights": [1.0, 1.0, 1.0, 1.0], "normalize": True},
            "priority": {"weights": [1.0, 1.0, 1.0, 1.5], "normalize": True},
        },
        "pop_shares": [2.0, 2.0, 2.0, 1.0],
        "step_cost": 1.0,
        "grid_resolution": 5.0,
    }


def default_convergence_config() -> dict:
    return {
        "kind": "convergence",
        "num_instances": 100,
        "group_range": [2, 10],
        "forms": ["sqrt", "log1p"],
        "budget": 10.0,
        "step_divisors": [10, 100, 1000],
        "solver_tol": 1e-8,
        "seeds": [0],
    }


def default_world_block() -> dict:
    return dataclasses.asdict(GenomicWorldConfig())


def default_frontier_config() -> dict:
    return {
        "kind": "frontier",
        "world": default_world_block(),
        "budget_pairs": 600,
        "min_per_group": 100,
        "grid_step": 100,
        "policy_step": 50,
        "pop_shares": [0.825, 0.175],
        "weight_ratio_bounds": [1e-3, 1e3],
        "weight_ratio_points": 13,
        "extra_weights": [[1.0, 1.0], [1.0, 1.5]],
        "include_share_weights": True,
        "frontier_seeds": 20,
        "policy_seeds": 8,
        # three records per group before trusting a slope: two-point fits
        # have zero standard error, which can starve a group forever
        "estimator": {"window": 5, "min_points": 3},
    }


def default_prs_sim_config() -> dict:
    return {
        "kind": "adaptive_prs",
        "world": default_world_block(),
        "budget_pairs": 600,
        "start_pairs": [100, 100],
        "step_cost": 50.0,
        "weight_settings": [[1.0, 1.0], [1.0, 1.5], [0.825, 0.175]],
        "seeds": 5,
        "estimator": {"window": 5, "min_points": 3},
    }


def default_audit_config() -> dict:
    return {
        "kind": "audit",
        "curve": {"gamma": copy.deepcopy(_FOUR_GROUP_GAMMA), "form": "sqrt"},
        "costs": [1.0, 1.0, 2.0, 1.0],
        "budget": 1000.0,
        "auditor_utility": {"weights": [1.0, 1.0, 1.0, 1.0], "normalize": True},
        "observed": {"counts": [200.0, 200.0, 200.0, 200.0]},
        "grid_resolution": 5.0,
    }

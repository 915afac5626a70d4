"""Experiment configuration: JSON documents, validation, and digests.

A config is a plain JSON object with a ``kind`` plus the blocks each
experiment needs.  Each runner reads every value, and builds every typed
input from them, in one :func:`reading` scope before any work: the one
place that turns a ``LookupError`` (a missing key), ``TypeError``,
``ValueError``, ``ArithmeticError`` or :class:`DomainError` into a
:class:`ConfigError`, which the CLI turns into exit status 2.  A block's
keys are exactly the keyword arguments of the type it builds
(:func:`read_block`), an integer setting must be one (``5.0`` is not),
and a setting must lie above its bound; unknown top-level keys are ignored.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import hashlib
import inspect
import json
import math
from pathlib import Path

import numpy as np

from ..core import CostModel
from ..envs.genomic import GenomicWorldConfig
from ..errors import ConfigError, DomainError

__all__ = [
    "reading",
    "load_config",
    "config_digest",
    "read_block",
    "parse_cost",
    "read_number",
    "read_list",
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
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
    with reading(f"config {path}"):
        doc = json.loads(blob)  # not JSON, or not Unicode: a ValueError
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return doc


def config_digest(doc: dict) -> str:
    """Content hash of a config: sha256 over canonical JSON."""
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@contextlib.contextmanager
def reading(name: str):
    """Scope in which config value ``name`` is read or built, never computed:
    a LookupError, TypeError, ValueError, ArithmeticError or DomainError
    raised inside it becomes a ConfigError naming the value."""
    try:
        yield
    except LookupError as exc:
        raise ConfigError(f"bad {name}: no entry {exc}") from exc
    except (TypeError, ValueError, ArithmeticError, DomainError) as exc:
        raise ConfigError(f"bad {name}: {exc}") from exc


def read_block(cls, block, name: str, **fixed):
    """``cls(**fixed, **block)``: the config block ``name`` read as the
    keyword arguments of ``cls``.

    A block that is not a mapping, a key that is not one of ``cls``'s
    parameters, a missing required one, a value :func:`_cast` refuses for a
    parameter annotated ``int``, ``bool`` or ``float`` (or, as a ``float``,
    for an entry of one annotated ``np.ndarray``), or a value ``cls``
    rejects raises :class:`ConfigError`, so no key is ever ignored.
    """
    with reading(f"{name} block"):
        signature = inspect.signature(cls)
        signature.bind(**fixed, **block)  # a non-mapping, an unknown key, a missing one
        for key, value in block.items():
            annotation = signature.parameters[key].annotation
            if annotation in (np.ndarray, "np.ndarray"):
                for entry in np.ravel(np.array(value, dtype=object)):
                    _cast(entry, float, key)
            for cast in (int, bool, float):
                if annotation in (cast, cast.__name__):
                    _cast(value, cast, key)
        return cls(**fixed, **block)


def parse_cost(doc: dict) -> CostModel:
    with reading("cost block"):
        return read_block(CostModel, {"costs": doc["costs"], "budget": doc["budget"]}, "cost")


def whole_number(value) -> float:
    """``float(value)``, which must be whole and not a bool: a count of pairs."""
    if type(value) is bool or not float(value).is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return float(value)


def _cast(value, cast, key: str, above=None):
    """``cast(value)``, which must exceed ``above`` when given; an ``int``
    or ``bool`` setting must already be one (neither ``5.0`` nor ``True``
    is an integer), and a ``float`` one must be a finite non-``bool``."""
    if cast in (int, bool) and type(value) is not cast or cast is float and type(value) is bool:
        raise TypeError(f"{key!r} must be of type {cast.__name__}, got {value!r}")
    value = cast(value)
    if cast is float and not math.isfinite(value):
        raise ValueError(f"must be finite, got {value!r}")
    if above is not None and not value > above:
        raise ValueError(f"must be greater than {above}, got {value!r}")
    return value


def read_number(doc: dict, key: str, default, cast=float, above=None):
    """``cast(doc[key])``, or ``cast(default)`` when the key is absent or
    null (``None`` when the default is ``None``).  A value ``cast``
    rejects, a non-integer where ``cast`` is ``int``, or a value not
    greater than ``above`` raises :class:`ConfigError`.
    """
    value = default if doc.get(key) is None else doc[key]
    if value is None:
        return None
    with reading(repr(key)):
        return _cast(value, cast, key, above)


def read_list(doc: dict, key: str, default, cast=float, length=None, above=None):
    """Like :func:`read_number`, for a list of ``cast`` values (of
    ``length`` entries, when given); anything else raises ConfigError."""
    value = default if doc.get(key) is None else doc[key]
    if value is None:
        return None
    with reading(f"{key!r} {value!r}"):
        if not isinstance(value, list) or length not in (None, len(value)):
            raise TypeError(f"expected a list of {length or 'any number of'} entries")
        return [_cast(x, cast, key, above) for x in value]


# Every config key that holds a seed list; an integer n stands for the
# seeds 0..n-1.
SEED_KEYS = ("seeds", "frontier_seeds", "policy_seeds", "curve_seeds")


def seed_lists(config: dict, kind: str | None = None) -> dict:
    """Every seed list an experiment of ``kind`` (by default the config's
    own kind) runs, keyed by config key: the lists the config names, and
    the kind's defaults for the seed keys it omits.  A seed, or a seed
    count, that is not a non-negative integer raises :class:`ConfigError`."""
    kind = kind or config.get("kind")
    # curve_seeds is the one seed default no default document holds: adding
    # it to the prs-sim document would change that document's digest
    defaults = {"convergence": default_convergence_config,
                "frontier": default_frontier_config,
                "adaptive_prs": lambda: dict(default_prs_sim_config(), curve_seeds=10),
                }.get(kind, dict)()
    lists = {}
    for key in SEED_KEYS:
        seeds = config.get(key, defaults.get(key))
        if type(seeds) is int:
            if seeds < 0:
                raise ConfigError(f"{key!r} is a negative seed count: {seeds}")
            seeds = list(range(seeds))
        if seeds is not None:
            lists[key] = read_list({key: seeds}, key, None, int, above=-1)
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

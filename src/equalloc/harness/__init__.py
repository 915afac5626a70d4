"""Experiment harness: configs, runners, and flat-file persistence."""

from .config import (
    config_digest,
    default_audit_config,
    default_convergence_config,
    default_frontier_config,
    default_prs_sim_config,
    default_table1_config,
    load_config,
)
from .experiments import (
    run_adaptive_prs,
    run_audit,
    run_convergence,
    run_frontier,
    run_table1,
)
from .io import Table, write_manifest, write_table

__all__ = [
    "Table",
    "config_digest",
    "default_audit_config",
    "default_convergence_config",
    "default_frontier_config",
    "default_prs_sim_config",
    "default_table1_config",
    "load_config",
    "run_adaptive_prs",
    "run_audit",
    "run_convergence",
    "run_frontier",
    "run_table1",
    "write_manifest",
    "write_table",
]

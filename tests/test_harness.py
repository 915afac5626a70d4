import functools
import json
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import equalloc
from equalloc import cli
from equalloc.cli import main
from equalloc.errors import ConfigError
from equalloc.estimator import EstimatorSettings
from equalloc.harness import (
    config_digest,
    default_audit_config,
    default_convergence_config,
    default_frontier_config,
    default_prs_sim_config,
    default_table1_config,
    run_adaptive_prs,
    run_audit,
    run_convergence,
    run_frontier,
    run_table1,
    write_table,
)
from collections import Counter

from equalloc.envs import GenomicSamplingSession, genomic
from equalloc.harness import config as config_module
from equalloc.harness import experiments
from equalloc.harness.config import apply_seed_offset, load_config, seed_lists
from tables import column, mean_gaps

# The directory the tests import equalloc from, for the CLI subprocesses.
PACKAGE_ROOT = str(Path(equalloc.__file__).resolve().parents[1])

SMALL_FRONTIER = {
    "kind": "frontier",
    "world": {"variants": 300, "causal_count": 30, "population": 4000,
              "rng_seed": 1},
    "budget_pairs": 80,
    "min_per_group": 20,
    "grid_step": 20,
    "policy_step": 10,
    "weight_ratio_points": 3,
    "extra_weights": [[1.0, 1.0]],
    "frontier_seeds": 3,
    "policy_seeds": 2,
}


class TestTable1:
    def test_policy_rows_present(self):
        table = run_table1(default_table1_config())
        policies = column(table, "policy")
        for name in (
            "Equal", "Representative", "Performance Parity",
            "Optimal (U_equal)", "Optimal (U_priority)",
            "Greedy (U_equal)", "Greedy (U_priority)",
        ):
            assert name in policies

    def test_missing_utility_block_rejected(self):
        config = default_table1_config()
        del config["utilities"]["priority"]
        with pytest.raises(ConfigError):
            run_table1(config)


class TestConvergence:
    def test_small_study_gap_shrinks_with_step(self):
        config = default_convergence_config()
        config["num_instances"] = 10
        table = run_convergence(config)
        gaps = mean_gaps(table)
        for form in ("sqrt", "log1p"):
            series = [gaps[(form, d)][0] for d in (10, 100, 1000)]
            assert series[0] >= series[1] >= series[2]

    def test_greedy_never_beats_the_certified_optimum(self):
        table = run_convergence(default_convergence_config())
        opt, greedy, gap, rel, cert, conv = (
            column(table, name) for name in (
                "utility_opt", "utility_greedy", "gap", "relative_gap",
                "certificate", "converged",
            )
        )
        # Greedy may spend the budget's float slack and lands on the
        # solver's vertex with step-accumulated counts, so it can beat the
        # optimum by rounding: hold it to 1e-12 relative past the certificate.
        assert all(g <= o + c + 1e-12 * abs(o) for o, g, c in zip(opt, greedy, cert))
        # converged means the certificate is within the solver's own stopping rule
        assert all(conv)
        tol = default_convergence_config()["solver_tol"]
        assert all(c <= tol * max(1.0, abs(o)) for o, c in zip(opt, cert))
        assert gap == [o - g for o, g in zip(opt, greedy)]
        assert rel == [d / abs(o) for d, o in zip(gap, opt)]
        assert min(gap) < 0  # the gap is signed, not an absolute value

    def test_deterministic_rows(self):
        config = default_convergence_config()
        config["num_instances"] = 4
        t1, t2 = run_convergence(config), run_convergence(config)
        assert t1.rows == t2.rows


@pytest.fixture(scope="module")
def small_frontier_table():
    return run_frontier(dict(SMALL_FRONTIER))


class TestFrontier:
    @pytest.fixture
    def table(self, small_frontier_table):
        return small_frontier_table

    def test_contains_all_row_kinds(self, table):
        kinds = set(column(table, "kind"))
        assert kinds == {"frontier", "marker", "greedy"}
        labels = set(column(table, "label"))
        assert {"equal", "representative", "parity"} <= labels

    def test_frontier_splits_cover_grid(self, table):
        splits = {
            (r[3], r[4]) for r in table.rows if r[0] == "frontier"
        }
        assert splits == {(20, 60), (40, 40), (60, 20)}

    def test_greedy_rows_respect_budget(self, table):
        for row in table.rows:
            if row[0] == "greedy":
                assert row[3] + row[4] <= SMALL_FRONTIER["budget_pairs"]
                assert min(row[3], row[4]) >= SMALL_FRONTIER["min_per_group"]

    def test_greedy_endpoints_near_best_split_on_strong_signal_world(self):
        # seed-averaged greedy endpoint utility should sit within 5% of
        # the best full-budget split for every weight setting
        config = {
            "kind": "frontier",
            "world": {"variants": 800, "causal_count": 80, "population": 50000,
                      "heritability": 0.8, "freq_low": 0.1, "rng_seed": 11},
            "budget_pairs": 1400,
            "min_per_group": 200,
            "grid_step": 200,
            "policy_step": 50,
            "pop_shares": [0.825, 0.175],
            "weight_ratio_bounds": [1e-3, 1e3],
            "weight_ratio_points": 5,
            "extra_weights": [[1.0, 1.0], [1.0, 1.5]],
            "include_share_weights": True,
            "frontier_seeds": 12,
            "policy_seeds": 10,
            "estimator": {"window": 4, "min_points": 3},
        }
        table = run_frontier(config)
        grid, greedy = {}, {}
        for kind, label, seed, n0, n1, m0, m1 in table.rows:
            if kind == "frontier":
                grid.setdefault((n0, n1), []).append((m0, m1))
            elif kind == "greedy":
                greedy.setdefault(label, []).append((m0, m1))
        grid_means = {s: np.mean(v, axis=0) for s, v in grid.items()}

        def weights_of(label):
            if label.startswith("ratio_"):
                return np.array([float(label.split("_")[1]), 1.0])
            if label == "shares":
                return np.array([0.825, 0.175])
            _, a, b = label.split("_")
            return np.array([float(a), float(b)])

        for label, runs in greedy.items():
            w = weights_of(label)
            best = max(float(w @ m) for m in grid_means.values())
            mean_u = float(np.mean([w @ np.array(r) for r in runs]))
            assert mean_u >= 0.95 * best, (label, mean_u, best)


def _count_trainings(monkeypatch) -> Counter:
    """Count the risk models trained, keyed by the rows each was trained on."""
    trained = Counter()
    train = genomic.train_risk_model

    def counted(world, sample):
        trained[(sample.group, sample.case_idx.tobytes(), sample.control_idx.tobytes())] += 1
        return train(world, sample)

    monkeypatch.setattr(genomic, "train_risk_model", counted)
    return trained


def _fresh_session_per_row(monkeypatch):
    """Build a new session wherever a runner asks for one, as the runners
    did before they shared one session per seed."""
    monkeypatch.setattr(
        experiments, "_session_per_seed",
        lambda world: lambda seed: GenomicSamplingSession(world, rng_seed=seed),
    )


def _small_prs_config(**changes):
    config = default_prs_sim_config()
    config.update(
        world={"variants": 300, "causal_count": 30, "population": 4000, "rng_seed": 1},
        budget_pairs=80, start_pairs=[20, 20], step_cost=10.0, seeds=[0, 1],
        weight_settings=[[1.0, 1.0], [1.0, 1.5], [0.825, 0.175]],
    )
    config.update(changes)
    return config


def _run_recording_estimators(monkeypatch, runner, config):
    """Run ``runner`` on ``config``; return its table and the estimator
    settings its greedy runs used."""
    used = set()
    greedy = experiments.run_greedy

    def recording(source, utility, cost, cfg):
        used.add(cfg.estimator)
        return greedy(source, utility, cost, cfg)

    monkeypatch.setattr(experiments, "run_greedy", recording)
    return runner(config), used


class TestRunnerDefaults:
    """A runner reads an omitted key from its kind's default document, the
    one place each runner default is written."""

    @pytest.mark.parametrize("key", ["extra_weights", "estimator"])
    def test_frontier_falls_back_to_the_default_document(self, monkeypatch, key):
        config = dict(SMALL_FRONTIER, frontier_seeds=1, policy_seeds=1,
                      extra_weights=[[2.0, 1.0]], estimator={"window": 4})
        del config[key]
        table, used = _run_recording_estimators(monkeypatch, run_frontier, config)
        default = default_frontier_config()[key]
        if key == "estimator":
            assert used == {EstimatorSettings(**default)}
        else:
            extra = {label for label in column(table, "label") if label.startswith("weights_")}
            assert extra == {f"weights_{w0:g}_{w1:g}" for w0, w1 in default}

    @pytest.mark.parametrize("key", ["weight_settings", "estimator"])
    def test_prs_sim_falls_back_to_the_default_document(self, monkeypatch, key):
        config = _small_prs_config(seeds=[0], weight_settings=[[2.0, 1.0]],
                                   estimator={"window": 4})
        del config[key]
        table, used = _run_recording_estimators(monkeypatch, run_adaptive_prs, config)
        default = default_prs_sim_config()[key]
        if key == "estimator":
            assert used == {EstimatorSettings(**default)}
        else:
            assert column(table, "weights") == ["/".join(f"{w:g}" for w in ws)
                                                for ws in default]


class TestSessionSharing:
    """Sessions on one seed hold identical values, so the runners share one
    per seed: every distinct model is trained once and no row changes."""

    def test_frontier_trains_each_model_once(self, monkeypatch):
        trained = _count_trainings(monkeypatch)
        run_frontier(dict(SMALL_FRONTIER))
        assert trained and max(trained.values()) == 1

    def test_frontier_rows_match_fresh_sessions(self, monkeypatch, small_frontier_table):
        trained = _count_trainings(monkeypatch)
        _fresh_session_per_row(monkeypatch)
        assert run_frontier(dict(SMALL_FRONTIER)).rows == small_frontier_table.rows
        assert max(trained.values()) > 1  # the fresh sessions did retrain

    def test_adaptive_prs_trains_each_model_once_with_same_rows(self, monkeypatch):
        trained = _count_trainings(monkeypatch)
        shared = run_adaptive_prs(_small_prs_config())
        assert trained and max(trained.values()) == 1
        _fresh_session_per_row(monkeypatch)
        assert run_adaptive_prs(_small_prs_config()).rows == shared.rows
        assert max(trained.values()) > 1

    def test_learning_curve_reuses_the_run_sessions(self, monkeypatch):
        config = _small_prs_config(learning_curve_grid=[20, 40, 60], curve_seeds=[0, 1, 2])
        trained = _count_trainings(monkeypatch)
        shared = run_adaptive_prs(config)
        assert trained and max(trained.values()) == 1
        _fresh_session_per_row(monkeypatch)
        assert [t.rows for t in run_adaptive_prs(config)] == [t.rows for t in shared]
        assert max(trained.values()) > 1


class TestAdaptivePrs:
    def test_runs_and_respects_budget(self):
        config = default_prs_sim_config()
        config["world"] = {"variants": 300, "causal_count": 30,
                           "population": 4000, "rng_seed": 1}
        config["budget_pairs"] = 80
        config["start_pairs"] = [20, 20]
        config["step_cost"] = 10.0
        config["seeds"] = [0, 1]
        config["weight_settings"] = [[1.0, 1.0]]
        table = run_adaptive_prs(config)
        assert len(table.rows) == 2
        for row in table.rows:
            assert row[2] + row[3] <= 80

    def test_learning_curve_table_emitted_on_request(self):
        config = default_prs_sim_config()
        config["world"] = {"variants": 300, "causal_count": 30,
                           "population": 4000, "rng_seed": 1}
        config["budget_pairs"] = 80
        config["start_pairs"] = [20, 20]
        config["step_cost"] = 10.0
        config["seeds"] = [0]
        config["weight_settings"] = [[1.0, 1.0]]
        config["learning_curve_grid"] = [20, 40]
        config["curve_seeds"] = 3
        main, curves = run_adaptive_prs(config)
        assert curves.header == ["group", "n", "seed", "value"]
        assert len(curves.rows) == 2 * 2 * 3  # groups x grid x seeds


class TestAudit:
    def test_default_audit_matches_known_gap(self):
        table = run_audit(default_audit_config())
        assert table.rows[0][0] == pytest.approx(2.6, abs=0.1)

    def test_self_audit_gap_zero(self):
        config = default_audit_config()
        config["observed"] = {"counts": [500.0, 0.0, 0.0, 500.0]}
        table = run_audit(config)
        assert table.rows[0][0] == pytest.approx(0.0, abs=1e-9)

    def test_priority_auditor_of_equal_optimum(self):
        config = default_audit_config()
        config["auditor_utility"] = {"weights": [1, 1, 1, 1.5], "normalize": True}
        config["observed"] = {"counts": [500.0, 0.0, 0.0, 500.0]}
        gap = run_audit(config).rows[0][0]
        m = np.array([np.sqrt(650), np.sqrt(300), np.sqrt(300), np.sqrt(650)])
        observed_u = float(np.array([1, 1, 1, 1.5]) @ m) / 4.5
        assert gap == pytest.approx(22.1 - observed_u, abs=0.1)


class TestPersistence:
    def test_csv_embeds_digest_and_roundtrips(self, tmp_path):
        config = default_table1_config()
        table = run_table1(config)
        path = write_table(table, tmp_path)
        lines = path.read_text().splitlines()
        assert lines[0] == f"# config_digest={config_digest(config)}"
        assert lines[1].startswith("policy,count_0")
        assert len(lines) == 2 + len(table.rows)

    def test_byte_identical_reruns(self, tmp_path):
        config = default_convergence_config()
        config["num_instances"] = 3
        blobs = []
        for tag in ("a", "b"):
            table = run_convergence(config)
            path = write_table(table, tmp_path / tag)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_seed_offset_shifts_lists(self):
        config = {"seeds": [0, 1], "policy_seeds": 3, "other": 5}
        shifted = apply_seed_offset(config, 10)
        assert shifted["seeds"] == [10, 11]
        assert shifted["policy_seeds"] == [10, 11, 12]
        assert shifted["other"] == 5
        assert config["seeds"] == [0, 1]  # original untouched

    def test_seed_offset_shifts_omitted_seed_keys(self):
        # a seed key the config leaves out runs the kind's default list,
        # which the offset must shift as well
        shifted = apply_seed_offset({"kind": "adaptive_prs"}, 5)
        assert shifted["seeds"] == [5, 6, 7, 8, 9]
        assert shifted["curve_seeds"] == list(range(5, 15))
        frontier = apply_seed_offset({"kind": "frontier", "policy_seeds": [3]}, 2)
        assert frontier["frontier_seeds"] == list(range(2, 22))
        assert frontier["policy_seeds"] == [5]
        config = {"kind": "adaptive_prs"}
        assert apply_seed_offset(config, 0) == {"kind": "adaptive_prs"}

    def test_seed_offset_shifts_curve_seeds(self):
        config = default_prs_sim_config()
        config["curve_seeds"] = [0, 1]
        shifted = apply_seed_offset(config, 5)
        assert shifted["seeds"] == [5, 6, 7, 8, 9]
        assert shifted["curve_seeds"] == [5, 6]

    def test_seed_defaults_follow_the_default_documents(self, monkeypatch):
        # a kind's default document is the one home of its seed lists
        frontier, prs = (config_module.default_frontier_config,
                         config_module.default_prs_sim_config)
        monkeypatch.setattr(config_module, "default_frontier_config",
                            lambda: dict(frontier(), frontier_seeds=2, policy_seeds=[7]))
        monkeypatch.setattr(config_module, "default_prs_sim_config",
                            lambda: dict(prs(), seeds=[4]))
        assert seed_lists({"kind": "frontier"}) == {
            "frontier_seeds": [0, 1], "policy_seeds": [7]}
        assert seed_lists({}, "adaptive_prs") == {
            "seeds": [4], "curve_seeds": list(range(10))}


class TestCli:
    def test_table1_writes_outputs(self, tmp_path, capsys):
        code = main(["table1", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "table1.csv").exists()
        assert (tmp_path / "manifest.json").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config_digest"]
        assert "equalloc" in manifest["versions"]

    def test_solve_subcommand(self, tmp_path, capsys):
        instance = {
            "curve": {"gamma": [[1.0]], "form": "sqrt"},
            "costs": [2.0],
            "budget": 10.0,
            "utility": {"weights": [1.0]},
            "method": "concave",
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance))
        assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 0
        result = json.loads((tmp_path / "solve_result.json").read_text())
        assert result["converged"]
        assert result["counts"][0] == pytest.approx(5.0, abs=1e-3)

    def test_greedy_subcommand_with_trace(self, tmp_path, capsys):
        instance = {
            "curve": {"gamma": [[1.0, 0.0], [0.0, 0.5]], "form": "sqrt"},
            "costs": [1.0, 1.0],
            "budget": 6.0,
            "utility": {"weights": [1.0, 1.0]},
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance))
        trace_path = tmp_path / "trace.csv"
        out = tmp_path / "run"  # made by the command
        code = main([
            "greedy", "--instance", str(path), "--step", "1",
            "--trace-out", str(trace_path), "--out", str(out),
        ])
        assert code == 0
        lines = trace_path.read_text().splitlines()
        header = lines[1].split(",")
        assert header[:3] == ["step", "group", "spend"]
        assert len(lines) == 2 + 6  # digest + header + six steps
        # --out writes the summary the command prints
        assert (out / "greedy_run.json").read_text() == capsys.readouterr().out

    @pytest.mark.parametrize("marginals", ["true", "estimated"])
    def test_greedy_summary_builds_no_records(self, tmp_path, capsys, monkeypatch,
                                              marginals):
        instance = {
            "curve": {"gamma": [[1.0, 0.0], [0.0, 0.5]], "form": "sqrt"},
            "costs": [1.0, 1.0],
            "budget": 12.0,
            "utility": {"weights": [1.0, 1.0]},
            "environment": {"type": "analytic", "noise_sd": 0.01},
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance))
        traces, run = [], cli.run_greedy

        def recording(*args):
            alloc, trace = run(*args)
            traces.append(trace)
            return alloc, trace

        monkeypatch.setattr(cli, "run_greedy", recording)
        assert main(["greedy", "--instance", str(path), "--marginals", marginals]) == 0
        (trace,) = traces
        assert "records" not in trace.__dict__
        final = json.loads(capsys.readouterr().out)["final_utility"]
        assert final.hex() == trace.records[-1].utility.hex()

    def test_missing_config_file_exits_2(self, capsys):
        assert main(["table1", "--config", "/nonexistent/nope.json"]) == 2

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["audit", "--config", str(bad)]) == 2

    def test_directory_as_config_exits_2(self, tmp_path, capsys):
        assert main(["audit", "--config", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.skipif(os.geteuid() == 0, reason="root may read any file")
    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "locked.json"
        path.write_text(json.dumps(default_audit_config()))
        path.chmod(0)
        assert main(["audit", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_capacity_error_exits_3(self, tmp_path, capsys):
        instance = {
            "curve": {"gamma": np.eye(5).tolist(), "form": "sqrt"},
            "costs": [1.0] * 5,
            "budget": 10.0,
            "utility": {"weights": [1.0] * 5},
            "method": "grid",
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance))
        assert main(["solve", "--config", str(path)]) == 3

    def test_numerical_failure_exits_4(self, tmp_path, capsys):
        # log-transformed utility is undefined on the only feasible point
        instance = {
            "curve": {"gamma": [[1.0]], "form": "sqrt"},
            "costs": [1.0],
            "budget": 0.0,
            "utility": {"weights": [1.0], "transform": "log"},
            "method": "grid",
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance))
        assert main(["solve", "--config", str(path)]) == 4

    @pytest.mark.parametrize("row,col", [(0, 0), (1, 2)])
    def test_overflowing_audit_curve_exits_4_with_the_message_alone(self, tmp_path, capsys,
                                                                    row, col):
        # gamma @ counts overflows to inf at the observed allocation; outside a
        # test a numpy RuntimeWarning would print to stderr ahead of the message
        cfg = default_audit_config()
        cfg["curve"]["gamma"][row][col] = 1e308
        path = tmp_path / "audit.json"
        path.write_text(json.dumps(cfg))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["audit", "--config", str(path), "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert err == "numerical failure: values contains non-finite entries\n"
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_seed_offset_changes_convergence_seeds(self, tmp_path):
        cfg = default_convergence_config()
        cfg["num_instances"] = 2
        path = tmp_path / "conv.json"
        path.write_text(json.dumps(cfg))
        assert main([
            "convergence", "--config", str(path),
            "--out", str(tmp_path / "r1"), "--seed-offset", "5",
        ]) == 0
        text = (tmp_path / "r1" / "convergence.csv").read_text()
        assert ",5," in text  # seed column shows the offset seed

    def test_frontier_manifest_lists_its_seeds(self, tmp_path):
        cfg = dict(SMALL_FRONTIER, frontier_seeds=2, policy_seeds=[4],
                   weight_ratio_points=1, extra_weights=[],
                   include_share_weights=False)
        path = tmp_path / "frontier.json"
        path.write_text(json.dumps(cfg))
        assert main(["frontier", "--config", str(path), "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seeds"] == {"frontier_seeds": [0, 1], "policy_seeds": [4]}

    def test_zero_budget_audit_reports_zero_gap(self, tmp_path, capsys):
        # without a grid_resolution the audit used to scan at budget / 200,
        # which is 0 here, and exit 4
        cfg = default_audit_config()
        cfg["budget"] = 0.0
        cfg["observed"] = {"counts": [0.0, 0.0, 0.0, 0.0]}
        del cfg["grid_resolution"]
        path = tmp_path / "audit.json"
        path.write_text(json.dumps(cfg))
        assert main(["audit", "--config", str(path), "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "audit.csv").read_text().splitlines()
        assert rows[2].split(",")[0] == "0.0"


    def test_zero_budget_grid_solve_exits_0(self, tmp_path, capsys):
        # without a resolution the grid used to scan at budget / 200, which
        # is 0 here, and exit 4
        instance = {
            "curve": {"gamma": [[1.0]], "form": "sqrt"},
            "costs": [1.0],
            "budget": 0.0,
            "utility": {"weights": [1.0]},
            "method": "grid",
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance))
        assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 0
        result = json.loads((tmp_path / "solve_result.json").read_text())
        assert result["counts"] == [0.0]

    @pytest.mark.parametrize("command,key,value", [
        ("greedy", "start", {"count": [1.0, 1.0]}),
        ("greedy", "start", [1.0, 1.0]),
        ("greedy", "start", {"counts": [10.0, 10.0]}),
        ("greedy", "start", {"counts": [1.0, 1.0, 1.0]}),
        ("greedy", "estimator", {"min_pionts": 3}),
        ("greedy", "environment", {"type": "analytic", "noise": 0.1}),
        ("greedy", "environment", {"type": "analytic", "noise_sd": float("inf")}),
        ("greedy", "environment", {"type": "analytic", "noise_sd": float("nan")}),
        ("greedy", "environment", {"type": "genomic", "rng_sed": 1}),
        ("greedy", "environment", {"type": "genomic", "world": {"populaton": 5000}}),
        ("greedy", "environment", {"type": "genomic", "world": {"variants": 200.5}}),
        ("solve", "resolution", "abc"),
        ("solve", "resolution", 0),
        ("solve", "method", "simplex"),
        ("solve", "costs", [1.0]),
        ("greedy", "--step", "0"),
        ("greedy", "environment", {"type": "quantum"}),
        ("solve", "utility", {"weights": [1.0, 1.0], "normalise": True}),
        ("table1", "step_cost", "x"),
        ("table1", "utilities", {"equal": {"weights": [1.0] * 4, "normalize": "no"},
                                 "priority": {"weights": [1.0] * 4}}),
        ("convergence", "forms", ["cubic"]),
        ("convergence", "num_instances", 2.7),
        ("convergence", "seeds", [0.5]),
        ("convergence", "seeds", [-1]),
        ("convergence", "seeds", -3),
        ("convergence", "--seed-offset", "-1"),
        ("greedy", "--seed", "-1"),
        ("greedy", "--step", "7"),
        # the estimator ranks groups by linear priorities only
        ("greedy", "utility", {"weights": [1.0, 1.0], "transform": "log"}),
        ("greedy", "utility", {"weights": [1.0, 1.0], "parity_penalty": 0.5}),
        # the concave solver takes no parity penalty
        ("solve", ("method", "utility"),
         ("concave", {"weights": [1.0, 1.0], "parity_penalty": 0.5})),
        # a genomic environment's step and utility are checked before its world is built
        ("greedy", ("environment", "step_cost"), ({"type": "genomic"}, 7.0)),
        ("greedy", ("environment", "utility"),
         ({"type": "genomic"}, {"weights": [1.0, 1.0], "transform": "log"})),
        # a float setting is finite and not a bool (JSON's Infinity and NaN
        # parse; true would read as 1.0)
        *[(command, key, value)
          for command, key in [("table1", "grid_resolution"), ("convergence", "budget"),
                               ("table1", "step_cost")]
          for value in (float("inf"), float("nan"), True)],
    ])
    def test_malformed_value_exits_2_without_traceback(
        self, tmp_path, capsys, monkeypatch, command, key, value
    ):
        monkeypatch.setattr(experiments, "generate_world", _no_world)
        instance = {
            "curve": {"gamma": [[1.0, 0.0], [0.0, 0.5]], "form": "sqrt"},
            "costs": [1.0, 1.0],
            "budget": 6.0,
            "utility": {"weights": [1.0, 1.0]},
            "environment": {"type": "analytic", "noise_sd": 0.01},
        }
        path = tmp_path / "config.json"
        # a key starting with "--" is a command-line option, not a config key;
        # a tuple of keys takes a tuple of values
        keys, values = (key, value) if isinstance(key, tuple) else ((key,), (value,))
        option = [key, value] if keys[0].startswith("--") else []
        settings = {} if option else dict(zip(keys, values))
        if command == "greedy" and key == "start":
            start = tmp_path / "start.json"
            start.write_text(json.dumps(value))
            path.write_text(json.dumps(instance))
            argv = ["greedy", "--instance", str(path), "--start", str(start)]
        elif command == "greedy":
            path.write_text(json.dumps(dict(instance, **settings)))
            argv = ["greedy", "--instance", str(path), "--marginals", "estimated"]
        else:
            doc = instance if command == "solve" else {
                "table1": default_table1_config,
                "convergence": default_convergence_config,
            }[command]()
            path.write_text(json.dumps(dict(doc, **settings)))
            argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
        assert main(argv + option) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    @pytest.mark.parametrize("command,key,value", [
        ("convergence", "step_divisors", ["x"]),
        ("convergence", "step_divisors", [0]),
        ("convergence", "group_range", [2]),
        ("convergence", "num_instances", -5),  # once an empty table and exit 0
        ("frontier", "weight_ratio_bounds", "x"),
        ("frontier", "weight_ratio_bounds", [0, 1]),
        ("frontier", "extra_weights", [[1.0]]),
        ("frontier", "budget_pairs", 600.5),
        ("prs-sim", "budget_pairs", 590.5),
        ("prs-sim", "start_pairs", ["a", 1]),
        ("prs-sim", "weight_settings", [1.0, 1.0]),
        ("prs-sim", "weight_settings", [[1.0]]),
        ("prs-sim", "learning_curve_grid", ["x"]),
        ("prs-sim", "seeds", ["x"]),
        ("table1", "pop_shares", "x"),
        ("table1", "curve", None),
        ("audit", "curve", None),
        ("frontier", "world", None),
        ("prs-sim", "world", None),
        ("table1", "curve.from", "log1p"),
        ("table1", "utilities.equal.normalise", True),
        ("audit", "auditor_utility.normalise", True),
        ("audit", "observed.count", [200.0] * 4),
        ("audit", "observed", [200.0] * 4),
        ("frontier", "estimator.window", 5.5),
        ("frontier", "world.rng_seed", "1"),
        ("prs-sim", "world.populaton", 5000),
        ("prs-sim", "world.variants", 200.5),
        ("prs-sim", "estimator.min_pionts", 3),
        ("frontier", "include_share_weights", "no"),
        ("frontier", "world.rng_seed", -1),
        ("frontier", "world.pvalue_threshold", 1.5),
        ("prs-sim", "world.pvalue_threshold", -1.0),
        ("frontier", "world.pvalue_threshold", float("nan")),
        ("prs-sim", "world.maf_floor", 0.9),
        ("frontier", "world.clump_window", -3),
        ("prs-sim", "world.r2_threshold", -0.5),
        ("frontier", "world.benefit", -10.0),
        ("prs-sim", "world.cost", -1.0),
        ("table1", "grid_resolution", 0),
        ("table1", "pop_shares", [1.0, 1.0, 1.0]),
        ("table1", "pop_shares", [0.0, 0.0, 0.0, 0.0]),
        ("table1", "pop_shares", None),
        ("table1", "costs", [1.0, 1.0, 1.0]),
        ("table1", "utilities.equal.weights", [1.0, 1.0, 1.0]),
        ("table1", "utilities", [1]),
        ("audit", "grid_resolution", 0),
        ("audit", "solver_tol", -1),
        ("audit", "costs", [1.0, 1.0, 1.0]),
        ("audit", "auditor_utility.weights", [1.0, 1.0, 1.0]),
        ("audit", "observed.counts", [200.0, 200.0, 200.0]),
        ("convergence", "budget", 0),
        ("convergence", "budget", -1),
        ("frontier", "min_per_group", -5),
        ("frontier", "budget_pairs", 150),
        ("frontier", "policy_step", 0),
        ("frontier", "policy_step", 25.5),
        ("frontier", "extra_weights", [[0.0, 0.0]]),
        ("prs-sim", "step_cost", 0),
        ("prs-sim", "step_cost", 33.3),
        ("prs-sim", "step_cost", True),
        ("frontier", "policy_step", True),
        ("frontier", "world.benefit", True),
        ("prs-sim", "world.cost", float("inf")),
        ("frontier", "estimator.se_floor", True),
        ("table1", "curve.offset", float("nan")),
        ("prs-sim", "start_pairs", [400, 400]),
        ("prs-sim", "start_pairs", [100.5, 100]),
        ("prs-sim", "weight_settings", [[0, 0]]),
        ("prs-sim", "learning_curve_grid", [-5, 20]),
        ("table1", "step_cost", 2000),
        ("frontier", "policy_step", 700),
        ("prs-sim", "step_cost", 700),
        # above K = 4 the audit's optimum comes from the concave solver,
        # which takes no parity penalty
        ("audit", ("curve.gamma", "costs", "auditor_utility.weights",
                   "auditor_utility.parity_penalty", "observed.counts"),
         (np.eye(5).tolist(), [1.0] * 5, [1.0] * 5, 0.5, [100.0] * 5)),
        # true is not a number in the costs, the budget or an array block,
        # at any depth
        ("table1", "budget", True),
        ("table1", "costs", [True, 1, 2, 1]),
        ("table1", "utilities.equal.weights", [True, 1, 1, 1]),
        ("table1", "curve.gamma", [[True, 0.3, 0.3, 0.3], [0.3, 0.5, 0.3, 0.3],
                                   [0.3, 0.3, 1.0, 0.3], [0.3, 0.3, 0.3, 1.0]]),
        ("audit", "observed.counts", [True, 200, 200, 200]),
    ])
    def test_bad_list_or_missing_block_exits_2_before_any_work(
        self, tmp_path, capsys, monkeypatch, command, key, value
    ):
        # key "a.b" is entry b of block a; value None drops the entry; a tuple
        # of keys takes a tuple of values; no genomic world is built before
        # the config is known to be good
        monkeypatch.setattr(experiments, "generate_world", _no_world)
        doc = {
            "table1": default_table1_config,
            "convergence": default_convergence_config,
            "frontier": default_frontier_config,
            "prs-sim": default_prs_sim_config,
            "audit": default_audit_config,
        }[command]()
        keys, values = (key, value) if isinstance(key, tuple) else ((key,), (value,))
        for key, value in zip(keys, values):
            *blocks, entry = key.split(".")
            parent = functools.reduce(dict.__getitem__, blocks, doc)
            if value is None:
                del parent[entry]
            else:
                parent[entry] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    @pytest.mark.parametrize("command,changes", [
        # the sweep's split (20, 80) overruns the 50-pair pools
        ("frontier", {"budget_pairs": 100, "min_per_group": 20, "grid_step": 20}),
        # from (20, 20) greedy can give one group 60 pairs
        ("prs-sim", {"budget_pairs": 80, "learning_curve_grid": [20, 40]}),
        # the runs reach 40 pairs, the learning curve 60
        ("prs-sim", {"budget_pairs": 60, "learning_curve_grid": [20, 60]}),
        # from (0, 0) greedy can give one group all 60 pairs
        ("greedy", {"budget": 60.0}),
    ])
    def test_pairs_beyond_the_training_pool_exit_2(self, tmp_path, capsys, monkeypatch,
                                                   command, changes):
        # population 2000 at prevalence 0.05 holds 50 training pairs per group,
        # which the config says without building the world
        monkeypatch.setattr(experiments, "generate_world", _no_world)
        world = {"variants": 200, "causal_count": 20, "population": 2000, "rng_seed": 1}
        path = tmp_path / "config.json"
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
        if command == "greedy":
            doc = {"curve": {"gamma": [[1.0, 0.0], [0.0, 1.0]]}, "costs": [1.0, 1.0],
                   "utility": {"weights": [1.0, 1.0]}, "step_cost": 10.0,
                   "environment": {"type": "genomic", "world": world}}
            argv += ["--marginals", "estimated"]
        else:
            doc = dict(SMALL_FRONTIER) if command == "frontier" else _small_prs_config(
                start_pairs=[20, 20], weight_settings=[[1.0, 1.0]], curve_seeds=[0])
            doc["world"] = world
        doc.update(changes)
        path.write_text(json.dumps(doc))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "training pairs" in err

    @pytest.mark.parametrize("command", ["frontier", "prs-sim", "greedy"])
    def test_oversized_world_exits_3_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                     command):
        # 2 x 2000 variants x 10^8 people is 4 x 10^11 genotype cells; it used
        # to end in a MemoryError traceback and exit 1
        monkeypatch.setattr(experiments, "generate_world", _no_world)
        world = {"population": 10**8}
        path = tmp_path / "config.json"
        if command == "greedy":
            doc = {"curve": {"gamma": [[1.0, 0.0], [0.0, 1.0]]}, "costs": [1.0, 1.0],
                   "budget": 60.0, "utility": {"weights": [1.0, 1.0]},
                   "environment": {"type": "genomic", "world": world}}
            argv = ["greedy", "--instance", str(path), "--marginals", "estimated"]
        else:
            doc = dict(default_frontier_config() if command == "frontier"
                       else default_prs_sim_config(), world=world)
            argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
        path.write_text(json.dumps(doc))
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("capacity error:") and "genotype cells" in err

    @pytest.mark.parametrize("changes,start", [
        ({"costs": [3.0, 1.0]}, None),  # a step of 10 buys 3.33 pairs of group 0
        ({}, {"counts": [2.5, 3]}),
    ])
    def test_genomic_greedy_takes_whole_pairs_only(self, tmp_path, capsys, monkeypatch,
                                                    changes, start):
        # these used to build the world, then exit 4 with a numerical failure
        monkeypatch.setattr(experiments, "generate_world", _no_world)
        doc = {"curve": {"gamma": [[1.0, 0.0], [0.0, 1.0]]}, "costs": [1.0, 1.0],
               "budget": 60.0, "step_cost": 10.0, "utility": {"weights": [1.0, 1.0]},
               "environment": {"type": "genomic"}, **changes}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        argv = ["greedy", "--instance", str(path), "--marginals", "estimated"]
        if start is not None:
            (tmp_path / "start.json").write_text(json.dumps(start))
            argv += ["--start", str(tmp_path / "start.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "not a whole number" in err

    def test_omitted_seeds_follow_offset_into_manifest(self, tmp_path):
        cfg = _small_prs_config(weight_settings=[[1.0, 1.0]])
        del cfg["seeds"]
        path = tmp_path / "prs.json"
        path.write_text(json.dumps(cfg))
        assert main(["prs-sim", "--config", str(path), "--out", str(tmp_path),
                     "--seed-offset", "5"]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seeds"]["seeds"] == [5, 6, 7, 8, 9]
        rows = (tmp_path / "adaptive_prs.csv").read_text().splitlines()[2:]
        assert [int(r.split(",")[1]) for r in rows] == [5, 6, 7, 8, 9]

    @pytest.mark.parametrize("counts", [[600.0, 600.0, 0.0, 0.0],
                                        [1e30, 200.0, 200.0, 200.0]])
    def test_over_budget_audit_exits_2(self, tmp_path, capsys, counts):
        # [600, 600, 0, 0] spends 1200 of a 1000 budget; it was once reported
        # with gap 0 and a utility above the optimum, then exited 4 from the
        # audit itself; the config is now refused before the audit runs
        cfg = default_audit_config()
        cfg["observed"] = {"counts": counts}
        path = tmp_path / "audit.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["audit", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "exceeds the budget" in err
        assert "Traceback" not in err and not (out / "audit.csv").exists()

    def test_genomic_greedy_needs_two_groups_before_the_world(self, tmp_path, capsys,
                                                               monkeypatch):
        # a three-group instance used to build the world, then exit 4
        monkeypatch.setattr(experiments, "generate_world", _no_world)
        doc = {"curve": {"gamma": np.eye(3).tolist()}, "costs": [1.0] * 3, "budget": 30.0,
               "step_cost": 10.0, "utility": {"weights": [1.0] * 3},
               "environment": {"type": "genomic"}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["greedy", "--instance", str(path), "--marginals", "estimated"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "has 3 groups, expected 2" in err

    @pytest.mark.parametrize("name", ["trace.txt", "trace", "trace.csv.gz"])
    def test_greedy_trace_out_must_name_a_csv_file(self, tmp_path, capsys, name):
        # the trace was written to <stem>.csv whatever the path's suffix
        doc = {"curve": {"gamma": np.eye(2).tolist()}, "costs": [1.0, 1.0], "budget": 6.0,
               "utility": {"weights": [1.0, 1.0]}}
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        argv = ["greedy", "--instance", str(path), "--trace-out", str(tmp_path / name)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and ".csv" in captured.err
        assert captured.out == "" and sorted(p.name for p in tmp_path.iterdir()) == [
            "inst.json"]


def _no_world(_config):
    raise AssertionError("world built before the config was checked")


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


@pytest.mark.parametrize("command,key,value,code", [
    ("table1", "step_cost", 0, 2),
    ("table1", "step_cost", -1, 2),
    ("table1", "budget", 1e12, 3),
    ("frontier", "grid_step", 0, 2),
    ("frontier", "grid_step", -100, 2),
    ("convergence", "solver_tol", -1, 2),
    ("convergence", "solver_tol", 0, 2),
    # a group count past int64 once ended in numpy's ValueError traceback
    ("convergence", "group_range", [2, 10**30], 3),
    ("convergence", "group_range", [2, 101], 3),
    # once ran without end
    ("convergence", "num_instances", 10**30, 3),
    ("convergence", "step_divisors", [10, 10**8], 3),
])
def test_unbounded_loop_inputs_exit_promptly(tmp_path, command, key, value, code):
    # each of these once spun a loop without end (or, for the tolerances, ran
    # every solve to max_iter), so the CLI runs in a child process with a
    # deadline and a 3 GB address-space cap
    doc = {"table1": default_table1_config, "frontier": default_frontier_config,
           "convergence": default_convergence_config}[command]()
    doc[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    result = subprocess.run(
        [sys.executable, "-m", "equalloc.cli", command, "--config", str(path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=30, preexec_fn=_limit_memory,
        env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT),
    )
    assert result.returncode == code, result.stderr
    prefix = "config error:" if code == 2 else "capacity error:"
    assert result.stderr.startswith(prefix) and "Traceback" not in result.stderr


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError):
        load_config(path)

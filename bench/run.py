#!/usr/bin/env python3
"""equalloc benchmark: one command, four workloads, checked outputs.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/`` and need not be installed.  Each workload runs in fresh
single-threaded processes (BLAS pinned to one thread): two that only set
up, to time set-up, then one that sets up and repeats whole rounds of the
workload's operations for about ``--seconds``.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics (op_s, wall_s, setup_s, peak_rss_mb, utility_ratio);
with ``--trace 1`` the process wraps the program's layer functions and the
metrics are the per-layer ones.  ``--workload all`` runs every workload
and prefixes each metric with its workload's name.  Spans of a traced run
are written under ``.bench_out/``.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("grid-oracle", "greedy-convergence", "adaptive-analytic", "genomic-frontier")
SETUP_PROCESSES = 3      # set-up is timed this many times per run; median reported
RUN_TIMEOUT_S = 170      # whole run, all processes, for one workload
OUT_DIR = ".bench_out"

END_TO_END_UNITS = {"op_s": "s", "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "utility_ratio": "ratio"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(BENCH)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(root: Path, args: list, deadline: float) -> dict:
    """Run one worker process to its end and return its JSON report."""
    spawned = time.time()
    cmd = [sys.executable, str(BENCH / "worker.py"), *args, "--spawned", repr(spawned)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the run's time limit: {' '.join(args)}") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups = [spawn(root, base + ["--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_PROCESSES - 1)]
    extra = ["--trace", str(trace)]
    if trace:
        extra += ["--spans", str(root / OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")]
    report = spawn(root, base + extra, deadline)
    setups.append(report["setup_s"])
    for problem in report["problems"]:
        print(f"{workload}: {problem}", file=sys.stderr)

    rounds = report["rounds"]
    latencies = [t for r in rounds for t in r]
    if trace:
        import tracer as tracing

        t = report["trace"]
        metrics, unreached = tracing.layer_metrics(t["totals"], t["ops"], tuple(t["models"]))
        for name in t["missing"]:
            print(f"{workload}: traced function for {name} is gone; its metrics read 0",
                  file=sys.stderr)
        print(f"{workload}: traced op_s {statistics.median(latencies):.6g} s over "
              f"{len(latencies)} operations; layers not reached (read 0): "
              f"{', '.join(unreached) or 'none'}")
    else:
        raw = [t for r in report["raw_rounds"] for t in r]
        index = report["speed_index"]
        print(f"{workload}: raw op_s {statistics.median(raw):.6g} s, raw setup_s "
              f"{report['raw_setup_s']:.4g} s (last process), speed index "
              f"median {statistics.median(index):.3g} (range {min(index):.3g}-"
              f"{max(index):.3g}, {len(index)} samples), {len(rounds)} rounds")
        per_op = zip(*rounds)  # one tuple of latencies per operation of the round
        values = {
            "op_s": statistics.median(latencies),
            "wall_s": sum(statistics.median(ts) for ts in per_op),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": report["peak_rss_mb"],
            "utility_ratio": report["utility_ratio"] or 0.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "equalloc" / "__init__.py").is_file():
        print("bench: run from the root of an equalloc checkout (src/equalloc is missing)",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(root, name, args.seed, args.seconds, args.trace)
            r = results[name]
            print(f"{name}: attempted {r['attempted']}, failed {r['failed']}, "
                  f"correct {r['correct']}")
            for metric, m in r["metrics"].items():
                print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

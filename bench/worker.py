"""One workload process: set up, repeat whole rounds of operations, report.

Started by ``run.py`` with BLAS pinned to one thread.  Prints one JSON
line: set-up time, the latency of every operation by round (raw, and
divided by the machine speed index of :mod:`speed`), peak RSS, the utility
ratio, attempted/failed counts, whether every check passed, and, in a
traced run, the span totals.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402

CALIBRATE_EVERY_S = 0.5  # a speed sample before the next operation after this long


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned", type=float, required=True,
                   help="time.time() just before the parent started this process")
    p.add_argument("--setup-only", action="store_true",
                   help="stop after set-up and report its time")
    p.add_argument("--spans", default=None, help="span file of a traced run")
    return p.parse_args(argv)


def checked(problems: list, fn, *args):
    """Run one of the workload's checks; a failure is recorded, not raised."""
    try:
        return fn(*args)
    except checks.CheckError as exc:
        problems.append(f"check failed: {exc}")
        return None


def run_rounds(workload, seconds, tracer):
    """Repeat whole rounds until another would overrun ``seconds`` (at least one).

    Returns each round's operations as (start, end) times, the machine
    speed samples taken between operations, the first round's utility
    ratios, the number of operations that raised, and every problem seen.
    """
    rounds, samples, problems = [], [], []
    ratios = digests = None
    failed = 0
    start = last_sample = time.perf_counter()
    samples.append((start, speed.index()))
    while True:
        spans, outs = [], []
        for op in workload.ops:
            if time.perf_counter() - last_sample >= CALIBRATE_EVERY_S:
                last_sample = time.perf_counter()
                samples.append((last_sample, speed.index()))
            if tracer:
                tracer.begin_op()
            t0 = time.perf_counter()
            try:
                out = op()
            except Exception:  # an operation that raises is counted as failed
                out = None
                failed += 1
                print(traceback.format_exc(limit=4), file=sys.stderr)
            spans.append((t0, time.perf_counter()))
            if tracer:
                tracer.end_op()
            outs.append(out)
        rounds.append(spans)
        ok = [(i, out) for i, out in enumerate(outs) if out is not None]
        round_ratios = [checked(problems, workload.check, i, out) for i, out in ok]
        round_digests = [workload.digest(out) for _, out in ok]
        if ratios is None:
            ratios, digests = round_ratios, round_digests
        elif round_digests != digests:
            problems.append(f"round {len(rounds)} repeated the first with other outputs")
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(rounds) > seconds:
            samples.append((time.perf_counter(), speed.index()))
            return rounds, samples, ratios, failed, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    import workloads

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.time() - args.spawned
    setup_index = statistics.median(speed.index() for _ in range(3))
    report = {"setup_s": setup_s / setup_index, "raw_setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    rounds, samples, ratios, failed, problems = run_rounds(workload, args.seconds, tracer)
    checked(problems, workload.after_run)
    ratio = checked(problems, workload.finish, [r for r in ratios if r is not None])
    factors = [[speed.factor(samples, start, end) if workload.speed_corrected else 1.0
                for start, end in spans] for spans in rounds]
    report.update({
        "rounds": [[(end - start) / f for (start, end), f in zip(spans, fs)]
                   for spans, fs in zip(rounds, factors)],
        "raw_rounds": [[end - start for start, end in spans] for spans in rounds],
        "speed_index": [i for _, i in samples],
        "attempted": sum(len(r) for r in rounds),
        "failed": failed,
        "correct": not problems,
        "problems": problems,
        "utility_ratio": ratio,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if tracer:
        report["trace"] = {"totals": tracer.totals([f for fs in factors for f in fs]),
                           "ops": len(tracer.op_totals),
                           "models": [tracer.models_trained, tracer.distinct_models],
                           "missing": tracer.missing}
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            tracer.write(args.spans, {"workload": args.workload, "seed": args.seed})
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

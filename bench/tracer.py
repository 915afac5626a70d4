"""Spans around calls into the program's layers, recorded from outside it.

:func:`install` replaces each traced function at every module binding
callers look it up through (for example both ``equalloc.greedy`` and
``equalloc.estimator`` hold ``estimate_marginal``), with a wrapper that
records a span: name, start, end and parent.  Spans are kept in memory and
written when the run ends; per-name totals are kept alongside, so a layer's
self time is its span time minus the time its child spans cover.

Spans are recorded only while an operation runs (between
:meth:`Tracer.begin_op` and :meth:`Tracer.end_op`), so the benchmark's own
checks, which also call the program, leave no trace.  The untraced run
calls :func:`install` never and wraps nothing.
"""

from __future__ import annotations

import functools
import json
import sys
import time

SPAN_CAP = 100_000  # spans kept for the span file; totals count every span


def _columns(args, kwargs):
    matrix = args[2] if len(args) > 2 else kwargs["counts_matrix"]
    return matrix.shape[1]


def _iterations(args, kwargs, result):
    return result.iterations


def _greedy_name(args, kwargs):
    config = args[3] if len(args) > 3 else kwargs["config"]
    return "greedy.run_greedy." + config.marginal_source


# (span name, module, attribute, work counter, name chooser).  A work
# counter returns the units of work a call did (grid points, iterations,
# greedy steps); a name chooser splits one function into several spans.
TARGETS = [
    ("curves.batch_utilities", "equalloc.curves", "batch_utilities",
     lambda a, k, r: _columns(a, k), None),
    ("core.utility_eval", "equalloc.core", "utility_eval", None, None),
    ("solvers.solve_grid", "equalloc.solvers", "solve_grid", _iterations, None),
    ("solvers.solve_concave", "equalloc.solvers", "solve_concave", _iterations, None),
    ("greedy.run_greedy", "equalloc.greedy", "run_greedy",
     lambda a, k, r: len(r[1]), _greedy_name),
    ("estimator.estimate_marginal", "equalloc.estimator", "estimate_marginal", None, None),
    ("estimator.draw_truncated_normal", "equalloc.estimator", "draw_truncated_normal",
     None, None),
    ("estimator.fit_local_slope", "equalloc.estimator", "fit_local_slope", None, None),
    ("envs.analytic.observe", "equalloc.envs.analytic", "AnalyticEnvironment.observe",
     None, None),
    ("envs.genomic.generate_world", "equalloc.envs.genomic", "generate_world", None, None),
    ("envs.genomic.train_risk_model", "equalloc.envs.genomic", "train_risk_model",
     None, None),
    ("envs.genomic.chi2_screen", "equalloc.envs.genomic", "_chi2_screen", None, None),
    ("envs.genomic.clump", "equalloc.envs.genomic", "_clump", None, None),
    ("envs.genomic.platt_fit", "equalloc.envs.genomic", "_fit_platt", None, None),
    ("envs.genomic.evaluate_group_value", "equalloc.envs.genomic",
     "evaluate_group_value", None, None),
    ("harness.run_frontier", "equalloc.harness.experiments", "run_frontier", None, None),
]


class Tracer:
    def __init__(self):
        self.active = False
        self.stack: list[list] = []   # [span id, name, start, child seconds, parent id]
        self.next_id = 0
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        # per operation: name -> [calls, seconds, self seconds, work]
        self.op_totals: list[dict[str, list]] = []
        self.missing: list[str] = []
        self.models_trained = 0
        self.distinct_models = 0
        self._model_keys: set = set()

    def begin_op(self) -> None:
        self.active = True
        self.op_totals.append({})
        self._model_keys.clear()

    def end_op(self) -> None:
        self.active = False
        self.distinct_models += len(self._model_keys)

    def note_model(self, world, sample) -> None:
        """Count a trained risk model and remember what it was trained on."""
        self.models_trained += 1
        self._model_keys.add((world.config, sample.group, sample.case_idx.tobytes(),
                              sample.control_idx.tobytes()))

    def enter(self, name: str) -> list:
        parent = self.stack[-1][0] if self.stack else -1
        frame = [self.next_id, name, time.perf_counter(), 0.0, parent]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def exit(self, frame: list, work) -> None:
        end = time.perf_counter()
        self.stack.pop()
        span_id, name, start, child, parent = frame
        seconds = end - start
        if self.stack:
            self.stack[-1][3] += seconds
        total = self.op_totals[-1].setdefault(name, [0, 0.0, 0.0, 0])
        total[0] += 1
        total[1] += seconds
        total[2] += seconds - child
        total[3] += work
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent, name, start, end))

    def totals(self, factors=None) -> dict[str, list]:
        """Totals over all operations; with ``factors`` (one per operation)
        each operation's seconds are divided by its factor first."""
        out: dict[str, list] = {}
        for i, op in enumerate(self.op_totals):
            scale = 1.0 / factors[i] if factors else 1.0
            for name, (calls, seconds, self_seconds, work) in op.items():
                total = out.setdefault(name, [0, 0.0, 0.0, 0])
                total[0] += calls
                total[1] += seconds * scale
                total[2] += self_seconds * scale
                total[3] += work
        return out

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(header, spans_recorded=self.next_id,
                                     spans_written=len(self.spans),
                                     raw_totals=self.totals())) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _wrap(tracer: Tracer, name: str, f, work, name_of):
    @functools.wraps(f)
    def traced(*args, **kwargs):
        if not tracer.active:
            return f(*args, **kwargs)
        frame = tracer.enter(name_of(args, kwargs) if name_of else name)
        try:
            result = f(*args, **kwargs)
        except BaseException:
            tracer.exit(frame, 0)
            raise
        tracer.exit(frame, work(args, kwargs, result) if work else 0)
        return result
    return traced


def _model_counter(tracer: Tracer, f):
    @functools.wraps(f)
    def counted(world, sample, *args, **kwargs):
        if tracer.active:
            tracer.note_model(world, sample)
        return f(world, sample, *args, **kwargs)
    return counted


def install(tracer: Tracer) -> None:
    """Wrap every target at every binding in the loaded equalloc modules."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "equalloc" or n.startswith("equalloc.")]
    for name, module_name, attr, work, name_of in TARGETS:
        owner = sys.modules.get(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        f = getattr(owner, leaf, None) if owner is not None else None
        if f is None:
            tracer.missing.append(name)
            continue
        wrapped = _wrap(tracer, name, f, work, name_of)
        if name == "envs.genomic.train_risk_model":
            wrapped = _model_counter(tracer, wrapped)
        if path:  # a method: the class attribute is the one binding
            setattr(owner, leaf, wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is f:
                    setattr(module, key, wrapped)


# Per-layer metrics: name -> (unit, span name, how the value is formed).
#   per_call: mean seconds per call x scale     self: mean self seconds per call
#   rate: work units per second of span time    per_op: calls per operation
#   per_work: seconds per work unit x scale     work_per_call: work units per call
LAYER_METRICS = {
    "curves.batch_utilities.points_per_s": ("1/s", "curves.batch_utilities", "rate", 1),
    "curves.batch_utilities.us_per_call": ("us", "curves.batch_utilities", "per_call", 1e6),
    "curves.batch_utilities.calls": ("calls/op", "curves.batch_utilities", "per_op", 1),
    "core.utility_eval.calls": ("calls/op", "core.utility_eval", "per_op", 1),
    "solvers.solve_grid.self_s": ("s", "solvers.solve_grid", "self", 1),
    "solvers.solve_grid.points_per_s": ("1/s", "solvers.solve_grid", "rate", 1),
    "solvers.solve_concave.self_s": ("s", "solvers.solve_concave", "self", 1),
    "solvers.solve_concave.iterations": ("iter/call", "solvers.solve_concave",
                                         "work_per_call", 1),
    "greedy.run_greedy.true_curve.step_us": ("us", "greedy.run_greedy.true_curve",
                                             "per_work", 1e6),
    "greedy.run_greedy.estimator.step_us": ("us", "greedy.run_greedy.estimator",
                                            "per_work", 1e6),
    "estimator.estimate_marginal.us": ("us", "estimator.estimate_marginal", "per_call", 1e6),
    "estimator.draw_truncated_normal.us": ("us", "estimator.draw_truncated_normal",
                                           "per_call", 1e6),
    "estimator.fit_local_slope.us": ("us", "estimator.fit_local_slope", "per_call", 1e6),
    "envs.analytic.observe.us": ("us", "envs.analytic.observe", "per_call", 1e6),
    "envs.genomic.generate_world.s": ("s", "envs.genomic.generate_world", "per_call", 1),
    "envs.genomic.train_risk_model.calls": ("calls/op", "envs.genomic.train_risk_model",
                                            "per_op", 1),
    "envs.genomic.train_risk_model.ms": ("ms", "envs.genomic.train_risk_model",
                                         "per_call", 1e3),
    "envs.genomic.distinct_model_share": ("ratio", None, "distinct", 1),
    "envs.genomic.chi2_screen.ms": ("ms", "envs.genomic.chi2_screen", "per_call", 1e3),
    "envs.genomic.clump.ms": ("ms", "envs.genomic.clump", "per_call", 1e3),
    "envs.genomic.platt_fit.ms": ("ms", "envs.genomic.platt_fit", "per_call", 1e3),
    "envs.genomic.evaluate_group_value.ms": ("ms", "envs.genomic.evaluate_group_value",
                                             "per_call", 1e3),
    "harness.run_frontier.self_s": ("s", "harness.run_frontier", "self", 1),
}


def layer_metrics(totals: dict, ops: int, models: tuple[int, int]):
    """Per-layer metrics from pooled totals.

    A layer the workload never reaches reads 0.  Returns the metrics and
    the names whose value is 0 because of that.
    """
    out, unreached = {}, []
    for metric, (unit, span, form, scale) in LAYER_METRICS.items():
        if form == "distinct":
            trained, distinct = models
            value = distinct / trained if trained else 0.0
        else:
            calls, seconds, self_seconds, work = totals.get(span, (0, 0.0, 0.0, 0))
            value = {
                "rate": work / seconds if seconds else 0.0,
                "per_call": seconds / calls * scale if calls else 0.0,
                "self": self_seconds / calls if calls else 0.0,
                "per_op": calls / ops if ops else 0.0,
                "per_work": seconds / work * scale if work else 0.0,
                "work_per_call": work / calls if calls else 0.0,
            }[form]
        if value == 0:
            unreached.append(metric)
        out[metric] = {"value": value, "unit": unit}
    return out, unreached

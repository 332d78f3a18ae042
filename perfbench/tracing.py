"""Per-layer tracing of the satfl package, applied from outside it.

`Tracer.install` replaces each traced satfl function in every satfl module
that binds it, so a call is caught whether it goes through `satfl.cli`,
`satfl.engine` or the defining module. Layer calls get spans; the
fine-grained orbital primitives, which run about 10^5 times per shell_week
iteration, and the learners' `gradient` methods are only counted. Spans are
kept in memory and written once, by `write_spans`, when the run ends.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from satfl.errors import ScenarioError
from satfl.learning import LogisticRegressionLearner, MLPLearner

ROOT_SPAN = "cli.main"
PLAN_SPAN = "orbital.plan"

# span name -> (defining module, traced functions)
LAYERS = {
    "scenario.load": ("satfl.scenario", ("load_scenario",)),
    PLAN_SPAN: ("satfl.orbital", ("compute_contact_plan",)),
    "orbital.maxdist": ("satfl.orbital", ("max_pass_distance",)),
    "link.price": ("satfl.link", ("pass_comm_time",)),
    "scheduler.extract": ("satfl.scheduler", ("extract_schedule",)),
    "engine.run": ("satfl.engine", ("run_simulation",)),
    "learning.sgd": ("satfl.learning", ("local_sgd",)),
    "learning.eval": ("satfl.learning", ("evaluate_accuracy",)),
    "learning.data": ("satfl.learning", ("generate_synthetic_task", "partition_non_iid")),
    "federation.agg": ("satfl.federation", ("fedsat_aggregate", "fedavg_sync_aggregate")),
    "exports.write": ("satfl.exports", (
        "write_contact_plan_csv", "write_schedule_csv",
        "write_metrics_csv", "write_run_summary",
    )),
}

# Every per-layer metric, with its unit and the direction that is better.
# Times are per iteration over all ops of a workload; `*_s` of a layer is
# its self time, except `engine.run_s` (inclusive) and the derived
# `orbital.refine_s` (plan time not spent in the coarse scan).
PER_LAYER = [
    ("scenario.load_s", "s", "lower"),
    ("scenario.load_calls", "count", "lower"),
    ("orbital.plan_s", "s", "lower"),
    ("orbital.plan_calls", "count", "lower"),
    ("orbital.scan_s", "s", "lower"),
    ("orbital.refine_s", "s", "lower"),
    ("orbital.refine_evals", "count", "lower"),
    ("orbital.scan_points", "count", "lower"),
    ("orbital.passes", "count", "higher"),
    ("orbital.refused", "count", "lower"),
    ("orbital.maxdist_s", "s", "lower"),
    ("orbital.maxdist_calls", "count", "lower"),
    ("link.price_s", "s", "lower"),
    ("link.price_calls", "count", "lower"),
    ("scheduler.extract_s", "s", "lower"),
    ("scheduler.cycles", "count", "higher"),
    ("scheduler.online_cycles", "count", "higher"),
    ("scheduler.dropped_uploads", "count", "lower"),
    ("engine.run_s", "s", "lower"),
    ("engine.replay_self_s", "s", "lower"),
    ("learning.sgd_s", "s", "lower"),
    ("learning.sgd_calls", "count", "lower"),
    ("learning.grad_calls", "count", "lower"),
    ("learning.eval_s", "s", "lower"),
    ("learning.eval_calls", "count", "lower"),
    ("learning.data_s", "s", "lower"),
    ("federation.agg_s", "s", "lower"),
    ("federation.agg_calls", "count", "lower"),
    ("exports.write_s", "s", "lower"),
    ("exports.bytes", "bytes", "lower"),
    ("cli.glue_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]

# Self-time metrics that, summed, make up a traced op's wall time.
SELF_TIME_METRICS = (
    "cli.glue_s", "scenario.load_s", "orbital.plan_s", "orbital.maxdist_s",
    "link.price_s", "scheduler.extract_s", "engine.replay_self_s",
    "learning.sgd_s", "learning.eval_s", "learning.data_s",
    "federation.agg_s", "exports.write_s",
)


class Tracer:
    """Spans and counters for the traced iterations of one benchmark run."""

    def __init__(self):
        # (span_id, parent_id, op_id, name, start_s, end_s), in closing order
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op_id: str | None = None
        self._ids = itertools.count()
        self._stack: list[tuple[int, str]] = []
        self._patches: list[tuple[object, str, object]] = []

    # ---- spans ---------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Call fn inside a span named name."""
        sid = next(self._ids)
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, self.op_id, name, start, end))

    def _in_plan(self) -> bool:
        return bool(self._stack) and self._stack[-1][1] == PLAN_SPAN

    # ---- patching ------------------------------------------------------

    def install(self) -> None:
        for name, (module, functions) in LAYERS.items():
            for fn_name in functions:
                fn = getattr(sys.modules[module], fn_name)
                self._replace(fn, self._spanned(name, fn))
        orbital = sys.modules["satfl.orbital"]
        self._replace(orbital.satellite_position_eci,
                      self._counted_position(orbital.satellite_position_eci))
        self._replace(orbital.ground_station_position_eci,
                      self._counted_gs_position(orbital.ground_station_position_eci))
        self._replace(orbital.elevation_angle,
                      self._counted_elevation(orbital.elevation_angle))
        for cls in (LogisticRegressionLearner, MLPLearner):
            original = cls.gradient
            self._patches.append((cls, "gradient", original))
            cls.gradient = self._counted_gradient(original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _replace(self, fn, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "satfl" or mod_name.startswith("satfl.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def _spanned(self, name, fn):
        after = {
            PLAN_SPAN: self._after_plan,
            "scheduler.extract": self._after_extract,
            "exports.write": self._after_write,
        }.get(name)

        def wrapper(*args, **kwargs):
            try:
                result = self.call(name, fn, *args, **kwargs)
            except ScenarioError:
                if name == PLAN_SPAN:
                    self.counts["orbital.refused"] += 1
                raise
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def _after_plan(self, plan, args) -> None:
        self.counts["orbital.passes"] += sum(plan.pass_counts())

    def _after_extract(self, schedule, args) -> None:
        for cycles in schedule.cycles:
            self.counts["scheduler.cycles"] += len(cycles)
            for c in cycles:
                if c.mode.value == "TRAIN_ONLINE":
                    self.counts["scheduler.online_cycles"] += 1
                if c.ul_complete_s is None:
                    self.counts["scheduler.dropped_uploads"] += 1

    def _after_write(self, result, args) -> None:
        self.counts["exports.bytes"] += os.path.getsize(args[-1])

    # The coarse scan is the array-valued primitive calls under a plan span;
    # scalar elevation calls under a plan span are bisection steps.

    def _counted_position(self, fn):
        def wrapper(orbit, sat_index, t, *rest, **kwargs):
            if isinstance(t, np.ndarray) and t.ndim and self._in_plan():
                self.counts["orbital.scan_points"] += t.size
                return self._scan_call(fn, orbit, sat_index, t, *rest, **kwargs)
            return fn(orbit, sat_index, t, *rest, **kwargs)
        return wrapper

    def _counted_gs_position(self, fn):
        def wrapper(gs, t, *rest, **kwargs):
            if isinstance(t, np.ndarray) and t.ndim and self._in_plan():
                return self._scan_call(fn, gs, t, *rest, **kwargs)
            return fn(gs, t, *rest, **kwargs)
        return wrapper

    def _counted_elevation(self, fn):
        def wrapper(sat_pos, gs_pos):
            if self._in_plan():
                if np.ndim(sat_pos) > 1:
                    return self._scan_call(fn, sat_pos, gs_pos)
                self.counts["orbital.refine_evals"] += 1
            return fn(sat_pos, gs_pos)
        return wrapper

    def _scan_call(self, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.counts["orbital.scan_s"] += time.perf_counter() - start

    def _counted_gradient(self, fn):
        def gradient(learner, params, X, y):
            self.counts["learning.grad_calls"] += 1
            return fn(learner, params, X, y)
        return gradient

    # ---- results -------------------------------------------------------

    def take_iteration(self, first_span: int) -> dict[str, float]:
        """Per-layer metrics of the spans from index first_span on, and of
        the counters since the last call, which are then reset."""
        spans = self.spans[first_span:]
        covered = defaultdict(float)
        for sid, parent, _, _, start, end in spans:
            if parent is not None:
                covered[parent] += end - start
        total = defaultdict(float)
        self_s = defaultdict(float)
        calls = Counter()
        for sid, _, _, name, start, end in spans:
            total[name] += end - start
            self_s[name] += end - start - covered[sid]
            calls[name] += 1
        c = self.counts
        m = {
            "scenario.load_s": self_s["scenario.load"],
            "scenario.load_calls": calls["scenario.load"],
            "orbital.plan_s": self_s[PLAN_SPAN],
            "orbital.plan_calls": calls[PLAN_SPAN],
            "orbital.scan_s": c["orbital.scan_s"],
            "orbital.refine_s": self_s[PLAN_SPAN] - c["orbital.scan_s"],
            "orbital.refine_evals": c["orbital.refine_evals"],
            "orbital.scan_points": c["orbital.scan_points"],
            "orbital.passes": c["orbital.passes"],
            "orbital.refused": c["orbital.refused"],
            "orbital.maxdist_s": self_s["orbital.maxdist"],
            "orbital.maxdist_calls": calls["orbital.maxdist"],
            "link.price_s": self_s["link.price"],
            "link.price_calls": calls["link.price"],
            "scheduler.extract_s": self_s["scheduler.extract"],
            "scheduler.cycles": c["scheduler.cycles"],
            "scheduler.online_cycles": c["scheduler.online_cycles"],
            "scheduler.dropped_uploads": c["scheduler.dropped_uploads"],
            "engine.run_s": total["engine.run"],
            "engine.replay_self_s": self_s["engine.run"],
            "learning.sgd_s": self_s["learning.sgd"],
            "learning.sgd_calls": calls["learning.sgd"],
            "learning.grad_calls": c["learning.grad_calls"],
            "learning.eval_s": self_s["learning.eval"],
            "learning.eval_calls": calls["learning.eval"],
            "learning.data_s": self_s["learning.data"],
            "federation.agg_s": self_s["federation.agg"],
            "federation.agg_calls": calls["federation.agg"],
            "exports.write_s": self_s["exports.write"],
            "exports.bytes": c["exports.bytes"],
            "cli.glue_s": self_s[ROOT_SPAN],
        }
        self.counts = Counter()
        return m

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, op_id, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "op": op_id, "name": name,
                    "start_s": start, "end_s": end,
                }) + "\n")

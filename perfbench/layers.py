"""Tracing of mixcacc's layers from outside the package.

A :class:`Tracer` replaces module-level functions with timing wrappers.  Each
function is wrapped in the namespace its caller looks it up in: a name bound
by ``from .dynamics import step_vehicle`` is a separate binding in
``mixcacc.scenarios``, so patching ``mixcacc.dynamics`` alone would miss every
call the scalar engine makes.  Spans are aggregated in memory per function
(calls, total time, time covered by traced children); a function's self time
is its total minus its traced children.  Wrapper overhead of a child lands in
its parent's self time.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter


def _count_candidates(counters, args, result):
    # _vec_target_check(world, L, cand, ...): vehicles tested by the prefilter
    counters["ring._vec_target_check.candidates"] += len(args[2])


def _count_decision(counters, args, result):
    if result != "stay":
        counters["ring.lane_changes"] += 1


def _count_veh_ticks(counters, args, result):
    # _control_tick(world, L, ctrl) runs once per control tick over all vehicles
    counters["ring.veh_ticks"] += args[0].n


def _count_bytes(counters, args, result):
    counters["experiments._atomic_write_json.bytes"] += os.path.getsize(args[0])


def _count_cache(counters, args, result):
    counters["experiments.cache_misses" if result is None else "experiments.cache_hits"] += 1


COUNTERS = (
    "ring._vec_target_check.candidates",
    "ring.lane_changes",
    "ring.veh_ticks",
    "experiments._atomic_write_json.bytes",
    "experiments.cache_hits",
    "experiments.cache_misses",
)


# (namespace the caller looks the name up in, attribute, span name, counter hook)
WRAPPED = (
    ("mixcacc.experiments", "sweep_single", "experiments.sweep_single", None),
    ("mixcacc.experiments", "build_reference", "experiments.build_reference", None),
    ("mixcacc.experiments", "build_report", "experiments.build_report", None),
    ("mixcacc.experiments", "_atomic_write_json", "experiments._atomic_write_json", _count_bytes),
    ("mixcacc.experiments", "_load_if_current", "experiments._load_if_current", _count_cache),
    ("mixcacc.experiments", "run_single_platoon", "scenarios.run_single_platoon", None),
    ("mixcacc.experiments", "ring_run_metrics", "metrics.ring_run_metrics", None),
    ("mixcacc.scenarios", "step_vehicle", "dynamics.step_vehicle", None),
    ("mixcacc.scenarios", "acc_control", "controllers.acc_control", None),
    ("mixcacc.scenarios", "ploeg_control", "controllers.ploeg_control", None),
    ("mixcacc.scenarios", "path_control", "controllers.path_control", None),
    ("mixcacc.scenarios", "gsbl_control", "controllers.gsbl_control", None),
    ("mixcacc.scenarios", "gsbl_mode_update", "controllers.gsbl_mode_update", None),
    ("mixcacc.ring", "run_ring", "ring.run_ring", None),
    ("mixcacc.ring", "spawn_ring_traffic", "ring.spawn_ring_traffic", None),
    ("mixcacc.ring", "_lane_sort", "ring._lane_sort", None),
    ("mixcacc.ring", "_lane_change_pass", "ring._lane_change_pass", None),
    ("mixcacc.ring", "_vec_target_check", "ring._vec_target_check", _count_candidates),
    ("mixcacc.ring", "lane_change_decision", "ring.lane_change_decision", _count_decision),
    ("mixcacc.ring", "_control_tick", "ring._control_tick", _count_veh_ticks),
    ("mixcacc.ring", "_gsbl_tick", "ring._gsbl_tick", None),
    ("mixcacc.ring", "step_arrays", "ring.step_arrays", None),
)


class Tracer:
    """Wraps the functions in :data:`WRAPPED` while used as a context manager."""

    def __init__(self):
        self.spans: dict[str, list] = {}   # name -> [calls, total_s, children_s]
        self.counters: Counter = Counter()
        self._children = [0.0]             # child-time accumulators; [0] is the root
        self._patched: list[tuple] = []

    def __enter__(self):
        for module_name, attr, name, hook in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, hook))
            self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def _wrap(self, fn, name, hook):
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        children = self._children
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = children.pop()
                children[-1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += inner
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced


def layer_value(metric: str, spans: dict, counters: dict):
    """``<span>.calls``, ``<span>.s`` (total), ``<span>.self_s`` or a counter."""
    if metric in COUNTERS:
        return counters.get(metric, 0)
    span, _, stat = metric.rpartition(".")
    if span not in spans:
        raise KeyError(f"no traced function named {span!r}")
    calls, total, inner = spans[span]
    if stat == "calls":
        return calls
    if stat == "s":
        return total
    if stat == "self_s":
        return total - inner
    raise KeyError(f"unknown statistic in {metric!r}")

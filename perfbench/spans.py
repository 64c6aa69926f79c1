"""Span tracing for the traced benchmark run.

The tracer wraps public names of the semiflow_lab layers where callers look
them up (module attributes, and class attributes for methods), records one
span per call and keeps the spans in flat arrays in memory until the run
writes them out.  Nothing under src/ is modified: the wrappers are installed
for the traced pass and removed afterwards.

A span holds its layer name, start, end, parent span, task id and a work
count (points evaluated, or power iterations for norm2).
"""

from __future__ import annotations

import functools
import json
from array import array
from time import perf_counter

import numpy as np

from semiflow_lab import analytic, cli, cocycle, criteria, flow, intertwine, operators, spaces


def _points_at_times(args, kwargs):
    ts = args[1] if len(args) > 1 else kwargs["ts"]
    zs = args[2] if len(args) > 2 else kwargs["zs"]
    return float(np.size(ts) * np.size(zs))


def _points_arg1(args, kwargs):
    return float(np.size(args[1] if len(args) > 1 else kwargs["z"]))


def _points_arg2(args, kwargs):
    return float(np.size(args[2] if len(args) > 2 else kwargs["z"]))


def _iterations(result):
    return float(result.iterations)


# (owner, attribute, span name, work from arguments, work from result).
# A name imported by value into another module is wrapped there as well,
# under the span name of the layer that defines it.
PATCH_POINTS = (
    (criteria, "uniform_bound_verdict", "criteria.uniform_bound_verdict", None, None),
    (criteria, "hardy_criterion", "criteria.hardy_criterion", None, None),
    (criteria, "bergman_criterion", "criteria.bergman_criterion", None, None),
    (criteria, "direct_decay_probe", "criteria.direct_decay_probe", None, None),
    (criteria, "is_regular", "spaces.is_regular", None, None),
    (criteria, "carleson_measure", "spaces.carleson_measure", None, None),
    (criteria, "neville_extrapolate", "analytic.neville_extrapolate", None, None),
    (spaces, "is_regular", "spaces.is_regular", None, None),
    (spaces, "carleson_measure", "spaces.carleson_measure", None, None),
    (spaces, "hardy_norm", "spaces.hardy_norm", None, None),
    (spaces, "bergman_norm", "spaces.bergman_norm", None, None),
    (spaces, "neville_extrapolate", "analytic.neville_extrapolate", None, None),
    (flow, "verify_semiflow", "flow.verify_semiflow", None, None),
    (flow, "neville_extrapolate", "analytic.neville_extrapolate", None, None),
    (flow.Semiflow, "at_times", "flow.at_times", _points_at_times, None),
    (cocycle.Cocycle, "eval", "cocycle.eval", _points_arg2, None),
    (analytic.AnalyticFn, "__call__", "analytic.AnalyticFn", _points_arg1, None),
    (operators, "matrix", "operators.matrix", None, None),
    (operators, "norm2", "operators.norm2", None, _iterations),
    (operators, "norm_lower_bound", "operators.norm_lower_bound", None, None),
    (operators, "neville_extrapolate", "analytic.neville_extrapolate", None, None),
    (intertwine, "matrix", "operators.matrix", None, None),
    (intertwine, "norm2", "operators.norm2", None, _iterations),
    (intertwine, "recover_symbols", "intertwine.recover_symbols", None, None),
    (intertwine, "check_intertwiner", "intertwine.check_intertwiner", None, None),
    (intertwine, "extract_semigroup", "intertwine.extract_semigroup", None, None),
    (cli, "main", "cli.main", None, None),
    (cli, "verify_semiflow", "flow.verify_semiflow", None, None),
)


class Tracer:
    """In-memory span recorder; ``enabled`` gates recording per call."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.task_id = -1
        self.enabled = False
        self._stack = [-1]
        self._saved: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, work=None, work_of_result=None):
        nid = self._name_id(name)
        tracer = self
        stack = self._stack
        names, parents, tasks = self.name, self.parent, self.task
        starts, ends, works = self.start, self.end, self.work

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            tasks.append(tracer.task_id)
            works.append(work(args, kwargs) if work is not None else 0.0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if work_of_result is not None:
                works[idx] = work_of_result(result)
            return result

        return functools.wraps(fn)(traced)

    def install(self):
        """Replace every patch point by its traced wrapper."""
        for owner, attr, name, work, work_of_result in PATCH_POINTS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, work, work_of_result))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def save(self, path):
        """Write the spans as a numpy archive (names as a JSON list)."""
        np.savez(path, names=np.array(json.dumps(self.names)),
                 name=np.frombuffer(self.name, dtype=np.intc),
                 parent=np.frombuffer(self.parent, dtype=np.intc),
                 task=np.frombuffer(self.task, dtype=np.intc),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float),
                 work=np.frombuffer(self.work, dtype=float))

    def layer_metrics(self) -> dict:
        """Per-layer rows over everything recorded so far.

        ``self_s`` is a span's duration minus its direct children's
        durations; ``total_s`` sums the outermost spans of a name only, so
        recursion is not counted twice.
        """
        name = np.frombuffer(self.name, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        work = np.frombuffer(self.work, dtype=float)
        n_names = len(self.names)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        own = dur - child
        calls = np.bincount(name, minlength=n_names)
        self_s = np.bincount(name, weights=own, minlength=n_names)
        work_sum = np.bincount(name, weights=work, minlength=n_names)
        parent_name = np.where(nested, name[np.maximum(parent, 0)], -1)
        # install() registers every span name, so each key below has an id.
        ids = self._ids
        name_l, parent_l = name.tolist(), parent.tolist()

        def total(key):
            target = ids[key]
            out = 0.0
            for i in np.flatnonzero(name == target).tolist():
                p = parent_l[i]
                while p >= 0 and name_l[p] != target:
                    p = parent_l[p]
                if p < 0:
                    out += float(dur[i])
            return out

        def row(key, column):
            return float(column[ids[key]])

        at_times = name == ids["flow.at_times"]
        crit_ids = [ids["criteria.hardy_criterion"], ids["criteria.bergman_criterion"]]
        crit_calls = sum(float(calls[i]) for i in crit_ids)
        under_crit = at_times & np.isin(parent_name, crit_ids)
        nodes = float(np.sum(work[under_crit])) / crit_calls if crit_calls else 0.0
        flow_calls = float(np.sum(at_times & (parent_name == ids["cocycle.eval"])))

        rows = {}
        for key in ("criteria.bergman_criterion", "criteria.hardy_criterion",
                    "analytic.neville_extrapolate", "analytic.AnalyticFn",
                    "spaces.hardy_norm", "spaces.bergman_norm", "operators.matrix",
                    "operators.norm2", "cli.main"):
            rows[f"{key}.calls"] = (row(key, calls), "count")
            rows[f"{key}.self_s"] = (row(key, self_s), "s")
        rows["criteria.nodes_per_scan"] = (nodes, "count")
        rows["criteria.direct_decay_probe.total_s"] = (total("criteria.direct_decay_probe"), "s")
        rows["cocycle.eval.calls"] = (row("cocycle.eval", calls), "count")
        rows["cocycle.eval.points"] = (row("cocycle.eval", work_sum), "count")
        rows["cocycle.eval.total_s"] = (total("cocycle.eval"), "s")
        rows["cocycle.eval.flow_calls"] = (flow_calls, "count")
        rows["flow.at_times.calls"] = (row("flow.at_times", calls), "count")
        rows["flow.at_times.points"] = (row("flow.at_times", work_sum), "count")
        rows["flow.at_times.self_s"] = (row("flow.at_times", self_s), "s")
        rows["flow.verify_semiflow.total_s"] = (total("flow.verify_semiflow"), "s")
        for key in ("spaces.is_regular", "spaces.carleson_measure",
                    "intertwine.recover_symbols"):
            rows[f"{key}.calls"] = (row(key, calls), "count")
            rows[f"{key}.total_s"] = (total(key), "s")
        rows["operators.norm2.iterations"] = (row("operators.norm2", work_sum), "count")
        for key in ("operators.norm_lower_bound", "intertwine.check_intertwiner",
                    "intertwine.extract_semigroup"):
            rows[f"{key}.total_s"] = (total(key), "s")
        rows["_self_sum_s"] = (float(np.sum(own)), "s")
        return rows

"""Span tracing from outside the package, for the per-layer metrics.

``Tracer.install`` replaces the public functions and methods listed in
``LAYERS`` with wrappers that record one span per call (layer, start, end,
parent span, op id) in flat in-memory arrays; ``uninstall`` puts the
originals back. Nothing in ``synergy_es`` is edited. The program is
single-threaded and never waits on a queue, lock or other process, so
spans nest strictly and no wait time is recorded.

A layer's self time is its span minus its direct child spans. Each op is
a root span; its self time is the ``unwrapped`` remainder (benchmark glue
and package code outside every wrapped call), so an op's self times plus
that remainder sum to the traced op time.
"""

import functools
import os
from array import array
from time import perf_counter

import numpy as np

from synergy_es import (baseline, harness, personalizer, plant, subject,
                        svgplot, sysid)

# layer -> (owner, attribute) pairs it wraps. harness imports line_plot by
# name, so run_batch calls the harness binding, which is wrapped too.
LAYERS = {
    "subject.step": [(subject.SimulatedSubject, "step")],
    "personalizer.init": [(personalizer.Personalizer, "__init__")],
    "personalizer.filter": [(personalizer.BandPassFilter, "step")],
    "personalizer.observer": [(personalizer.GradCurvObserver, "step"),
                              (personalizer.GradCurvObserver, "demodulate")],
    "personalizer.optimizer": [(personalizer.SwitchedOptimizer, "update")],
    "personalizer.step": [(personalizer.Personalizer, "step")],
    "baseline.step": [(baseline.BlackBoxEs, "step")],
    "harness.run_episode": [(harness, "run_episode")],
    "harness.trace_write": [(harness, "write_trace_csv")],
    "harness.trace_read": [(harness, "read_trace_csv")],
    "harness.column": [(harness.EpisodeTrace, "column")],
    "harness.summarize": [(harness, "summarize_batch"),
                          (harness, "compare_traces")],
    "svgplot.line_plot": [(harness, "line_plot"), (svgplot, "line_plot")],
    "sysid.lti_fit": [(sysid, "fit_adaptation_lti")],
    "sysid.map_fit": [(sysid, "fit_preference_map")],
    "sysid.whiteness": [(sysid, "whiteness_test")],
    "sysid.identify": [(sysid, "identify_from_records")],
    "plant.simulate_reach": [(plant, "simulate_reach")],
    "plant.objective": [(plant, "objective")],
}
OP = "op"  # root span of one op
_NAMES = [OP] + list(LAYERS)
_ID = {name: i for i, name in enumerate(_NAMES)}


def _newton(args, _result):
    return args[0].last_branch == personalizer.NEWTON


def _written_bytes(args, _result):
    return os.path.getsize(args[1])


def _read_bytes(args, _result):
    return os.path.getsize(args[0])


# (layer, attribute) -> (counter, function of (args, result) added to it)
COUNTERS = {
    ("personalizer.optimizer", "update"): ("newton_branches", _newton),
    ("harness.trace_write", "write_trace_csv"): ("trace_write.bytes", _written_bytes),
    ("harness.trace_read", "read_trace_csv"): ("trace_read.bytes", _read_bytes),
}


def layer_metric_names():
    """Every per-layer metric the traced run reports, in report order."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}.calls_per_op", f"{layer}.self_ms_per_op",
                  f"{layer}.errors"]
    return names + ["personalizer.optimizer.newton_ratio",
                    "harness.trace_write.bytes_per_op",
                    "harness.trace_read.bytes_per_op",
                    "unwrapped.self_ms_per_op", "traced.op_ms_p50",
                    "trace.overhead_ratio"]


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.layer = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.errors = {name: 0 for name in LAYERS}
        self.counters = {name: 0 for name, _ in COUNTERS.values()}
        self._stack = [-1]
        self._op_id = -1
        self._saved = []

    def _open(self, layer_id):
        idx = len(self.start)
        self.layer.append(layer_id)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, layer, fn, counter):
        layer_id = _ID[layer]
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(layer_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                close(idx)
            if counter is not None:
                self.counters[counter[0]] += counter[1](args, result)
            return result
        return traced

    def install(self):
        for layer, targets in LAYERS.items():
            for owner, attr in targets:
                fn = getattr(owner, attr)
                self._saved.append((owner, attr, fn))
                setattr(owner, attr,
                        self._wrap(layer, fn, COUNTERS.get((layer, attr))))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    def run_op(self, op_id, fn, *args):
        """Call fn(*args) as op op_id under a root span; returns its result."""
        self._op_id = op_id
        idx = self._open(_ID[OP])
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._op_id = -1

    def arrays(self):
        """Spans as numpy columns, plus the layer-name table."""
        return {"layer": np.frombuffer(self.layer, dtype=np.uint8),
                "start": np.frombuffer(self.start, dtype=float),
                "end": np.frombuffer(self.end, dtype=float),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "op": np.frombuffer(self.op, dtype=np.int64),
                "names": np.array(_NAMES)}

    def save(self, path, **extra):
        np.savez(path, **self.arrays(), **extra)

    def op_times(self):
        """Wall time of each traced op, in seconds, in op order."""
        cols = self.arrays()
        root = cols["layer"] == _ID[OP]
        return (cols["end"] - cols["start"])[root]

    def self_times(self):
        """(layer id, self seconds) per span."""
        cols = self.arrays()
        dur = cols["end"] - cols["start"]
        has_parent = cols["parent"] >= 0
        child = np.bincount(cols["parent"][has_parent],
                            weights=dur[has_parent], minlength=dur.size)
        return cols["layer"], dur - child

    def layer_metrics(self, traced_p50_s, untraced_p50_s):
        """Per-layer metrics, per traced op, by name. The two medians are
        the run's speed-normalized op times with and without tracing."""
        layer_ids, self_s = self.self_times()
        n_ops = int(np.sum(layer_ids == _ID[OP]))
        calls = np.bincount(layer_ids, minlength=len(_NAMES))
        busy = np.bincount(layer_ids, weights=self_s, minlength=len(_NAMES))
        out = {}
        for layer in LAYERS:
            i = _ID[layer]
            out[f"{layer}.calls_per_op"] = (calls[i] / n_ops, "count")
            out[f"{layer}.self_ms_per_op"] = (1e3 * busy[i] / n_ops, "ms")
            out[f"{layer}.errors"] = (self.errors[layer], "count")
        updates = calls[_ID["personalizer.optimizer"]]
        out["personalizer.optimizer.newton_ratio"] = (
            self.counters["newton_branches"] / updates if updates else 0.0, "ratio")
        out["harness.trace_write.bytes_per_op"] = (
            self.counters["trace_write.bytes"] / n_ops, "bytes")
        out["harness.trace_read.bytes_per_op"] = (
            self.counters["trace_read.bytes"] / n_ops, "bytes")
        out["unwrapped.self_ms_per_op"] = (1e3 * busy[_ID[OP]] / n_ops, "ms")
        out["traced.op_ms_p50"] = (1e3 * traced_p50_s, "ms")
        out["trace.overhead_ratio"] = (traced_p50_s / untraced_p50_s, "ratio")
        return {k: {"value": float(v), "unit": u} for k, (v, u) in out.items()}

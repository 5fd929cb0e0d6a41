"""Span tracer that wraps robloc's layers from outside the package.

Each target is patched where callers look it up. A module-level function is
replaced under every module binding that holds it: ``breakdown.enumerate_facets``
and ``conditions.enumerate_facets`` are separate names for
``geometry.enumerate_facets`` and both are wrapped. A method is replaced on its
class. A target that no longer exists is recorded as missing, and every metric
derived from it is reported as absent rather than as zero.

Spans are ``[name, start_ns, end_ns, parent_index, op_id]`` rows kept in memory
until :meth:`Tracer.write`. Counters are collected at the same boundaries from
argument and result shapes, so the program itself is never modified.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter
from math import comb

import numpy as np


def _rows(xs) -> int:
    a = np.asarray(xs)
    return 1 if a.ndim < 2 else int(a.shape[0])


def _mcd_subsets(args, kwargs, result, parent):
    # C(n, h): h is read off the reported optimal subsets, n off the input.
    return {"subsets": comb(args[0].n, len(result.optimal_subsets[0]))}


def _batch_products(args, kwargs, result, parent):
    evaluator, xs = args[0], args[1]
    rows = _rows(xs)
    out = {"query_dir_products": rows * int(evaluator.directions.shape[0])}
    if parent == "estimators.projection_median":
        out["@estimators.projection_median.candidates"] = rows
    return out


def _sweep_outcome(args, kwargs, result, parent):
    return {
        "diverged": int(result.diverged),
        "@breakdown.gamma_nudges": sum(1 for r in result.records if r.nudged),
    }


# (span name, module, attribute path, counter). A span name of None counts
# calls without recording spans: hyperplane_normal runs tens of thousands of
# times per certification and only its call count is wanted.
TARGETS = (
    ("estimators", "estimators", "LocationEstimator.__call__", None),
    ("estimators.mcd_exhaustive", "estimators", "mcd_exhaustive", _mcd_subsets),
    ("estimators.projection_median", "estimators", "projection_median", None),
    ("estimators.trimmed_mean", "estimators", "trimmed_mean", None),
    ("estimators.coordinatewise_median", "estimators", "coordinatewise_median", None),
    ("univariate.univariate_median", "univariate", "univariate_median", None),
    ("depth.direction_set", "depth", "direction_set",
     lambda a, k, r, p: {"directions": int(r.shape[0])}),
    ("depth.evaluator_init", "depth", "OutlyingnessEvaluator.__init__", None),
    ("depth.outlyingness_batch", "depth", "OutlyingnessEvaluator.batch", _batch_products),
    (None, "geometry", "hyperplane_normal", "geometry.hyperplane_normal"),
    ("geometry.enumerate_facets", "geometry", "enumerate_facets", None),
    ("geometry.shear_transform", "geometry", "shear_transform", None),
    ("geometry.check_general_position", "geometry", "check_general_position", None),
    ("breakdown.frames", "breakdown", "_shear_frames", lambda a, k, r, p: {"count": len(r)}),
    ("breakdown.sweep", "breakdown", "_run_shear_sweep", _sweep_outcome),
    ("breakdown.screen", "breakdown", "_ShearPositionScreen.__init__", None),
    ("breakdown.screen", "breakdown", "_ShearPositionScreen.row_replacements", None),
    ("breakdown.screen", "breakdown", "_ShearPositionScreen.linear_coeff", None),
    ("breakdown.screen", "breakdown", "_ShearPositionScreen.gamma_ok", None),
    ("breakdown.preimage_check", "breakdown", "_check_preimage_identity", None),
    ("breakdown.cluster", "breakdown", "translation_cluster_attack", None),
    ("dataset.with_replaced", "dataset", "DataSet.with_replaced", None),
    ("metric.estimate_set_distance", "metric", "estimate_set_distance", None),
    ("conditions.condition_margin", "conditions", "condition_margin",
     lambda a, k, r, p: {"probes": len(r.probes)}),
    ("conditions.check_equivariance", "conditions", "check_equivariance", None),
    ("cli.emit", "bench", "emit_fsbv", lambda a, k, r, p: {"bytes": len(r.encode("utf-8"))}),
)

# Counters reported per pass besides ``<span>.calls`` and ``<span>.self_s``,
# each with the targets it is collected from: a counter is absent when any
# of them is missing.
EXTRA_COUNTERS = {
    "estimators.mcd_exhaustive.subsets": ("estimators.mcd_exhaustive",),
    "estimators.projection_median.candidates": ("estimators.projection_median",
                                                "depth.outlyingness_batch"),
    "depth.direction_set.directions": ("depth.direction_set",),
    "depth.outlyingness_batch.query_dir_products": ("depth.outlyingness_batch",),
    "geometry.hyperplane_normal.calls": ("geometry.hyperplane_normal",),
    "breakdown.frames.count": ("breakdown.frames",),
    "breakdown.gamma_nudges": ("breakdown.sweep",),
    "breakdown.sweep.diverged_ratio": ("breakdown.sweep",),
    "conditions.condition_margin.probes": ("conditions.condition_margin",),
    "cli.emit.bytes": ("cli.emit",),
}


def span_names() -> list:
    """``op`` is the root span of one operation: its self time is the time
    spent outside every wrapped layer."""
    return ["op", *dict.fromkeys(name for name, *_ in TARGETS if name is not None)]


def unit_of(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_ratio"):
        return "ratio"
    return "bytes" if key.endswith(".bytes") else "count"


def metric_owners() -> dict:
    """Every per-pass metric name, mapped to the targets it depends on."""
    owners = {}
    for name in span_names():
        owners[f"{name}.calls"] = (name,)
        owners[f"{name}.self_s"] = (name,)
    owners.update(EXTRA_COUNTERS)
    return owners


class Tracer:
    """Records spans and counters while ``active``; inert otherwise."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.active = False
        self.op_id = -1
        self.missing = set()
        self._stack = []
        self._undo = []
        self._op_span = self._spanning("op", lambda fn: fn(), None)

    def run_op(self, op_id: int, fn):
        """Run one operation under a root span, recording while it runs."""
        self.op_id = op_id
        self.active = True
        try:
            return self._op_span(fn)
        finally:
            self.active = False

    # -- patching ----------------------------------------------------------

    def install(self, rb, bench_module) -> None:
        """Wrap every target in the loaded robloc package ``rb``.

        ``bench_module`` provides the benchmark's own boundary functions
        (the ``bench`` module of TARGETS).
        """
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "robloc" or key.startswith("robloc."))]
        modules.append(bench_module)
        for name, modname, attr, counter in TARGETS:
            home = bench_module if modname == "bench" else getattr(rb, modname, None)
            owner_name = name if name is not None else counter
            obj, leaf = home, attr
            if "." in attr:
                cls_name, leaf = attr.split(".")
                obj = getattr(home, cls_name, None)
            if isinstance(obj, type):
                original = obj.__dict__.get(leaf)
            else:
                original = None if obj is None else getattr(obj, leaf, None)
            if original is None:
                self.missing.add(owner_name)
                continue
            if name is None:
                wrapped = self._counting(counter, original)
            else:
                wrapped = self._spanning(name, original, counter)
            if isinstance(obj, type):
                self._undo.append((obj, leaf, original))
                setattr(obj, leaf, wrapped)
            else:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, key, original))
                            setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._undo):
            setattr(obj, key, original)
        self._undo.clear()

    def _counting(self, key, fn):
        tracer = self
        calls = key + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanning(self, name, fn, counter):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer._stack
            parent = stack[-1] if stack else -1
            row = [name, clock(), 0, parent, tracer.op_id]
            stack.append(len(spans))
            spans.append(row)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if counter is not None:
                parent_name = spans[parent][0] if parent >= 0 else None
                for key, value in counter(args, kwargs, result, parent_name).items():
                    tracer.counts[key[1:] if key[0] == "@" else f"{name}.{key}"] += value
            return result

        return wrapper

    # -- reduction ---------------------------------------------------------

    def pass_metrics(self, first_span: int, counts: Counter) -> dict:
        """Calls, self time and counters of the spans recorded since
        ``first_span``, with ``counts`` the counter delta of the same pass."""
        rows = self.spans[first_span:]
        child = [0] * len(rows)
        for i, (_, start, end, parent, _) in enumerate(rows):
            if parent >= first_span:
                child[parent - first_span] += end - start
        out = {key: 0.0 if unit_of(key) == "s" else 0 for key in metric_owners()}
        for i, (name, start, end, _, _) in enumerate(rows):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start - child[i]) * 1e-9
        for key in EXTRA_COUNTERS:
            out[key] = counts.get(key, 0)
        sweeps = out["breakdown.sweep.calls"]
        # 0/0 when the workload runs no sweep; the base is reported beside it.
        out["breakdown.sweep.diverged_ratio"] = (
            counts.get("breakdown.sweep.diverged", 0) / sweeps if sweeps else 0.0
        )
        for key, owners in metric_owners().items():
            if any(owner in self.missing for owner in owners):
                out[key] = None
        return out

    def write(self, path, header: dict) -> None:
        """Write the recorded spans as gzipped JSON lines after a header.

        Span names are replaced by their index in the header's ``names``.
        """
        names = span_names()
        index = {name: i for i, name in enumerate(names)}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            head = dict(header, fields=["name", "start_ns", "end_ns", "parent", "op_id"],
                        names=names, missing=sorted(self.missing))
            fh.write(json.dumps(head, sort_keys=True) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"[{index[name]},{start},{end},{parent},{op}]\n")

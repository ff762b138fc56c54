"""Spans around ovstat's public functions, installed from outside the library.

Only a traced pass uses this module.  `Tracer.install` replaces each listed
function at every name an ``ovstat`` module binds it to (the package
re-exports, the ``from .x import f`` names of other modules and the defining
module's own global, which its internal callers look up), so calls into a
layer are timed wherever they come from.  Parent models returned by the
``parent`` constructors get traced ``quantile`` and ``cdf`` callables through
`dataclasses.replace`.

Spans are tuples ``(id, name, start, end, parent, extra)`` kept in memory;
`summarize` turns them into calls and self times, where a span's self time is
its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import gzip
import itertools
import json
import sys
import threading
import time

import numpy as np

import ovstat.cli  # noqa: F401  (install patches ovstat.cli.main)

# span name -> (module, function names); all names of one entry share the span
SPANNED = {
    "combinatorics.count_matching": ("ovstat.combinatorics", ["count_matching"]),
    "overlap.probability_table": ("ovstat.overlap", ["probability_table"]),
    "parent.build": (
        "ovstat.parent",
        [
            "uniform",
            "exponential",
            "power_law",
            "negative_pareto",
            "negative_exponential",
            "logistic",
            "complementary_beta",
            "from_quantile_density",
            "make_family",
            "from_config",
        ],
    ),
    "density.nu_total_mass": ("ovstat.density", ["nu_total_mass"]),
    "density.rectangle_probability": ("ovstat.density", ["rectangle_probability"]),
    "regression.mean": (
        "ovstat.regression",
        ["mean_original_given_extended", "mean_extended_given_original"],
    ),
    "regression.conditional_os_mean": ("ovstat.regression", ["conditional_os_mean"]),
    "regression.closed_form": (
        "ovstat.regression",
        [
            "pair_regression_r1",
            "mean_min_extended",
            "mean_max_extended",
            "mean_adjacent",
            "mean_given_single",
        ],
    ),
    "curve.tabulate": ("ovstat.curve", ["tabulate"]),
    "reconstruct": (
        "ovstat.reconstruct",
        [
            "from_min_regression",
            "from_max_regression",
            "from_adjacent_regression",
            "from_single_regression_slope",
        ],
    ),
    "mc.simulate_pairs": ("ovstat.mc", ["simulate_pairs"]),
    "mc.verify_spec": ("ovstat.mc", ["verify_spec"]),
    "mc.regression_comparison": ("ovstat.mc", ["regression_comparison"]),
    "mc.binned_conditional_mean": ("ovstat.mc", ["binned_conditional_mean"]),
    "cli.main": ("ovstat.cli", ["main"]),
}

# counted but not spanned: one call per table entry, so a span would only
# move the overlap layer's own time into a child
COUNTED = {"overlap.rank_match_probability": ("ovstat.overlap", "rank_match_probability")}


def _points(args, kwargs, result):
    return int(np.size(args[0]))


def _draws(args, kwargs, result):
    spec, _model, count = args[:3]
    return (int(count), int(count) * spec.pooled_size)


def _table(args, kwargs, result):
    return result  # entries are counted after the pass, outside every span


MEASURES = {"mc.simulate_pairs": _draws, "overlap.probability_table": _table}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: collections.Counter = collections.Counter()
        self.task_labels: dict[int, str] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            # a pool thread: the main thread is blocked in the call that
            # started the pool, which is therefore the parent
            parent = self._main_stack[-1]
        else:
            parent = None
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def wrap(self, name: str, fn, measure=None, post=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, sid, parent = self._open()
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = measure(args, kwargs, result) if measure else None
                self.spans.append((sid, name, start, end, parent, extra))
            return post(result) if post else result

        traced.__traced__ = True
        return traced

    def task(self, label: str, fn):
        """Run ``fn`` as a root span named ``task``."""
        stack, sid, parent = self._open()
        self.task_labels[sid] = label
        start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, "task", start, end, parent, None))

    def _trace_model(self, model):
        from ovstat.parent import ParentModel

        if not isinstance(model, ParentModel) or getattr(model.quantile, "__traced__", False):
            return model
        return dataclasses.replace(
            model,
            quantile=self.wrap("parent.quantile", model.quantile, _points),
            cdf=self.wrap("parent.cdf", model.cdf, _points),
        )

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ovstat" or mod_name.startswith("ovstat.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        for name, (mod_name, functions) in SPANNED.items():
            post = self._trace_model if name == "parent.build" else None
            for fn_name in functions:
                original = getattr(sys.modules[mod_name], fn_name)
                self._replace_everywhere(
                    original, self.wrap(name, original, MEASURES.get(name), post)
                )
        for name, (mod_name, fn_name) in COUNTED.items():
            original = getattr(sys.modules[mod_name], fn_name)

            def counted(*args, _fn=original, _name=name, **kwargs):
                self.counts[_name] += 1
                return _fn(*args, **kwargs)

            self._replace_everywhere(original, counted)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def dump(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as handle:
            for sid, name, start, end, parent, extra in self.spans:
                record = {"id": sid, "name": name, "start": start, "end": end, "parent": parent}
                if sid in self.task_labels:
                    record["task"] = self.task_labels[sid]
                handle.write(json.dumps(record) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    children = collections.defaultdict(list)
    for sid, _name, start, end, parent, _extra in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - _covered(children.get(sid, []), start, end)
        for sid, _name, start, end, _parent, _extra in spans
    }


def summarize(tracer: Tracer) -> dict:
    """Calls, self and total seconds and measured extras per span name."""
    spans = tracer.spans
    own = self_times(spans)
    names = {sid: name for sid, name, *_ in spans}
    out: dict[str, dict] = collections.defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "extra": []}
    )
    for sid, name, start, end, parent, extra in spans:
        entry = out[name]
        entry["self_s"] += own[sid]
        # a nested call of the same layer (complementary_beta calling
        # from_quantile_density) is one call into the layer
        if names.get(parent) != name:
            entry["calls"] += 1
            entry["total_s"] += end - start
        if extra is not None:
            entry["extra"].append(extra)
    for name, count in tracer.counts.items():
        out[name]["calls"] += count
    return dict(out)


def self_by_name_under(tracer: Tracer, labels) -> dict[str, float]:
    """Self seconds per span name inside the task spans whose label is in ``labels``."""
    spans = tracer.spans
    own = self_times(spans)
    parent_of = {sid: parent for sid, _n, _s, _e, parent, _x in spans}
    roots = {sid for sid, label in tracer.task_labels.items() if label in labels}
    out: dict[str, float] = collections.defaultdict(float)
    for sid, name, *_ in spans:
        node = sid
        while node is not None and node not in roots:
            node = parent_of.get(node)
        if node is not None:
            out[name] += own[sid]
    return dict(out)

"""Spans around the calls one widefs module makes into another.

The tracer replaces, for the length of a ``with`` block, every binding of
the traced functions in the loaded ``widefs`` modules (the defining
module included, since some callers import lazily) with a wrapper that
records one span per call.  Spans are kept in memory as
(name, tag, start, end, parent, work) and written out by the caller.
Nothing inside widefs is edited; a traced function that a later widefs
no longer has is skipped, and its metrics then read zero.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


def _first_tag(args, kwargs):
    head = args[0] if args else next(iter(kwargs.values()), "")
    return str(getattr(head, "tag", head))


def _no_tag(args, kwargs):
    return ""


def _evaluations(result):
    return getattr(result, "evaluations", 0)


# (module, function, span name, tag of the call, work count of the result)
TRACED = (
    ("dataset", "load_csv", "dataset.load", _no_tag, None),
    ("dataset", "stratified_split", "dataset.split", _no_tag, None),
    ("rankers", "rank_features", "rankers.rank", _first_tag, None),
    ("selectors", "select", "selectors.select", _first_tag, _evaluations),
    ("estimators", "smoothed_loo_value", "estimators.sloo", _first_tag, None),
    ("estimators", "holdout_true_error", "estimators.holdout", _no_tag, None),
    ("estimators", "proper_rloo_error", "estimators.rloo", _no_tag, None),
)


class Untraced:
    """Stands in for a Tracer when tracing is off: calls straight through."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    def patched():
        return nullcontext()


class Tracer:
    """Records spans; use ``call`` for calls the benchmark makes itself and
    ``patched`` to trace the calls widefs modules make into each other."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def call(self, name, fn, *args, **kwargs):
        idx, parent = self._open()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, "", start, end, parent, 0)

    def _wrap(self, fn, name, tag_of, work_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, parent = self._open()
            work = 0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if work_of is not None:
                    work = work_of(result)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, tag_of(args, kwargs), start, end, parent, work)

        return traced

    @contextmanager
    def patched(self):
        """Rebind the traced functions in every loaded widefs module."""
        modules = [m for n, m in sys.modules.items() if n == "widefs" or n.startswith("widefs.")]
        undo = []
        for mod_name, attr, name, tag_of, work_of in TRACED:
            original = getattr(sys.modules.get(f"widefs.{mod_name}"), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, name, tag_of, work_of)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, original))
        try:
            yield self
        finally:
            for mod, attr, original in reversed(undo):
                setattr(mod, attr, original)

    def totals(self):
        """Per (name, tag): [calls, seconds, work]."""
        out = defaultdict(lambda: [0, 0.0, 0])
        for name, tag, start, end, _, work in self.spans:
            row = out[(name, tag)]
            row[0] += 1
            row[1] += end - start
            row[2] += work
        return out

    def child_seconds(self, parent_name, child_names):
        """Seconds spent in direct children named ``child_names`` of spans
        named ``parent_name``."""
        total = 0.0
        for name, _, start, end, parent, _ in self.spans:
            if parent >= 0 and name in child_names and self.spans[parent][0] == parent_name:
                total += end - start
        return total


def wrapper_cost(samples: int = 20000) -> float:
    """Measured seconds one traced call adds over an untraced one."""
    def noop(*args):
        return None

    tracer = Tracer()
    traced = tracer._wrap(noop, "noop", _first_tag, None)
    start = time.perf_counter()
    for _ in range(samples):
        noop("x")
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(samples):
        traced("x")
    wrapped = time.perf_counter() - start
    return max(0.0, (wrapped - plain) / samples)

"""In-memory span tracer that wraps public ``bellnoise`` functions from outside.

Each wrapped function is replaced, at the name its calling module imports it
under, by a wrapper that records a span (name, start, end, parent).  Spans
stay in memory until the run ends.  Nothing under ``src/`` changes, and the
original functions are put back when :func:`installed` exits.

Only the process that created the tracer records spans: forked pool workers
inherit the wrappers but call straight through, so time inside workers shows
up only as the parent's wait on the pool.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = defaultdict(int)
        self.enabled = True
        self._stack = [-1]
        self._pid = os.getpid()

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id):
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index):
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def recording(self):
        return self.enabled and os.getpid() == self._pid

    @contextmanager
    def span(self, name):
        if not self.recording():
            yield
            return
        index = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, fn, name, count=None):
        """``fn`` recording a span per call; ``name`` may be a function of the call's args.

        ``count(counts, args, kwargs, result)`` adds the call's work counters.
        """
        name_of = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording():
                return fn(*args, **kwargs)
            index = self._open(self._name_id(name_of(args, kwargs)))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return wrapper

    def summary(self):
        """``{name: (calls, busy_s, self_s)}`` over every recorded span."""
        self_s = self_times(self.starts, self.ends, self.parents)
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for k, name_id in enumerate(self.name_ids):
            row = out[self.names[name_id]]
            row[0] += 1
            row[1] += self.ends[k] - self.starts[k]
            row[2] += self_s[k]
        return {name: tuple(row) for name, row in out.items()}


def self_times(starts, ends, parents):
    """Each span's duration minus the part of it that its child spans cover.

    Children are clipped to their parent and overlapping children are counted
    once, so the result never goes below zero.
    """
    n = len(starts)
    covered = [0.0] * n
    reach = {}
    for k in sorted(range(n), key=starts.__getitem__):
        p = parents[k]
        if p < 0:
            continue
        lo = max(starts[k], starts[p], reach.get(p, starts[p]))
        hi = min(ends[k], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [ends[k] - starts[k] - covered[k] for k in range(n)]


@contextmanager
def installed(tracer, targets):
    """Wrap every ``(module, attr, name, count)`` target; restore them all on exit."""
    originals = []
    try:
        for module, attr, name, count in targets:
            original = getattr(module, attr)
            originals.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, count))
        yield tracer
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)

"""In-memory span tracer that wraps functions at module attributes.

A span is (name, start, end, parent): the parent is the index of the span
that was open when this one started, or -1. Spans stay in memory until the
run ends; self time is derived from them afterwards, so the wrapper itself
does as little as possible while the program runs.
"""

from __future__ import annotations

import functools
import math
import time


class TraceTargetMissing(RuntimeError):
    """A wrapped attribute is gone: the layer it measured was renamed or moved."""


def percentile(values, q):
    """Linearly interpolated q-th percentile (0..100) of a non-empty sequence."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sequence")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def self_times(spans):
    """Per-span self time: duration minus the part of it child spans cover.

    spans: sequence of (name, start, end, parent). Children of one parent
    may not overlap each other in a single thread, but coverage is merged
    anyway so the result never goes below zero.
    """
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children[i], key=lambda j: spans[j][1]):
            c_start = max(spans[c][1], reach)
            c_end = min(spans[c][2], end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


class Tracer:
    """Records spans of wrapped calls and counters computed from their arguments.

    `install` replaces module attributes with wrappers and `uninstall` puts
    the originals back. A target that no longer exists raises
    TraceTargetMissing instead of silently measuring nothing.
    """

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []
        self._patched = []

    def span(self, name, fn, count=None):
        """Wrap fn so each call records a span; count(args, kwargs, result) -> {key: n}."""
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if count is not None:
                for key, n in count(args, kwargs, result).items():
                    counters[key] = counters.get(key, 0) + n
            return result

        return traced

    def install(self, targets):
        """targets: iterable of (owner, attribute, span name, counter or None)."""
        for owner, attr, name, count in targets:
            if not hasattr(owner, attr):
                self.uninstall()
                raise TraceTargetMissing(
                    f"{getattr(owner, '__name__', owner)!s}.{attr} no longer exists; "
                    f"the {name} layer metrics cannot be measured"
                )
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original, count))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summary(self):
        """{name: {"calls", "self_s", "durations"}} over all finished spans."""
        done = [s for s in self.spans if s is not None]
        if len(done) != len(self.spans):
            raise RuntimeError("summary taken while spans are still open")
        out = {}
        for (name, start, end, _), own in zip(done, self_times(done)):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["self_s"] += own
            entry["durations"].append(end - start)
        return out

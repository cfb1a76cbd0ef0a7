"""In-memory span recorder for the benchmark's traced run.

Spans are recorded around calls into the program's public functions by
patching them from outside: the program itself is not changed.  A span is
``[name, start, end, parent]`` where ``parent`` is the index of the
enclosing span or ``None`` for a root.  A span's layer is the part of its
name before the first dot.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = defaultdict(float)
        self.absent = []
        self._stack = []
        self._installed = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = self.clock()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def wrap(self, fn, name, counter=None):
        """``fn`` recorded as a span; ``counter(result, args, kwargs)`` adds to counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                for key, value in counter(result, args, kwargs).items():
                    self.counts[key] += value
            return result

        return traced

    def install(self, targets):
        """Patch each ``(module, "attr" or "Class.attr", span name, counter)``.

        Names bound with ``from ... import`` are patched in the module that
        uses them.  A target that no longer exists is listed in ``absent``.
        """
        for module_name, path, name, counter in targets:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self.wrap(original, name, counter))
            self._installed.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()


def self_times(spans):
    """Per-span self time: its duration minus the part its children cover.

    Children are clipped to the parent's interval and overlapping children
    are merged, so time covered twice is subtracted once.
    """
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def summarize(spans):
    """Totals keyed by span name and by layer.

    Returns ``(by_name, by_layer, root_s)`` where ``by_name[name]`` is
    ``{"calls", "inclusive_s", "self_s"}``, ``by_layer[layer]`` is the
    summed self time of the layer's spans, and ``root_s`` is the summed
    duration of root spans.  For properly nested spans (one thread) the
    layer self times add up to ``root_s``.
    """
    selfs = self_times(spans)
    by_name = defaultdict(lambda: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
    by_layer = defaultdict(float)
    root_s = 0.0
    for (name, start, end, parent), self_s in zip(spans, selfs):
        entry = by_name[name]
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["inclusive_s"] += end - start
        by_layer[name.split(".", 1)[0]] += self_s
        if parent is None:
            root_s += end - start
    return dict(by_name), dict(by_layer), root_s


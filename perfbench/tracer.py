"""Span tracer that wraps quadrikit's public functions from outside.

A boundary names a function or method by its defining module and
attribute path.  Installing the tracer replaces that object in every
quadrikit module namespace that holds it (a name imported with
`from ... import` is a second binding that callers use), so calls are seen
whichever namespace they go through.  A boundary that no longer exists is
skipped and listed instead of failing the run.

Timed boundaries record one span per call: (span id, name, job, start,
end, parent span id).  Spans stay in memory until the run writes them.
Self time is a span's duration minus the time covered by its child spans.
Counted boundaries only count calls: they run 10^5-10^6 times per pass,
and timing each call would swamp the trace.
"""

import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional


@dataclass(frozen=True)
class Boundary:
    name: str  # metric prefix, e.g. "linalg.q_rank"
    modules: tuple  # candidate defining modules, first hit wins
    attr: str  # "q_rank" or "Class.method"
    timed: bool = True
    # observe(stat, args, kwargs, result) adds boundary-specific counts
    observe: Optional[Callable] = None


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)
    keys: set = field(default_factory=set)

    def add(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount


def _resolve(boundary):
    """(owner, attr name, raw attribute) or None when the boundary is gone."""
    owner_path, _, leaf = boundary.attr.rpartition(".")
    for modname in boundary.modules:
        mod = sys.modules.get(modname)
        if mod is None:
            continue
        owner = mod
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part, None)
        if owner is None:
            continue
        raw = vars(owner).get(leaf)
        if raw is not None:
            return owner, leaf, raw
    return None


class Tracer:
    def __init__(self, boundaries):
        self.boundaries = list(boundaries)
        self.stats = {b.name: Stat() for b in self.boundaries}
        self.spans = []
        self.skipped = []
        self.job = None
        self._stack = []  # [span id, child time] per open span
        self._next_id = 0
        self._restore = []

    # -- installation -------------------------------------------------

    def install(self):
        namespaces = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == "quadrikit" or name.startswith("quadrikit."))
        ]
        for b in self.boundaries:
            found = _resolve(b)
            if found is None:
                self.skipped.append(b.name)
                continue
            owner, leaf, raw = found
            if isinstance(owner, type):
                self._patch_method(b, owner, leaf, raw)
            else:
                self._patch_function(b, raw, namespaces)

    def _patch_method(self, b, cls, leaf, raw):
        if isinstance(raw, (classmethod, staticmethod)):
            patched = type(raw)(self._wrap(b, raw.__func__))
        else:
            patched = self._wrap(b, raw)
        setattr(cls, leaf, patched)
        self._restore.append((cls, leaf, raw))

    def _patch_function(self, b, fn, namespaces):
        wrapper = self._wrap(b, fn)
        for mod in namespaces:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, fn))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- wrappers -------------------------------------------------------

    def _wrap(self, b, fn):
        stat = self.stats[b.name]
        observe = b.observe
        if not b.timed:

            def counted(*args, **kwargs):
                stat.calls += 1
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(stat, args, kwargs, result)
                return result

            return counted

        stack = self._stack
        spans = self.spans
        name = b.name

        def timed(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame[1]
                spans.append(
                    (span_id, name, self.job, start, end, parent[0] if parent else None)
                )
            if observe is not None:
                observe(stat, args, kwargs, result)
            return result

        return timed

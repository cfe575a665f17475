"""In-memory call spans around the program's public callables.

A span is (name, tag, parent, start, end): `tag` is the controller variant
of the closed-loop step that encloses the call, `parent` the index of the
enclosing span (-1 at the top). Spans stay in Python lists while the clock
runs and become numpy arrays only when the run has ended.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter_ns

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name, self.tag, self.parent, self.start, self.end = [], [], [], [], []
        self.notes: dict[str, float] = defaultdict(float)
        self.current_tag = 0
        self._stack = [-1]

    def wrap(self, name: str, fn, tag_of=None, after=None):
        """`fn` recording one span per call. `tag_of(*args)` sets the tag of
        the span and of every span inside it; `after(args, kwargs, result)`
        returns an amount added to `notes[name]` once the span has ended."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)

        def traced(*args, **kwargs):
            i = len(self.start)
            outer_tag = self.current_tag
            if tag_of is not None:
                self.current_tag = tag_of(*args)
            self.name.append(nid)
            self.tag.append(self.current_tag)
            self.parent.append(self._stack[-1])
            self.end.append(0)
            self._stack.append(i)
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter_ns()
                self._stack.pop()
                self.current_tag = outer_tag
            if after is not None:
                self.notes[name] += after(args, kwargs, result)
            return result

        return traced

    def arrays(self) -> dict:
        """Spans as arrays plus each span's self time (its duration minus
        the durations of its direct children), in nanoseconds."""
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end, dtype=np.int64) - np.asarray(self.start, dtype=np.int64)
        inner = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(inner, parent[has], dur[has])
        return {"name": np.asarray(self.name, dtype=np.int32),
                "tag": np.asarray(self.tag, dtype=np.int32), "parent": parent,
                "start": np.asarray(self.start, dtype=np.int64), "dur": dur,
                "self": dur - inner}

    def save(self, path) -> None:
        spans = self.arrays()
        np.savez_compressed(path, names=np.asarray(self.names), **spans)

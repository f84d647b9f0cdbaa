"""Spans around the program's public functions, kept in memory.

The tracer replaces a function on the object its caller looks it up on
(``plantedcycles.recovery.subroutine_a`` for ``recover``'s calls, the
``ColoredGraph`` class for every construction) and restores it on close.
Each call becomes a span: name, start, end, the index of the enclosing
span and the operation it ran for.  Optional hooks turn arguments and
return values into counts at the same boundary.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, points=()):
        self.points = points                 # (owner, attr, name, before, after) to wrap
        self.spans: list[list] = []          # [name, start, end, parent, op]
        self.counts: Counter = Counter()
        self.op = None                       # operation id stamped on new spans
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Trace ``owner.attr``.  ``before(args)`` returns a token that is
        passed on as ``after(counts, args, result, token)``."""
        raw = vars(owner)[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            token = before(args) if before else None
            record = [name, clock(), 0.0, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after:
                after(counts, args, result, token)
            return result

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._patched.append((owner, attr, raw))

    def install(self) -> None:
        """Wrap every point; ``close`` undoes it."""
        for owner, attr, name, before, after in self.points:
            self.wrap(owner, attr, name, before, after)

    def close(self) -> None:
        """Put every wrapped function back."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def self_times(self, select=lambda span: True) -> dict[str, float]:
        """Seconds per span name, less the time covered by child spans,
        over the spans that `select` keeps."""
        own = defaultdict(float)
        for span in self.spans:
            if not select(span):
                continue
            name, start, end, parent, _op = span
            own[name] += end - start
            if parent is not None:
                own[self.spans[parent][0]] -= end - start
        return dict(own)

    def dump(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="ascii") as f:
            json.dump([dict(zip(keys, s)) for s in self.spans], f)

"""Spans and call-site patches for the traced benchmark run.

A span is (name, start, end, parent, round): the parent is the index of the
enclosing span, and every span of one benchmark round shares the round id.
Spans stay in memory and are written once, when the run ends.

Patches replace a callable where its caller looks it up (a module global
or a class attribute) and put the original back on ``restore``. They are
installed only for traced rounds, so untraced rounds run the program
exactly as a user would.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    round: int


class NullTracer:
    """Stand-in used by untraced rounds: spans cost one no-op call."""

    enabled = False

    def span(self, name: str):
        return contextlib.nullcontext()

    def record(self, name: str, seconds: float) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.round = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.round))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def record(self, name: str, seconds: float) -> None:
        """A child of the open span that ends now and lasts ``seconds``: the
        summed time of calls too many and too short to get a span each."""
        end = time.perf_counter()
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, end - seconds, end, parent, self.round))

    def current(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def wrap(self, fn, name: str):
        """``fn`` with a span around each call."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def self_times(self, round_id: int) -> dict[str, float]:
        """Seconds per span name in one round, minus time covered by child spans."""
        total: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            if s.round != round_id:
                continue
            total[s.name] += s.end - s.start
            if s.parent is not None:
                total[self.spans[s.parent].name] -= s.end - s.start
        return dict(total)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "round": s.round}) + "\n")


class Patches:
    """Attribute replacements, undone in reverse order by ``restore``."""

    def __init__(self):
        self._undo: list[tuple[object, str, object, bool]] = []
        self.missing: list[str] = []

    def replace(self, owner, attr: str, make_wrapper) -> bool:
        """Set ``owner.attr`` to ``make_wrapper(original)``; False if there is no such attribute."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return False
        own = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, make_wrapper(original))
        return True

    def restore(self) -> None:
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

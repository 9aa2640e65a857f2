"""In-memory spans for the traced benchmark run.

A span is recorded by the benchmark around each of its own calls into a
library module, so a span's layer is the module it called.  Spans are
kept in a list and written out once, when the run ends.  The untraced
run uses ``NullTracer``, whose methods do nothing.
"""

from __future__ import annotations

import time
from collections import defaultdict

clock = time.perf_counter


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "round", "attrs")

    def __init__(self, id, name, start, end, parent, op, round, attrs):
        self.id, self.name, self.start, self.end = id, name, start, end
        self.parent, self.op, self.round, self.attrs = parent, op, round, attrs

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self, origin: float) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent, "op": self.op,
                "round": self.round,
                "start_us": round((self.start - origin) * 1e6, 1),
                "end_us": round((self.end - origin) * 1e6, 1), **self.attrs}


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.next_id = 0
        self.bookkeeping = 0.0   # seconds spent recording spans
        self.probing = 0.0       # seconds spent in probe calls
        self.round = 0

    def new_id(self) -> int:
        self.next_id += 1
        return self.next_id

    def record(self, name, start, end, parent=None, op=None, id=None, **attrs) -> int:
        t0 = clock()
        if id is None:
            id = self.new_id()
        self.spans.append(Span(id, name, start, end, parent, op, self.round, attrs))
        self.bookkeeping += clock() - t0
        return id

    def self_times(self) -> dict[str, float]:
        """Seconds per layer: each span's duration minus the time its
        direct children cover (children never overlap)."""
        covered = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        out = defaultdict(float)
        for s in self.spans:
            out[s.layer] += s.duration - covered.get(s.id, 0.0)
        return dict(out)

    def select(self, name: str, round=None, **match) -> list[Span]:
        return [s for s in self.spans if s.name == name
                and (round is None or s.round == round)
                and all(s.attrs.get(k) == v for k, v in match.items())]


class NullTracer:
    enabled = False
    round = 0

    def new_id(self):
        return None

    def record(self, *args, **kwargs):
        return None

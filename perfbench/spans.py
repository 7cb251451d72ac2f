"""In-memory spans recorded by the benchmark around calls into each layer.

A span is ``(id, parent, name, start, end, args)``; spans opened inside
another are its children.  A span's *self time* is
its duration minus the part of its interval its children cover.  The
recorder writes a Chrome trace-event file (open in https://ui.perfetto.dev)
when the benchmark ends; nothing is written while timing.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from one thread; a disabled recorder times nothing
    and keeps nothing (the untraced twin used to measure the recorder's
    own overhead)."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, **args: Any) -> Iterator[Span | None]:
        if not self.enabled:
            yield None
            return
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), parent, name, 0.0, args=args)
        self.spans.append(span)
        self._open.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def add_child(self, parent: Span | None, name: str, duration: float, **args: Any) -> None:
        """A child whose duration another process reported: placed so it
        ends where *parent* ends (its true offset is unknown)."""
        if parent is None:
            return
        end = parent.end or time.perf_counter()
        self.spans.append(
            Span(len(self.spans), parent.id, name, end - duration, end, dict(args, reported=True))
        )

    # -- arithmetic ----------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        return self_times(self.spans)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def per_call(self, name: str) -> list[float]:
        """Seconds per call of every span called *name* (a span timing a
        batch carries ``calls`` in its args)."""
        return [s.duration / s.args.get("calls", 1) for s in self.named(name)]

    # -- output --------------------------------------------------------------
    def write(self, path: Path, meta: dict[str, Any]) -> None:
        selfs = self.self_times()
        origin = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (s.start - origin) * 1e6,
                "dur": s.duration * 1e6,
                "args": dict(s.args, id=s.id, parent=s.parent, self_us=selfs[s.id] * 1e6),
            }
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "metadata": meta}, indent=1))


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: duration minus the union of its
    children's intervals, clipped to its own."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out: dict[int, float] = {}
    for s in spans:
        covered = 0.0
        edge = s.start
        for child in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo = max(child.start, edge)
            hi = min(child.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[s.id] = s.duration - covered
    return out

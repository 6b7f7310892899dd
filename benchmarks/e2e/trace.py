"""The benchmark's own span recorder.

Spans are recorded from the benchmark's files, around its calls into each
layer's public functions; nothing inside ``src/`` knows about them.  A span is
``(id, parent id, name, start, end, workload id)``; spans stay in memory and
are written once, at the end of the run, as JSON lines and as a Chrome-trace
file (open in ``chrome://tracing`` or https://ui.perfetto.dev).

An untraced run uses :class:`NullRecorder`, whose ``span`` is a no-op, so the
workload code is written once and the end-to-end numbers carry no tracing
cost.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float = 0.0
    track: int = 0  #: Chrome-trace lane; concurrent spans get their own

    @property
    def seconds(self) -> float:
        return self.end - self.start


class NullRecorder:
    """The recorder of an untraced run: records nothing."""

    enabled = False

    def span(self, name: str):
        return contextlib.nullcontext()


class Recorder:
    """In-memory span recorder; parent links follow the ``with`` nesting."""

    enabled = True

    def __init__(self, workload_id: str) -> None:
        self.workload_id = workload_id
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.span_id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, parent_id: int, track: int = 0) -> None:
        """Record a finished span measured elsewhere (concurrent work has no ``with`` nesting)."""
        self.spans.append(Span(len(self.spans), parent_id, name, start, end, track))

    # -- queries ------------------------------------------------------------------------
    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def self_seconds(self, span: Span) -> float:
        """The span's duration minus the part its child spans cover."""
        return span.seconds - sum(child.seconds for child in self.children(span))

    def total_by_name(self, under: Span, prefix: str = "") -> dict[str, float]:
        """Summed seconds of the descendants of ``under``, keyed by span name."""
        inside = {under.span_id}
        totals: dict[str, float] = {}
        for span in self.spans[under.span_id + 1 :]:
            if span.parent_id in inside:
                inside.add(span.span_id)
                if span.name.startswith(prefix):
                    totals[span.name] = totals.get(span.name, 0.0) + span.seconds
        return totals

    # -- export -------------------------------------------------------------------------
    def write(self, stem: Path) -> tuple[Path, Path]:
        """Write ``<stem>.jsonl`` and ``<stem>.chrome.json``; returns both paths."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0].start if self.spans else 0.0
        jsonl = stem.with_name(stem.name + ".jsonl")
        with open(jsonl, "w", encoding="utf-8") as handle:
            for span in self.spans:
                row = {
                    "id": span.span_id,
                    "parent": span.parent_id,
                    "name": span.name,
                    "start_s": span.start - origin,
                    "end_s": span.end - origin,
                    "workload": self.workload_id,
                }
                handle.write(json.dumps(row) + "\n")
        chrome = stem.with_name(stem.name + ".chrome.json")
        events = [
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.seconds * 1e6,
                "pid": 1,
                "tid": span.track,
                "args": {"id": span.span_id, "parent": span.parent_id, "workload": self.workload_id},
            }
            for span in self.spans
        ]
        chrome.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
        return jsonl, chrome

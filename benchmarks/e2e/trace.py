"""In-memory span recorder for the traced run.

Spans are recorded from the harness's own files, around the public calls
into each layer; they stay in memory and are written out once, when the
benchmark ends.  A span's self time is its duration minus the part of its
interval that its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    op_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``span()`` nests under the innermost open span.

    ``call`` runs re-issued work on ``executor``'s single helper thread
    while the caller waits, so spans still open and close one at a time.
    """

    def __init__(self, executor=None) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []
        self._executor = executor

    def call(self, fn, *args):
        if self._executor is None:
            return fn(*args)
        return self._executor.submit(fn, *args).result()

    @contextmanager
    def span(self, name: str, op_id: int, layer: str = "") -> Iterator[Span]:
        span = Span(
            id=len(self.spans),
            name=name,
            layer=layer or name.split(".", 1)[0],
            start=time.perf_counter(),
            end=0.0,
            parent=self._stack[-1] if self._stack else None,
            op_id=op_id,
        )
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def add_stages(self, parent: Span, stages) -> None:
        """Child spans of ``parent`` from the program's own per-stage records
        (``repro.runtime.StageRecord``).  The durations are the program's;
        a record carries no start time, so the spans are laid back to back
        from the parent's start."""
        cursor = parent.start
        for stage in stages:
            self.spans.append(
                Span(
                    id=len(self.spans),
                    name=f"runtime.stage.{stage.name}",
                    layer="runtime",
                    start=cursor,
                    end=cursor + stage.elapsed_s,
                    parent=parent.id,
                    op_id=parent.op_id,
                )
            )
            cursor += stage.elapsed_s

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def children(self, span_id: int) -> List[Span]:
        return [s for s in self.spans if s.parent == span_id]

    def self_time(self, span: Span) -> float:
        """Duration minus the union of the child intervals inside it."""
        covered = 0.0
        cursor = span.start
        for child in sorted(self.children(span.id), key=lambda s: s.start):
            start = max(child.start, cursor)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        return span.duration - covered

    def self_time_by_layer(self) -> Dict[str, float]:
        """Seconds of self time per layer, over every span."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span.layer] = totals.get(span.layer, 0.0) + self.self_time(span)
        return totals

    def dump(self, path, **header) -> None:
        payload = dict(header)
        payload["counts"] = dict(self.counts)
        payload["self_time_ms_by_layer"] = {
            layer: seconds * 1e3
            for layer, seconds in sorted(self.self_time_by_layer().items())
        }
        payload["spans"] = [asdict(span) for span in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.write("\n")

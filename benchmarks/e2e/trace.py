"""In-memory span tracer for the benchmark's traced run.

Spans wrap only calls the benchmark itself makes into the program's
public functions (``generate``, ``TreeServer.fit``, ``train_tree``,
``best_split_for_column``, ``compile_forest``, ``predict_matrix``,
``server.submit`` -> ``result``, one HTTP request); tracing inside
``src/`` is a later issue.  Spans are kept in memory and written once,
as Chrome/Perfetto JSON, when the run ends.

Nesting: ``span()`` without ``parent`` nests under the innermost open
span.  Work that interleaves (requests in flight) is recorded with
``add()`` and an explicit parent, after the caller has timed it, so it
never touches the stack.  The benchmark opens and adds spans from its
main thread only, so the tracer takes no lock.

A disabled tracer records nothing: ``span()`` hands back one shared
no-op context manager and ``add()`` returns immediately.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    """One timed interval: ``start``/``end`` are ``perf_counter`` seconds."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    #: Display row: 0 for stacked spans, ``1 + lane`` for ``add()``-ed
    #: ones, so intervals that overlap in time land on different rows.
    row: int = 0


_NO_SPAN = nullcontext(None)


class Tracer:
    """Collects spans of one workload run (``run`` labels every span)."""

    def __init__(self, run: str, enabled: bool = True) -> None:
        self.run = run
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: int | None = None,
        lane: int = 0,
    ) -> int | None:
        """Record an interval the caller already timed; returns its id.

        ``lane`` separates intervals that overlap in time (connection
        index, in-flight slot); intervals of one lane must not overlap.
        """
        if not self.enabled:
            return None
        span = Span(
            len(self.spans), name, start, end, parent, self.run, 1 + lane
        )
        self.spans.append(span)
        return span.id

    def span(self, name: str, parent: int | None = None):
        """Context manager timing its body; yields the span id (or None)."""
        if not self.enabled:
            return _NO_SPAN
        return self._open(name, parent)

    @contextmanager
    def _open(self, name: str, parent: int | None):
        if parent is None and self._stack:
            parent = self._stack[-1]
        span = Span(len(self.spans), name, 0.0, 0.0, parent, self.run)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = time.perf_counter()
        try:
            yield span.id
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def durations(self, name: str) -> list[float]:
        """Durations of every span called ``name``, in recording order."""
        return [s.end - s.start for s in self.spans if s.name == name]

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name.

        A span's self time is its duration minus the part of its interval
        that its direct children cover (overlapping children, such as
        requests in flight together, are counted once).
        """
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        totals: dict[str, float] = {}
        for span in self.spans:
            covered, reach = 0.0, span.start
            for child in sorted(
                children.get(span.id, ()), key=lambda c: c.start
            ):
                lo = max(child.start, reach)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            totals[span.name] = (
                totals.get(span.name, 0.0) + (span.end - span.start) - covered
            )
        return totals

    def write_chrome(self, path: Path) -> None:
        """Write the spans as Chrome/Perfetto ``traceEvents`` JSON."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "pid": 0,
                "tid": s.row,
                "args": {"id": s.id, "parent": s.parent, "run": s.run},
            }
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))

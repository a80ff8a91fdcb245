"""In-memory span recorder that wraps public functions from outside the program.

Each wrapper is installed on the module through which its caller looks the
name up (``cli`` imports ``sweep`` by name, so ``montecarlo.sweep`` is wrapped
as ``cli.sweep``) and records one span per call: name, start, end and parent.
Spans stay in memory; the benchmark reduces them when a pass ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    children_s: float = 0.0
    count: float = 0.0


@dataclass
class Tracer:
    """Records spans of wrapped calls; ``install`` patches, ``restore`` undoes."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    def install(self, module, attr: str, span_name: str, count=None) -> None:
        """Wrap ``module.attr``; ``count(result)`` adds a work count to the span."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(span_name, time.perf_counter(), parent=parent)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = original(*args, **kwargs)
                if count is not None:
                    span.count = count(result)
                return result
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].children_s += span.end - span.start

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def drain(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total s, self s and summed count; then forget the spans."""
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0.0}
        )
        for span in self.spans:
            entry = totals[span.name]
            duration = span.end - span.start
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - span.children_s
            entry["count"] += span.count
        self.spans.clear()
        return dict(totals)

"""In-memory spans around the benchmark's calls into morseshell.

A span records one call from the benchmark's own files into a public
function of a morseshell module: its name, start, end, parent span, the
item it belongs to and an optional tag (the subdivision rung of a growth
measurement).  Spans stay in memory and are written out once, when the
traced run ends.  The untraced run uses :class:`NullTracer`, which calls
straight through, so both runs execute the same item code.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator


class NullTracer:
    """Calls through without recording anything."""

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        return fn(*args, **kwargs)


class Tracer:
    """Records one span per call; ``item`` and ``tag`` label new spans."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent index, item, tag]
        self.spans: list[list] = []
        self._open: list[int] = []
        self.item: int | None = None
        self.tag: str | None = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        record = [name, 0.0, 0.0, parent, self.item, self.tag]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self) -> list[tuple[str, int | None, str | None, float]]:
        """(name, item, tag, self seconds) per span: its duration minus the
        time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [(name, item, tag, end - start - covered[i])
                for i, (name, start, end, _, item, tag) in enumerate(self.spans)]

    def median_self_times(self, tag: str | None = None) -> dict[str, float]:
        """Median self time per span name, over spans with the given tag."""
        by_name: dict[str, list[float]] = defaultdict(list)
        for name, _, span_tag, seconds in self.self_times():
            if span_tag == tag:
                by_name[name].append(seconds)
        return {name: statistics.median(v) for name, v in by_name.items()}

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item, tag in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "item": item,
                                     "tag": tag}) + "\n")

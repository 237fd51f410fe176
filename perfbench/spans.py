"""In-memory spans recorded around the library's module-level names.

The tracer replaces a module attribute (``engine.mhsa``, ``vit.gelu``,
...) with a wrapper that opens a span, calls the original and closes
the span.  Library code looks those names up in its module globals at
call time, so every call made through them is recorded without a
change to the library.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

# span record layout: [name, start, end, parent index (-1 for a root), request id]
NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    """Records nested spans; one request id tags every span of one operation."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.request = 0
        self._open: list[int] = []
        self._patched: list[tuple] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), 0.0, parent, self.request])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = self.clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, module, attr: str) -> None:
        """Replace ``module.attr`` by a spanned call named ``<module>.<attr>``."""
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        clock, spans, stack = self.clock, self.spans, self._open

        def spanned(*args, **kwargs):
            # begin() and end() inlined: this runs on every wrapped call
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(record)
            try:
                return original(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()

        setattr(module, attr, spanned)
        self._patched.append((module, attr, original))

    def unwrap_all(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self, path) -> None:
        """Write one JSON object per span: name, start, end, parent, request."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (span[END] - span[START]) - covered_length(kids, span[START], span[END])
        for span, kids in zip(spans, children)
    ]

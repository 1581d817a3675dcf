"""In-memory spans around the calls into each layer.

A span is ``[name, start_ns, end_ns, parent, rt_id]``; ``parent`` is the index
of the enclosing span (-1 for a root) and spans of one replayed round trip
share ``rt_id``.  They stay in a list until the run ends, then go to a JSONL
file.  :class:`NullRecorder` has the same interface and records nothing: the
replay run with it measures what recording costs.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Sequence

NAME, START, END, PARENT, RT_ID = range(5)


class SpanRecorder:
    """Records nested spans of one thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.rt_id = 0

    def start(self, name: str) -> int:
        """Open a span under the innermost open one; returns its handle."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.rt_id])
        return index

    def stop(self, index: int) -> None:
        """Close the span ``start`` returned ``index`` for."""
        self.spans[index][END] = time.perf_counter_ns()
        self._open.pop()


class NullRecorder:
    """The recorder that is off."""

    rt_id = 0

    def start(self, name: str) -> int:
        return 0

    def stop(self, index: int) -> None:
        pass


def self_times_ns(spans: Sequence[Sequence]) -> list[int]:
    """Each span's duration minus the part its direct children cover.

    Children may overlap one another (the covered part is the union of their
    intervals, clipped to the parent).
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    result = []
    for index, span in enumerate(spans):
        covered = 0
        reach = span[START]
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span[END])
            if end > start:
                covered += end - start
                reach = end
        result.append(span[END] - span[START] - covered)
    return result


def durations_ms(spans: Sequence[Sequence]) -> dict[str, list[float]]:
    """Span durations in milliseconds, grouped by span name."""
    grouped: dict[str, list[float]] = defaultdict(list)
    for span in spans:
        grouped[span[NAME]].append((span[END] - span[START]) / 1e6)
    return grouped


def write_jsonl(path, spans: Sequence[Sequence]) -> None:
    """One JSON object per span, with its self time."""
    with open(path, "w", encoding="utf-8") as out:
        for span, self_ns in zip(spans, self_times_ns(spans)):
            out.write(
                json.dumps(
                    {
                        "name": span[NAME],
                        "start_ns": span[START],
                        "end_ns": span[END],
                        "parent": span[PARENT],
                        "rt_id": span[RT_ID],
                        "self_ns": self_ns,
                    }
                )
                + "\n"
            )

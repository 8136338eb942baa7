"""Span recorder, Chrome-trace export and the small statistics the runner needs.

Spans are recorded from the benchmark's own files, around the calls into
each ``repro`` layer; nothing under ``src/`` is instrumented.  They stay in
memory until the pass ends and are then written out once.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager
from typing import Any, Iterator, Sequence


class SpanRecorder:
    """In-memory span log: name, start, end, parent span, call id."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, call: int) -> Iterator[dict[str, Any]]:
        record = {
            "id": len(self.spans),
            "name": name,
            "call": call,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self._open.append(record["id"])
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def child(self, name: str, parent: dict[str, Any], seconds: float) -> None:
        """A child span known only by its duration (the callee timed it).

        ``measure_backend_latency`` reports its own ``backend.run()`` time;
        the drain runs first inside it, so the child is placed at the
        parent's start.
        """
        self.spans.append({
            "id": len(self.spans),
            "name": name,
            "call": parent["call"],
            "parent": parent["id"],
            "start": parent["start"],
            "end": parent["start"] + seconds,
        })

    def self_seconds(self) -> dict[str, float]:
        """Per span name, duration minus the part child spans cover."""
        covered = [0.0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None:
                covered[record["parent"]] += record["end"] - record["start"]
        totals: dict[str, float] = {}
        for record, inner in zip(self.spans, covered):
            own = record["end"] - record["start"] - inner
            totals[record["name"]] = totals.get(record["name"], 0.0) + own
        return totals

    def durations(self, name: str) -> list[float]:
        return [r["end"] - r["start"] for r in self.spans if r["name"] == name]

    def chrome_trace(self, workload: str) -> dict[str, Any]:
        """The spans as Chrome trace-event JSON (``chrome://tracing``)."""
        origin = min((r["start"] for r in self.spans), default=0.0)
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {
                    "name": r["name"],
                    "cat": r["name"].split(".")[0],
                    "ph": "X",
                    "ts": (r["start"] - origin) * 1e6,
                    "dur": (r["end"] - r["start"]) * 1e6,
                    "pid": workload,
                    "tid": 0,
                    "args": {"call": r["call"], "parent": r["parent"]},
                }
                for r in self.spans
            ],
        }


def loglog_slope(sizes: Sequence[float], seconds: Sequence[float]) -> float:
    """Least-squares slope of log(seconds) over log(size)."""
    xs = [math.log(size) for size in sizes]
    ys = [math.log(value) for value in seconds]
    mean_x, mean_y = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
        (x - mean_x) ** 2 for x in xs
    )


def calibrate_ms() -> float:
    """Time a fixed pure-Python loop: the host's speed, not the program's.

    Taken before and after each pass; two readings more than 10% apart
    mark the pass ``noisy`` so a slow host is not read as a slow program.
    """
    best = float("inf")
    for _ in range(3):  # the fastest of three: a reading of the host at its best
        started = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value % 7
        best = min(best, time.perf_counter() - started)
    return best * 1000.0

"""Named counters and histograms, folded from a run's spans and wire trace.

:class:`MetricsRegistry` receives ``count``/``observe`` calls and renders a
deterministic ``snapshot()`` — a sorted list of plain-data records, one per
metric.  It is exact (every histogram sample is retained):
:func:`derive_metrics` is handed a finished trial's span list and trace, so
sample counts are what that trial already holds in memory, and
byte-identical snapshots across engines matter.

Metric vocabulary used by :func:`derive_metrics`:

==========================  ============================================
``messages.<kind>.<tag>``   counter: wire observations by trace kind
                            (send/deliver/hold/drop) and protocol tag
``ops.<kind>``              counter: completed operations by kind
``ops.incomplete``          counter: operations pending/aborted at quiescence
``rounds.<kind>``           histogram: rounds per completed operation
``quorum.wait``             histogram: virtual ticks from round start to
                            quorum (terminated rounds only)
``events.executed``         counter: simulator events the run executed
``journal.sync.count``      counter: durable-journal syncs
``journal.sync.bytes``      counter: frame bytes made durable
``staleness.lag``           histogram: per-read staleness samples
                            (non-atomic consistency models only)
==========================  ============================================
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.sim.tracing import MessageTrace

#: Quantiles reported in every histogram snapshot.
_QUANTILES = ((50, "p50"), (90, "p90"), (99, "p99"))


def _quantile(ordered: Sequence[float], percentile: int) -> float:
    """Nearest-rank quantile of an ascending sample list."""
    rank = max(0, -(-percentile * len(ordered) // 100) - 1)
    return ordered[min(rank, len(ordered) - 1)]


class MetricsRegistry:
    """Named counters plus histogram observations, every sample retained."""

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._series: dict[str, list[float]] = {}

    def count(self, name: str, value: int = 1) -> None:
        """Add ``value`` to the counter ``name``."""
        self._counters[name] = self._counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        """Record one sample into the histogram ``name``."""
        self._series.setdefault(name, []).append(value)

    def snapshot(self) -> list[dict[str, Any]]:
        """Plain-data records, sorted by metric name (deterministic)."""
        records: list[dict[str, Any]] = [
            {"metric": name, "type": "counter", "value": value}
            for name, value in self._counters.items()
        ]
        for name, samples in self._series.items():
            ordered = sorted(samples)
            total = sum(samples)
            record: dict[str, Any] = {
                "metric": name,
                "type": "histogram",
                "count": len(samples),
                "sum": total,
                "min": ordered[0],
                "max": ordered[-1],
                "mean": round(total / len(samples), 6),
            }
            for percentile, label in _QUANTILES:
                record[label] = _quantile(ordered, percentile)
            records.append(record)
        records.sort(key=lambda record: record["metric"])
        return records


def derive_metrics(
    spans: Iterable[dict[str, Any]],
    trace: MessageTrace,
    *,
    events: int = 0,
    staleness: Iterable[int] = (),
) -> list[dict[str, Any]]:
    """Fold a run's spans and wire trace into a metrics snapshot.

    Pure data in, pure data out: feed the records :func:`derive_spans`
    built (plus the trace for per-tag message counters, the executed
    event count, and optional staleness samples) into a
    :class:`MetricsRegistry` and return its snapshot.
    """
    sink = MetricsRegistry()
    for _time, kind, message in trace.entries:
        sink.count(f"messages.{kind.value}.{message.tag}")
    for span in spans:
        what = span["span"]
        if what == "op":
            if span["status"] == "complete":
                sink.count(f"ops.{span['op']}")
                sink.observe(f"rounds.{span['op']}", span["rounds"])
            else:
                sink.count("ops.incomplete")
        elif what == "round":
            if span["wait"] is not None:
                sink.observe("quorum.wait", span["wait"])
        elif what == "sync":
            sink.count("journal.sync.count")
            sink.count("journal.sync.bytes", span["bytes"])
    sink.count("events.executed", events)
    for sample in staleness:
        sink.observe("staleness.lag", sample)
    return sink.snapshot()

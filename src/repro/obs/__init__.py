"""Observability: spans, metrics, and timeline export derived from runs.

Everything here is post-hoc — derived from bookkeeping the engines
already keep byte-identical across the event and batched simulators —
so observability adds no hot-path cost when off and no determinism
hazard when on.  See :mod:`repro.obs.spans` for the span vocabulary,
:mod:`repro.obs.metrics` for metric names, and
:mod:`repro.obs.export` for the output formats.
"""

from repro.obs.export import (
    chrome_trace_events,
    dump_metrics_jsonl,
    dump_spans_jsonl,
    summarize_spans,
    write_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry, derive_metrics
from repro.obs.spans import REPAIR_PHASES, derive_spans

__all__ = [
    "REPAIR_PHASES",
    "MetricsRegistry",
    "chrome_trace_events",
    "derive_metrics",
    "derive_spans",
    "dump_metrics_jsonl",
    "dump_spans_jsonl",
    "summarize_spans",
    "write_chrome_trace",
]

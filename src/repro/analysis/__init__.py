"""Latency accounting and table rendering for the benchmark harness."""

from repro.analysis.metrics import LatencyReport, measure_backend_latency
from repro.analysis.tables import Table, format_table

__all__ = ["LatencyReport", "measure_backend_latency", "Table", "format_table"]

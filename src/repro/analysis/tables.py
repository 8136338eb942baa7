"""Plain-text table rendering for benchmark output.

Benchmarks print the same rows the paper reports; this keeps the formatting
in one place so every experiment's output looks uniform in
``bench_output.txt``.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence


def format_table(title: str, columns: Sequence[str], rows: Iterable[Mapping[str, str]]) -> str:
    """Fixed-width table with a title rule, GitHub-markdown-ish separators."""
    materialized = [dict(row) for row in rows]
    widths = {col: len(col) for col in columns}
    for row in materialized:
        for col in columns:
            widths[col] = max(widths[col], len(str(row.get(col, ""))))
    header = " | ".join(col.ljust(widths[col]) for col in columns)
    rule = "-+-".join("-" * widths[col] for col in columns)
    lines = [f"== {title} ==", header, rule]
    for row in materialized:
        lines.append(" | ".join(str(row.get(col, "")).ljust(widths[col]) for col in columns))
    return "\n".join(lines)

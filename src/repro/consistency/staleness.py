"""Measured staleness: how many newer completed writes each read skipped.

Where :mod:`repro.consistency.kat` asks whether a bound *could* explain a
history, this module measures what the run actually served: for each
complete read, the number of writes that had already completed when the
read was invoked minus the index of the write whose value it returned
(clamped at 0 — a read returning a concurrent, fresher write is not stale).
A fault-free atomic run measures all zeros; the ``k-atomic`` backend's
bounded-lag view measures at most ``bound − 1`` on every read.

:func:`staleness_distribution` aggregates the samples into the plain-data
shape trial results and benchmarks carry: read count, max, mean and p99,
with a ``per_key`` breakdown when a sharded run supplies several
histories.  Reads whose value matches no write (an inconsistent history)
are counted ``unassigned`` and excluded from the statistics rather than
guessed at.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Mapping

from repro.consistency.bounded import _index_of, _write_index_map
from repro.spec.atomicity import _linear_extension_key
from repro.spec.history import History


def read_staleness(history: History) -> list[int | None]:
    """Per-read staleness samples, in linear-extension (response) order.

    ``None`` marks a read whose value matches no write — unattributable,
    excluded from distributions.
    """
    values = history.written_values()
    write_responses = [w.response_step for w in history.writes() if w.complete]
    index_of = _write_index_map(values)

    samples: list[int | None] = []
    for read in sorted(history.reads(complete_only=True), key=_linear_extension_key):
        j = _index_of(read.value, values, index_of)
        if j is None:
            samples.append(None)
            continue
        completed = bisect_left(write_responses, read.invocation_step)
        lag = completed - j
        samples.append(lag if lag > 0 else 0)
    return samples


def _stats(samples: list[int | None]) -> dict[str, Any]:
    known = sorted(s for s in samples if s is not None)
    payload: dict[str, Any] = {
        "reads": len(samples),
        "max": known[-1] if known else 0,
        "mean": round(sum(known) / len(known), 4) if known else 0.0,
        # Same nearest-rank p99 convention as the benchmark latency stats.
        "p99": known[max(0, -(-99 * len(known) // 100) - 1)] if known else 0,
    }
    unassigned = len(samples) - len(known)
    if unassigned:
        payload["unassigned"] = unassigned
    return payload


def staleness_distribution(histories: Mapping[str, History] | History) -> dict[str, Any]:
    """Aggregate staleness statistics over one history or a keyed family.

    Returns ``{"reads", "max", "mean", "p99"}`` (plus ``"unassigned"`` when
    any read's value was unattributable), and adds a ``"per_key"`` map of
    the same shape when more than one keyed history is supplied — plain
    data, byte-stable under ``json.dumps(sort_keys=True)``.
    """
    if isinstance(histories, History):
        histories = {"default": histories}
    per_key = {key: read_staleness(histories[key]) for key in sorted(histories)}
    combined: list[int | None] = [s for key in sorted(per_key) for s in per_key[key]]
    payload = _stats(combined)
    if len(per_key) > 1:
        payload["per_key"] = {key: _stats(samples) for key, samples in per_key.items()}
    return payload

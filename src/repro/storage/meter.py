"""Retained-space meter for durable runs.

Once object state is durable, *how much* must be retained becomes a
measured quantity (cf. the space-bounds literature in PAPERS.md).  The
meter walks every object's journal at the end of a trial and reports, per
object, the frame bytes, record count, and distinct timestamps retained —
then garbage-collects superseded records (older values for a key that has
a newer durable value) and reports the same figures post-GC.  The report
is embedded in ``TrialResult.to_dict()`` / surfaced via
``RunResult.to_dict()``, and is byte-identical across engines and across
serial/parallel execution because journals are a pure function of the
delivered message sequence.
"""

from __future__ import annotations

from typing import Any

from repro.storage.codec import count_timestamps, decode_state
from repro.storage.durable import StorageRuntime
from repro.storage.stable import StableStorage
from repro.types import Timestamp


def _distinct_timestamps(
    store: StableStorage, decoded: dict[bytes, set[Timestamp]]
) -> int:
    """Distinct timestamps in one journal; ``decoded`` remembers, for one
    ``measure()`` call, the timestamps inside each value already decoded."""
    found: set[Timestamp] = set()
    for _key, value in store.records():
        stamps = decoded.get(value)
        if stamps is None:
            stamps = decoded[value] = count_timestamps(decode_state(value))
        found |= stamps
    return len(found)


class SpaceMeter:
    """Measure (and then compact) the journals of one durable system."""

    def __init__(self, runtime: StorageRuntime) -> None:
        self.runtime = runtime

    def measure(self) -> dict[str, Any]:
        """Per-object retention before and after GC, plus totals.

        GC keeps only the newest record per key, so the delta quantifies
        how much of the journal was superseded history.  Mutates the
        stores (compaction); call once, at the end of a trial.

        Each distinct journal value is decoded once per call: the objects of
        one system retain the same values, and a compacted journal is a
        subset of the one it was compacted from.
        """
        decoded: dict[bytes, set[Timestamp]] = {}
        objects: dict[str, Any] = {}
        totals = {"bytes": 0, "records": 0, "timestamps": 0}
        gc_totals = {"bytes": 0, "records": 0, "timestamps": 0}
        for name, store in self.runtime.stores.items():
            before = store.stats()
            before_ts = _distinct_timestamps(store, decoded)
            store.gc()
            after = store.stats()
            after_ts = _distinct_timestamps(store, decoded)
            objects[name] = {
                "bytes": before.retained_bytes,
                "records": before.records,
                "timestamps": before_ts,
                "gc_bytes": after.retained_bytes,
                "gc_records": after.records,
                "gc_timestamps": after_ts,
            }
            totals["bytes"] += before.retained_bytes
            totals["records"] += before.records
            totals["timestamps"] += before_ts
            gc_totals["bytes"] += after.retained_bytes
            gc_totals["records"] += after.records
            gc_totals["timestamps"] += after_ts
        return {
            "durability": self.runtime.durability,
            "objects": objects,
            "retained_bytes": totals["bytes"],
            "retained_records": totals["records"],
            "retained_timestamps": totals["timestamps"],
            "gc_retained_bytes": gc_totals["bytes"],
            "gc_retained_records": gc_totals["records"],
            "gc_retained_timestamps": gc_totals["timestamps"],
            "gc_freed_bytes": totals["bytes"] - gc_totals["bytes"],
        }

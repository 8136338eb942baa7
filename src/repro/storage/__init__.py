"""``repro.storage`` — durable object state behind the handler surface.

The paper's base objects are crash-*stop*; this subsystem adds the
orthogonal **durability axis** that makes them crash-*recover*:

* :mod:`repro.storage.stable` — the :class:`StableStorage` journal
  contract (``put``/``get``/``keys``/``sync`` with write-ahead semantics,
  plus ``crash``/``tear_last``/``recover`` for the fault family) and its
  two built-ins, :class:`MemJournal` and :class:`DirStorage`.
* :mod:`repro.storage.codec` — deterministic bytes for protocol state
  values (timestamps, tagged values, voucher maps).
* :mod:`repro.storage.durable` — :class:`DurableObjectHandler`, the
  write-ahead wrapper every quorum protocol gets for free, and
  :class:`StorageRuntime`, the per-system store factory selected by the
  ``durability`` axis (``"none" | "mem" | "dir"``).
* :mod:`repro.storage.meter` — :class:`SpaceMeter`, per-object retained
  bytes/records/timestamps with GC of superseded values.

**The medium contract** (``durability="dir"``; spelled out on
:class:`~repro.storage.stable.DirStorage`): nothing is on disk before a
store's first ``put`` — not its log, not the runtime's directory; one file
handle per store for its whole life, through which ``gc`` / ``recover`` /
``crash`` rewrite or cut the log in place; ``sync`` *flushes* to the
operating system and ``os.fsync`` is still **not** called (durability is the
journal's watermark, modelled).  The seam pays for bytes that change: no read
walks the journal, a frozen value is encoded once per system, and a journal
value is decoded once per ``SpaceMeter.measure()``.

The crash-recover *fault behaviours* that exploit this seam live in
:mod:`repro.faults.recovery`; the axis is threaded through
:class:`~repro.api.cluster.Cluster`, the backend registry, both
simulation engines, and the schedule explorer.
"""

from repro.storage.codec import count_timestamps, decode_state, encode_state
from repro.storage.durable import (
    DURABILITIES,
    DurableObjectHandler,
    StorageRuntime,
    resolve_durability,
)
from repro.storage.meter import SpaceMeter
from repro.storage.stable import (
    DirStorage,
    MemJournal,
    RecoveredImage,
    StableStorage,
    StorageStats,
)

__all__ = [
    "DURABILITIES",
    "DirStorage",
    "DurableObjectHandler",
    "MemJournal",
    "RecoveredImage",
    "SpaceMeter",
    "StableStorage",
    "StorageRuntime",
    "StorageStats",
    "count_timestamps",
    "decode_state",
    "encode_state",
    "resolve_durability",
]

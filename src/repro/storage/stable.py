"""Stable storage: append-only journals with an explicit sync watermark.

The durability seam models what real stores guarantee, no more: a record
handed to :meth:`StableStorage.put` is *acknowledged*; only after
:meth:`StableStorage.sync` is it *durable*.  Crash-recover faults exploit
the gap — :meth:`StableStorage.crash` drops the acknowledged-but-unsynced
suffix, :meth:`StableStorage.tear_last` damages the final record mid-entry,
and :meth:`StableStorage.recover` replays the surviving log, detecting and
discarding a torn tail via per-record checksums.

Two implementations share the journal logic:

* :class:`MemJournal` — a deterministic in-memory journal; the default for
  tests and the schedule explorer (no filesystem in the state space).
* :class:`DirStorage` — one append-only log file per object under a temp
  dir; the on-disk frame is ``>II`` (payload length, CRC-32) followed by
  ``key \\0 value`` bytes, and recovery genuinely re-parses the file.  Its
  docstring states the medium contract: nothing on disk before the first
  ``put``, one handle per store, rewrite in place, ``flush`` but no ``fsync``.

Both account retained space with the same frame arithmetic — the base class
keeps the running frame-byte total per record — so the space meter reports
comparable byte counts whichever backend a run uses, and no read
(``get`` / ``keys`` / ``stats``) ever walks the journal.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import BinaryIO

from repro.errors import StorageError

_HEADER = struct.Struct(">II")
_HEADER_SIZE = _HEADER.size


def _frame(key: str, value: bytes) -> bytes:
    blob = key.encode("utf-8") + b"\0" + value
    return _HEADER.pack(len(blob), zlib.crc32(blob)) + blob


def _frame_size(key: str, value: bytes) -> int:
    return _HEADER_SIZE + len(key.encode("utf-8")) + 1 + len(value)


def _parse_log(data: bytes) -> tuple[list[tuple[str, bytes]], int, bool]:
    """Replay a raw log: (valid records, valid byte length, torn tail seen).

    Parsing stops at the first damaged record — a short header, a payload
    cut before its declared length, or a checksum mismatch — which is
    exactly what a torn write leaves behind.
    """
    records: list[tuple[str, bytes]] = []
    pos = 0
    size = len(data)
    while pos < size:
        if pos + _HEADER_SIZE > size:
            return records, pos, True
        length, crc = _HEADER.unpack_from(data, pos)
        end = pos + _HEADER_SIZE + length
        if end > size:
            return records, pos, True
        blob = data[pos + _HEADER_SIZE : end]
        if zlib.crc32(blob) != crc:
            return records, pos, True
        key, _, value = blob.partition(b"\0")
        records.append((key.decode("utf-8"), value))
        pos = end
    return records, pos, False


@dataclass(frozen=True, slots=True)
class StorageStats:
    """Space retained by one object's journal, in frame bytes."""

    retained_bytes: int
    records: int
    synced_records: int


@dataclass(frozen=True, slots=True)
class RecoveredImage:
    """What :meth:`StableStorage.recover` salvaged from the journal.

    ``state`` maps each key to its last durable value; ``discarded`` counts
    records lost to the unsynced suffix and/or a torn tail.
    """

    state: dict[str, bytes]
    replayed: int
    discarded: int
    torn_detected: bool


class StableStorage:
    """Append-only journal with write-ahead (`put` then `sync`) semantics.

    Subclasses supply the physical medium; this base owns the record list,
    the sync watermark, the ``lag`` knob (``sync`` leaves the last ``lag``
    records unsynced — the fsync-lag fault model), and the ``frozen`` flag
    a crashed machine sets so nothing persists while it is dark.
    """

    def __init__(self) -> None:
        self._records: list[tuple[str, bytes]] = []
        # Two views ``put`` keeps in step with the records, so that no read
        # walks the journal; only the operations that drop or reorder
        # records (``crash`` / ``recover`` / ``gc``) rebuild them.
        self._ends: list[int] = []  # frame bytes up to and including record i
        self._latest: dict[str, bytes] = {}  # newest value per key, first-append order
        self.synced: int = 0
        self.lag: int = 0
        self.frozen: bool = False
        self._torn_index: int | None = None
        # Observability: armed (clock set) only for observed runs; each
        # watermark advance then logs (time, records, frame bytes) made
        # durable, from which sync spans are derived post-run.
        self.clock = None
        self.sync_log: list[tuple[int, int, int]] = []

    # -- write path ----------------------------------------------------

    def put(self, key: str, value: bytes) -> None:
        """Append one record (acknowledged, not yet durable)."""
        if self.frozen:
            raise StorageError("cannot append to a frozen (crashed) store")
        self._records.append((key, value))
        self._latest[key] = value
        ends = self._ends
        ends.append((ends[-1] if ends else 0) + self._append_medium(key, value))

    def sync(self) -> None:
        """Advance the durability watermark, honouring the ``lag`` knob."""
        before = self.synced
        self.synced = max(before, len(self._records) - self.lag)
        self._sync_medium()
        if self.clock is not None and self.synced > before:
            self.sync_log.append((
                self.clock(),
                self.synced - before,
                self._bytes(self.synced) - self._bytes(before),
            ))

    # -- read path -----------------------------------------------------

    def get(self, key: str) -> bytes | None:
        """Latest acknowledged value for ``key`` (the live machine's view)."""
        return self._latest.get(key)

    # -- crash / recovery ----------------------------------------------

    def crash(self) -> int:
        """Lose the acknowledged-but-unsynced suffix; return records lost."""
        lost = len(self._records) - self.synced
        if lost > 0:
            del self._records[self.synced :]
            del self._ends[self.synced :]
            self._latest = dict(self._records)
            if self._torn_index is not None and self._torn_index >= len(self._records):
                self._torn_index = None
        self._truncate_medium(self.synced)
        return lost

    def tear_last(self) -> bool:
        """Damage the last physical record mid-entry (torn write)."""
        if not self._records:
            return False
        self._torn_index = len(self._records) - 1
        self._tear_medium()
        return True

    def recover(self) -> RecoveredImage:
        """Replay the durable log and repair it in place.

        Only the synced prefix survives a crash; within it, a torn final
        record is detected (checksum/length validation on the physical
        medium) and discarded.  After recovery the journal holds exactly
        the replayed records, all durable.
        """
        total = len(self._records)
        limit = min(self.synced, total)
        torn = self._torn_index is not None and self._torn_index < limit
        if torn:
            limit = self._torn_index
        self._adopt(self._recover_medium(limit))
        return RecoveredImage(
            state=dict(self._latest),
            replayed=self.synced,
            discarded=total - self.synced,
            torn_detected=torn,
        )

    # -- metering / GC -------------------------------------------------

    def stats(self) -> StorageStats:
        """Frame bytes and record counts currently retained."""
        return StorageStats(
            retained_bytes=self._bytes(len(self._records)),
            records=len(self._records),
            synced_records=self.synced,
        )

    def records(self) -> tuple[tuple[str, bytes], ...]:
        """The retained journal, oldest first (for the space meter)."""
        return tuple(self._records)

    def gc(self) -> int:
        """Compact to the latest record per key; return frame bytes freed.

        Keys keep their first-append order so compaction is deterministic.
        The compacted journal is durable by construction (it only contains
        values that were already retained).
        """
        before = self._bytes(len(self._records))
        self._adopt(list(self._latest.items()))
        self._rewrite_medium(self._records)
        return before - self._bytes(len(self._records))

    def _adopt(self, records: list[tuple[str, bytes]]) -> None:
        """Install ``records`` as the whole journal, all of it durable."""
        self._records = records
        self._ends = list(accumulate(_frame_size(k, v) for k, v in records))
        self._latest = dict(records)
        self.synced = len(records)
        self._torn_index = None

    def _bytes(self, count: int) -> int:
        """Frame bytes of the first ``count`` records."""
        return self._ends[count - 1] if count else 0

    # -- medium hooks (in-memory store: no-ops) ------------------------

    def _append_medium(self, key: str, value: bytes) -> int:
        """Append one frame to the medium; return its size in bytes."""
        return _frame_size(key, value)

    def _sync_medium(self) -> None:
        pass

    def _truncate_medium(self, keep_records: int) -> None:
        pass

    def _tear_medium(self) -> None:
        pass

    def _rewrite_medium(self, records: list[tuple[str, bytes]]) -> None:
        pass

    def _recover_medium(self, limit: int) -> list[tuple[str, bytes]]:
        """Return the records that survive recovery (first ``limit`` ones)."""
        return self._records[:limit]

    def close(self) -> None:
        pass


class MemJournal(StableStorage):
    """Deterministic in-memory journal — the ``durability="mem"`` seam."""


class DirStorage(StableStorage):
    """One append-only log file per object — the ``durability="dir"`` seam.

    The medium contract:

    * **Nothing on disk before the first** ``put``.  A store built on a path
      that does not exist creates neither the file nor (one level of) its
      missing directory until a record is appended; one that is never
      written leaves no trace.
    * **One handle per store**, opened once — by the first ``put``
      (exclusively: the file must still not exist), or by the constructor
      when ``path`` already holds a log, which is replayed (reopen-after-
      restart: a torn tail is cut off, everything replayed is durable by
      definition).  Its position is the end of the log between calls;
      ``close`` releases it.
    * **Rewrite in place.**  ``gc`` and ``recover`` write the surviving
      frames over the file through that handle and cut it where they end;
      ``crash`` / ``tear_last`` cut through it too.  ``recover`` re-parses
      the physical file, so recovery exercises the real frame validation
      rather than the in-memory mirror.
    * ``sync`` **flushes**: the frames reach the operating system, which is
      what every later read of the file (and a reopen) sees.  ``os.fsync`` is
      still *not* called — the watermark models durability, the medium does
      not survive a host power cut.
    """

    def __init__(self, path: str | Path) -> None:
        super().__init__()
        self.path = Path(path)
        self._fh: BinaryIO | None = None
        if self.path.exists():
            self._fh = open(self.path, "r+b")
            records, valid_end, torn = _parse_log(self._fh.read())
            if torn:
                self._cut(valid_end)
            self._adopt(records)

    def _cut(self, size: int) -> None:
        """Make the file ``size`` bytes long and append from there."""
        self._fh.truncate(size)  # flushes what was written first
        self._fh.seek(size)

    def _append_medium(self, key: str, value: bytes) -> int:
        if self._fh is None:
            if not self.path.parent.exists():
                self.path.parent.mkdir(mode=0o700)
            self._fh = open(self.path, "x+b")
        frame = _frame(key, value)
        self._fh.write(frame)
        return len(frame)

    def _sync_medium(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def _truncate_medium(self, keep_records: int) -> None:
        if self._fh is not None:
            self._cut(self._bytes(keep_records))

    def _tear_medium(self) -> None:
        end = self._bytes(len(self._records))
        start = self._bytes(len(self._records) - 1)
        # Cut inside the record: keep at most half its frame, so either the
        # header or the payload is incomplete and replay must reject it.
        self._cut(start + (end - start) // 2)

    def _rewrite_medium(self, records: list[tuple[str, bytes]]) -> None:
        if self._fh is not None:
            # Overwrite, then cut at the new end — never through an empty
            # file: ext4 answers truncate-to-zero-then-rewrite by allocating
            # the blocks at close, which makes removing a trial's log ~10x
            # dearer than the rewrite itself.
            data = b"".join(_frame(key, value) for key, value in records)
            self._fh.seek(0)
            self._fh.write(data)
            self._cut(len(data))

    def _recover_medium(self, limit: int) -> list[tuple[str, bytes]]:
        if self._fh is None:
            return []
        self._fh.seek(0)  # flushes what was appended, then reads from the top
        records, _valid_end, _torn = _parse_log(self._fh.read())
        survivors = records[:limit]
        self._rewrite_medium(survivors)
        return survivors

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()

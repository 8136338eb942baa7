"""The physical medium under the journal: every crash point, and one model.

Two hardening tests the single-handle / rewrite-in-place / latest-value-index
``DirStorage`` has to earn (they pass unchanged on the implementation that
re-opened its file for every rewrite, which is the point):

* **Crash-point sweep** — one durable-churn trial's log, cut at *every* byte
  offset and, separately, damaged by one flipped byte at *every* offset;
  reopening must salvage exactly the longest valid frame prefix, repair the
  file to it, and be a fixed point.
* **Stateful model** — a ``hypothesis`` ``RuleBasedStateMachine`` drives a
  :class:`MemJournal` and a :class:`DirStorage` through one operation sequence
  and requires every observable (records, keys, get, stats, watermark, sync
  log, recovered images) to agree after every step, and the file to re-parse
  to the retained records whenever it was flushed.
"""

from __future__ import annotations

import builtins
import glob
import os
import tempfile
from contextlib import closing
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.api import Cluster
from repro.storage import DirStorage, MemJournal, SpaceMeter
from repro.storage.stable import _frame, _parse_log
from repro.types import scoped_operation_serials
from repro.workloads.generator import WorkloadGenerator


class _ChurnLog:
    """The longest journal one crash-recovering ABD trial leaves at quiescence:
    its records, their frames, the raw log and each frame's end offset."""

    def __init__(self) -> None:
        journals = []
        measure = SpaceMeter.measure

        def capturing(meter):
            journals.extend(store.records() for store in meter.runtime.stores.values())
            return measure(meter)

        cluster = (
            Cluster("abd", t=1, n_readers=3, durability="dir")
            .with_faults("crash-recover", count=1)
            .with_workload(operations=24, reads=0.2, spacing=30)
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SpaceMeter, "measure", capturing)
            cluster.run(trials=1, seed=11, keep_history=False)
        self.records = list(max(journals, key=len))
        self.frames = [_frame(key, value) for key, value in self.records]
        self.bytes = b"".join(self.frames)
        self.ends = list(accumulate(map(len, self.frames)))


@pytest.fixture(scope="module")
def log() -> _ChurnLog:
    return _ChurnLog()


class TestCrashPointSweep:
    @staticmethod
    def _reopen_twice(log: _ChurnLog, path, survivors: int) -> None:
        """``path`` must reopen to the first ``survivors`` records, repaired."""
        expected = tuple(log.records[:survivors])
        valid_end = log.ends[survivors - 1] if survivors else 0
        for _ in range(2):  # the second reopen is the fixed point
            store = DirStorage(path)
            try:
                assert store.records() == expected
                assert store.stats().synced_records == survivors
                assert tuple(store._latest) == tuple(dict.fromkeys(k for k, _ in expected))
                assert path.stat().st_size == valid_end
            finally:
                store.close()
            assert path.read_bytes() == log.bytes[:valid_end]

    def test_the_log_is_worth_sweeping(self, log):
        assert len(log.records) >= 15 and len(log.bytes) >= 600

    def test_truncation_at_every_byte_offset(self, log, tmp_path):
        path = tmp_path / "cut.log"
        for cut in range(len(log.bytes) + 1):
            path.write_bytes(log.bytes[:cut])
            self._reopen_twice(log, path, sum(1 for end in log.ends if end <= cut))

    def test_one_flipped_byte_at_every_offset(self, log, tmp_path):
        path = tmp_path / "flip.log"
        damaged_frame = 0
        for offset in range(len(log.bytes)):
            if offset >= log.ends[damaged_frame]:
                damaged_frame += 1
            flipped = bytearray(log.bytes)
            flipped[offset] ^= 0x5A
            path.write_bytes(bytes(flipped))
            # Everything before the damaged frame survives; nothing after it
            # is trusted (a journal is only as long as its valid prefix).
            self._reopen_twice(log, path, damaged_frame)

    def test_a_reopened_log_keeps_appending_where_the_repair_ended(self, log, tmp_path):
        path = tmp_path / "resume.log"
        path.write_bytes(log.bytes[: log.ends[3] + 5])  # cut mid-frame
        store = DirStorage(path)
        store.put("tv", b"after")
        store.sync()
        store.close()
        assert path.read_bytes() == log.bytes[: log.ends[3]] + _frame("tv", b"after")


KEYS = st.sampled_from(("tv", "aux", "kéy"))
VALUES = st.binary(max_size=12)


class TwoMedia(RuleBasedStateMachine):
    """One operation sequence, two media, no observable difference."""

    def __init__(self) -> None:
        super().__init__()
        self._tmp = tempfile.TemporaryDirectory(prefix="two-media-")
        self.path = Path(self._tmp.name) / "obj.log"
        self.mem = MemJournal()
        self.disk = DirStorage(self.path)
        self.ticks = 0
        self._arm()
        # The file is only comparable to records() right after an operation
        # that flushed it and while no torn record sits in it.
        self.flushed = True
        self.torn = False

    def _arm(self) -> None:
        for store in (self.mem, self.disk):
            store.clock = lambda: self.ticks

    def teardown(self) -> None:
        self.disk.close()
        self._tmp.cleanup()

    # -- the operations a live machine and the fault family perform -------

    @precondition(lambda self: not self.torn)
    @rule(key=KEYS, value=VALUES)
    def put(self, key, value):
        """Nothing appends behind a torn record: a tear is crash damage, and
        the fault family keeps the store frozen from the crash to ``recover``
        (an append there would leave garbage mid-file that only the physical
        medium can see)."""
        self.ticks += 1
        self.mem.put(key, value)
        self.disk.put(key, value)
        self.flushed = False

    @rule()
    def sync(self):
        self.ticks += 1
        self.mem.sync()
        self.disk.sync()
        self.flushed = True

    @rule(lag=st.integers(min_value=0, max_value=2))
    def set_lag(self, lag):
        self.mem.lag = self.disk.lag = lag

    @rule()
    def crash(self):
        assert self.mem.crash() == self.disk.crash()
        self.flushed = True

    @rule()
    def tear_last(self):
        assert self.mem.tear_last() == self.disk.tear_last()
        self.torn = self.torn or bool(self.mem.records())

    @rule()
    def recover(self):
        assert self.mem.recover() == self.disk.recover()
        self.flushed, self.torn = True, False

    @precondition(lambda self: not self.torn)
    @rule()
    def gc(self):
        assert self.mem.gc() == self.disk.gc()
        self.flushed = True

    @precondition(lambda self: not self.torn)
    @rule()
    def close_and_reopen(self):
        """A clean shutdown: everything acknowledged reaches the file, and a
        restart finds all of it durable.  The in-memory twin of that is a
        fresh journal holding the same records, all synced."""
        self.disk.close()
        self.disk = DirStorage(self.path)
        twin = MemJournal()
        for key, value in self.mem.records():
            twin.put(key, value)
        twin.sync()
        self.mem = twin
        self._arm()
        self.flushed = True

    # -- after every step --------------------------------------------------

    @invariant()
    def media_agree(self):
        mem, disk = self.mem, self.disk
        assert mem.records() == disk.records()
        assert tuple(mem._latest) == tuple(disk._latest)
        for key in ("tv", "aux", "kéy", "never-written"):
            assert mem.get(key) == disk.get(key)
        assert mem.stats() == disk.stats()
        assert mem.synced == disk.synced
        assert mem.sync_log == disk.sync_log

    @invariant()
    def index_answers_like_a_scan(self):
        records = self.disk.records()
        latest = dict(records)
        assert tuple(self.disk._latest) == tuple(latest)
        for key in latest:
            assert self.disk.get(key) == latest[key]

    @invariant()
    def flushed_file_reparses_to_the_retained_records(self):
        if self.flushed and not self.torn:
            data = self.path.read_bytes() if self.path.exists() else b""
            records, valid_end, torn = _parse_log(data)
            assert tuple(records) == self.disk.records()
            assert valid_end == len(data) == self.disk.stats().retained_bytes
            assert not torn


TwoMedia.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
TestTwoMedia = TwoMedia.TestCase


# --------------------------------------------------------------------- #
# What the seam costs: counted, never timed
# --------------------------------------------------------------------- #


class _CountingRecords(list):
    """A journal's record list that counts every element it hands out."""

    visits = 0

    def __iter__(self):
        for item in list.__iter__(self):
            self.visits += 1
            yield item

    def __reversed__(self):
        for item in list.__reversed__(self):
            self.visits += 1
            yield item

    def __getitem__(self, index):
        taken = list.__getitem__(self, index)
        self.visits += len(taken) if isinstance(index, slice) else 1
        return taken


def _journal_visits_per_message(operations: int) -> float:
    """Record visits per handled message over one fault-free durable drain —
    before the meter's ``records()`` / ``stats()`` / ``gc()``, which are
    allowed to walk the journal once each."""
    cluster = Cluster("atomic-fast-regular", t=1, n_readers=2, durability="mem")
    plans = WorkloadGenerator(
        seed=11, n_readers=2, n_writers=1, read_fraction=0.5, spacing=40
    ).plan(operations)
    with scoped_operation_serials(), closing(cluster.build_backend()) as backend:
        stores = list(backend.system.storage.stores.values())
        for store in stores:
            store._records = _CountingRecords(store._records)
        for plan in plans:
            backend.schedule(plan)
        backend.run()
        handled = sum(server.messages_seen for server in backend.simulator.objects.values())
        assert handled > 10 * operations and all(store.stats().records for store in stores)
        assert all(type(store._records) is _CountingRecords for store in stores)
        return sum(store._records.visits for store in stores) / handled


def test_storage_cost_per_message_does_not_grow_with_the_journal():
    """Persisting a message visits no journal record, at 80 operations or at
    320.  (The reverse scan ``get`` used to do visited 1.83 records per
    message here at every length — this protocol rewrites each of its keys
    often — and the whole journal for a key written long ago: next test.)"""
    short, medium, long = (_journal_visits_per_message(n) for n in (80, 160, 320))
    assert medium <= 1.05 * short and long <= 1.05 * medium
    assert long <= 1.0


def test_reading_a_key_written_long_ago_does_not_walk_the_journal():
    store = MemJournal()
    store.put("cold", b"once")
    store._records = _CountingRecords(store._records)
    for serial in range(500):
        store.put("hot", b"%d" % serial)
    assert store.get("cold") == b"once" and store.get("never") is None
    assert tuple(store._latest) == ("cold", "hot")
    assert store._records.visits == 0


class _FilesystemCalls:
    """Every call that creates, opens or removes something under a
    ``repro-storage-*`` directory, as ``(call, file name)`` pairs."""

    def __init__(self, monkeypatch) -> None:
        self.calls: list[tuple[str, str]] = []
        for module, name in (
            (builtins, "open"), (os, "open"), (os, "mkdir"), (os, "rmdir"),
            (os, "unlink"), (os, "remove"), (os, "truncate"), (os, "scandir"),
        ):
            monkeypatch.setattr(module, name, self._counting(name, getattr(module, name)))

    def _counting(self, name, real):
        def call(path, *args, **kwargs):
            if "repro-storage-" in str(path):
                self.calls.append((name, Path(str(path)).name))
            return real(path, *args, **kwargs)

        return call

    def named(self, name: str) -> list[str]:
        return [target for call, target in self.calls if call == name]


@pytest.fixture
def filesystem_calls(monkeypatch):
    tempfile.gettempdir()  # resolved (and cached) before anything is counted
    return _FilesystemCalls(monkeypatch)


class TestNothingOnDiskBeforeTheFirstPut:
    CLUSTER = (
        Cluster("abd", t=1, n_readers=2, durability="dir")
        .with_faults("crash-recover", count=1)
        .with_workload(operations=8, spacing=40)
        .check("atomicity")
    )

    def test_a_build_that_never_runs_touches_no_disk(self, filesystem_calls):
        backend = self.CLUSTER.build_backend()
        stores = backend.system.storage.stores
        assert len(stores) == 3 and not any(s.path.parent.exists() for s in stores.values())
        backend.close()
        backend.close()
        self.CLUSTER._prepare_run(4, 7, False)  # the validation build of every run()
        assert filesystem_calls.calls == []

    def test_a_run_creates_one_directory_per_trial_and_removes_what_it_created(
        self, filesystem_calls
    ):
        before = set(glob.glob(os.path.join(tempfile.gettempdir(), "repro-storage-*")))
        result = self.CLUSTER.run(trials=3, seed=7)
        assert result.ok
        created = filesystem_calls.named("mkdir")
        assert len(created) == len(set(created)) == 3
        assert sorted(filesystem_calls.named("rmdir")) == sorted(created)
        opened = filesystem_calls.named("open")
        assert len(opened) == 3 * 3  # one handle per object per trial, never reopened
        assert sorted(filesystem_calls.named("unlink")) == sorted(opened)
        assert {call for call, _ in filesystem_calls.calls} == {"mkdir", "open", "unlink", "rmdir"}
        assert set(glob.glob(os.path.join(tempfile.gettempdir(), "repro-storage-*"))) == before

    def test_a_store_never_written_leaves_no_file_behind(self, tmp_path, filesystem_calls):
        store = DirStorage(tmp_path / "repro-storage-unborn" / "s1.log")
        assert store.records() == () and store.get("tv") is None
        assert store.crash() == 0 and store.recover().replayed == 0 and store.gc() == 0
        assert not store.tear_last()
        store.sync()
        store.close()
        assert filesystem_calls.calls == [] and not store.path.parent.exists()
        store = DirStorage(store.path)
        store.put("tv", b"1")  # the first put makes the directory and the log
        store.close()
        assert filesystem_calls.calls == [("mkdir", "repro-storage-unborn"), ("open", "s1.log")]
        with closing(DirStorage(store.path)) as reopened:
            assert reopened.records() == (("tv", b"1"),)

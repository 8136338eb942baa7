#!/usr/bin/env python3
"""Assert what the durability seam is allowed to cost — counted, no clock.

    PYTHONPATH=src python .github/scripts/assert_storage_work.py

Runs the e2e benchmark's two ``durable_churn`` configurations once (four
trials each: ABD on real journal files with a crash-recovering object, and
ABD on the reconfig backend over in-memory journals under rolling
replacement) and checks four deterministic budgets:

* ``decode_state`` calls inside ``SpaceMeter.measure()`` ≤ distinct journal
  values (the meter decodes a value once, however many objects retain it and
  whether or not it survives GC);
* ``encode_state`` calls ≤ handled messages × state keys (the write-ahead
  diff never encodes a key twice for one message — and a frozen value it has
  already encoded, not even once);
* files opened per ``dir`` trial ≤ objects (one handle per store, never
  reopened), one directory made and removed per trial, nothing listed,
  nothing truncated by path;
* the validation build of ``Cluster._prepare_run`` creates, opens and removes
  nothing (``stat`` probes for an existing log are reported, not budgeted).

Filesystem calls are counted by an audit hook, so nothing that reaches the
operating system goes unseen, whichever Python API made the call.
"""

from __future__ import annotations

import os
import sys
import tempfile
from contextlib import contextmanager
from unittest import mock

from repro.api import Cluster
from repro.storage import DurableObjectHandler, SpaceMeter, durable, meter

SHAPE = {"operations": 24, "reads": 0.2, "spacing": 30}
TRIALS, SEED = 4, 11
MARK = "repro-storage-"
AUDITED = {
    "open": "open", "os.mkdir": "mkdir", "os.rmdir": "rmdir", "os.remove": "unlink",
    "os.truncate": "truncate", "os.scandir": "scandir", "os.listdir": "listdir",
    "os.rename": "rename", "shutil.rmtree": "rmtree", "tempfile.mkdtemp": "mkdtemp",
}


class Ledger:
    """Counts of everything budgeted, reset per configuration."""

    def __init__(self) -> None:
        self.fs: dict[str, int] = {}
        self.stats = self.encodes = self.decodes = 0
        self.messages = self.key_visits = self.distinct_values = 0
        self.measuring = False

    def audit(self, event: str, args: tuple) -> None:
        name = AUDITED.get(event)
        if name is not None and args and MARK in str(args[0]):
            self.fs[name] = self.fs.get(name, 0) + 1


LEDGER = Ledger()
sys.addaudithook(lambda event, args: LEDGER.audit(event, args))


@contextmanager
def counted():
    """Route the seam's codec calls, handled messages and ``stat`` probes
    through the ledger for the duration of one configuration."""
    global LEDGER
    LEDGER = ledger = Ledger()
    encode, decode, stat = durable.encode_state, meter.decode_state, os.stat
    handle, measure = DurableObjectHandler.handle, SpaceMeter.measure

    def counting_encode(value):
        ledger.encodes += 1
        return encode(value)

    def counting_decode(data):
        ledger.decodes += ledger.measuring
        return decode(data)

    def counting_stat(path, *args, **kwargs):
        ledger.stats += MARK in str(path)
        return stat(path, *args, **kwargs)

    def counting_handle(self, state, message):
        reply = handle(self, state, message)
        ledger.messages += 1
        ledger.key_visits += len(state)
        return reply

    def counting_measure(self):
        stores = self.runtime.stores.values()
        ledger.distinct_values += len({v for s in stores for _, v in s.records()})
        ledger.measuring = True
        try:
            return measure(self)
        finally:
            ledger.measuring = False

    with mock.patch.object(durable, "encode_state", counting_encode), \
            mock.patch.object(meter, "decode_state", counting_decode), \
            mock.patch.object(os, "stat", counting_stat), \
            mock.patch.object(DurableObjectHandler, "handle", counting_handle), \
            mock.patch.object(SpaceMeter, "measure", counting_measure):
        yield ledger


def configurations() -> dict[str, Cluster]:
    return {
        "crash-recover/dir": (
            Cluster("abd", t=1, n_readers=3, durability="dir", observe=True)
            .with_faults("crash-recover", count=1)
            .with_workload(**SHAPE)
            .check("atomicity")
        ),
        "rolling-replace/mem": (
            Cluster("abd", t=1, S=3, backend="reconfig", allow_overfault=True, durability="mem")
            .with_faults("rolling-replace", count=3, base=4, stagger=8)
            .with_repairs((1, 40), (2, 110), (3, 180))
            .with_workload(**SHAPE)
            .check("atomicity")
        ),
    }


def main() -> int:
    tempfile.gettempdir()  # resolved (and cached) before anything is counted
    for label, cluster in configurations().items():
        with counted() as probe:
            cluster._prepare_run(TRIALS, SEED, False)
        assert probe.fs == {}, f"{label}: the validation build touched the disk: {probe.fs}"
        assert probe.encodes == probe.decodes == probe.messages == 0

        with counted() as run:
            result = cluster.run(trials=TRIALS, seed=SEED, keep_history=False)
        assert result.ok, result.failures()
        assert 0 < run.decodes <= run.distinct_values, (
            f"{label}: measure() decoded {run.decodes} values, "
            f"only {run.distinct_values} are distinct"
        )
        assert 0 < run.encodes <= run.key_visits, (
            f"{label}: {run.encodes} encodes for {run.key_visits} message × key visits"
        )
        if result.durability == "dir":
            assert run.fs == {
                "mkdir": TRIALS, "rmdir": TRIALS,
                "open": run.fs["open"], "unlink": run.fs["open"],
            }, f"{label}: unexpected filesystem calls: {run.fs}"
            assert run.fs["open"] <= TRIALS * result.S, (
                f"{label}: {run.fs['open']} opens for {TRIALS} trials of {result.S} objects"
            )
        else:
            assert run.fs == {} and run.stats == 0, f"{label}: mem journals touched the disk"
        print(
            f"storage work OK [{label}]: {run.messages} messages, "
            f"{run.encodes} encodes (budget {run.key_visits}), "
            f"{run.decodes} decodes in measure() (budget {run.distinct_values}), "
            f"filesystem {run.fs or 'none'}, stat probes {run.stats}; "
            f"validation build: filesystem none, stat probes {probe.stats}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

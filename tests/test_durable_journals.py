"""Golden journals: the storage seam's bytes are pinned across its rewrites.

``tests/golden/durable_journals.json`` was generated at the commit *before*
the seam stopped re-encoding / re-decoding / re-opening what it already has
(one encoder, a latest-value index, one file handle per store, a lazy medium,
a per-call decode memo in the meter).  Per trial it holds the full
``TrialResult.storage`` report and, per object, the sha256 of the raw log
bytes twice: when the trial goes quiescent (the journal the meter is about to
read) and when the trial closes its stores (the compacted log).  ``dir``
stores are read back from their file; ``mem`` stores have no file, so their
"raw log" is the concatenated frames of ``records()`` — which the test also
requires of every ``dir`` file.

Cells: both ``durable_churn`` configurations of the e2e benchmark at seeds 11
and 29, plus one ``fsync-lag`` and one ``torn-write`` trial on real files.

Regenerate (only when an intended journal change lands)::

    PYTHONPATH=src python tests/test_durable_journals.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.api import Cluster
from repro.storage import SpaceMeter, StorageRuntime
from repro.storage.stable import _frame

GOLDEN = Path(__file__).parent / "golden" / "durable_journals.json"

SHAPE = dict(operations=24, reads=0.2, spacing=30)


def _cells() -> dict[str, tuple[Cluster, int, int]]:
    """label → (cluster, trials, seed)."""
    recovering = (
        Cluster("abd", t=1, n_readers=3, durability="dir", observe=True)
        .with_faults("crash-recover", count=1)
        .with_workload(**SHAPE)
        .check("atomicity")
    )
    churning = (
        Cluster("abd", t=1, S=3, backend="reconfig", allow_overfault=True, durability="mem")
        .with_faults("rolling-replace", count=3, base=4, stagger=8)
        .with_repairs((1, 40), (2, 110), (3, 180))
        .with_workload(**SHAPE)
        .check("atomicity")
    )

    def damaged(fault: str, **kwargs) -> Cluster:
        return (
            Cluster("abd", t=1, n_readers=2, durability="dir")
            .with_faults(fault, **kwargs)
            .with_workload(operations=12, spacing=40)
            .check("atomicity")
        )

    cells = {}
    for seed in (11, 29):
        cells[f"crash-recover[dir,seed={seed}]"] = (recovering, 4, seed)
        cells[f"rolling-replace[mem,seed={seed}]"] = (churning, 4, seed)
    cells["fsync-lag[dir,seed=17]"] = (damaged("fsync-lag", lag=1), 1, 17)
    cells["torn-write[dir,seed=13]"] = (damaged("torn-write"), 1, 13)
    return cells


def _raw_logs(runtime: StorageRuntime) -> dict[str, str]:
    """sha256 of each object's raw log bytes, as the medium holds them now."""
    digests = {}
    for name, store in runtime.stores.items():
        framed = b"".join(_frame(key, value) for key, value in store.records())
        path = getattr(store, "path", None)
        if path is not None:
            handle = getattr(store, "_fh", None)
            if handle is not None and not handle.closed:
                handle.flush()
            on_disk = path.read_bytes() if path.exists() else b""
            assert on_disk == framed, f"{name}: file bytes are not the retained records"
        digests[name] = hashlib.sha256(framed).hexdigest()
    return digests


def _run_cell(cluster: Cluster, trials: int, seed: int) -> list[dict]:
    """Run one cell serially, capturing every trial's logs at both points."""
    quiescent: list[dict[str, str]] = []
    closed: list[dict[str, str]] = []
    measure, close = SpaceMeter.measure, StorageRuntime.close

    def capturing_measure(self):
        quiescent.append(_raw_logs(self.runtime))
        return measure(self)

    def capturing_close(self):
        # The validation build of ``Cluster._prepare_run`` closes an unused
        # runtime that was never metered; only metered trials are recorded.
        if len(closed) < len(quiescent):
            closed.append(_raw_logs(self))
        return close(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SpaceMeter, "measure", capturing_measure)
        patch.setattr(StorageRuntime, "close", capturing_close)
        result = cluster.run(trials=trials, seed=seed, keep_history=False)
    assert result.ok, result.failures()
    assert len(quiescent) == len(closed) == trials
    return [
        {"journal_sha256": before, "log_sha256": after, "storage": trial.storage}
        for before, after, trial in zip(quiescent, closed, result.trials)
    ]


def _generate() -> dict[str, list[dict]]:
    return {
        label: _run_cell(cluster, trials, seed)
        for label, (cluster, trials, seed) in _cells().items()
    }


@pytest.mark.parametrize("label", sorted(_cells()))
def test_journal_bytes_and_meter_report_match_the_golden_file(label):
    golden = json.loads(GOLDEN.read_text())
    cluster, trials, seed = _cells()[label]
    produced = _run_cell(cluster, trials, seed)
    assert json.dumps(produced, sort_keys=True) == json.dumps(golden[label], sort_keys=True)


def test_the_golden_cells_exercise_what_they_claim():
    """Guard the fixture itself: every trial wrote, and GC freed, something."""
    golden = json.loads(GOLDEN.read_text())
    assert set(golden) == set(_cells())
    for label, trials in golden.items():
        for trial in trials:
            assert trial["storage"]["retained_records"] > 0, label
            assert trial["storage"]["gc_freed_bytes"] > 0, label
            assert trial["journal_sha256"] != trial["log_sha256"], label


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    payload = _generate()
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(payload)} cells)")

"""Pins for the register layer: every protocol's runs, byte for byte.

Each registered protocol (plus ``mw-abd`` on the multi-writer backend) runs
one seeded trial under the last scenario it declares, and one ``explore``
over :data:`PROBE_OPS` at ``max_holds=2``.  In that probe write ``b`` is
planned while write ``a`` is still in flight, so ``skip_busy_invocations``
drops it, and write ``c`` starts once ``a`` has finished; hold sets that
cut ``a`` off from two objects block the writer for the rest of the run.
Two of those schedules are also replayed through ``run_schedule`` for their
wire-trace fingerprints: with no holds, and with write ``a`` blocked.

The digest covers the trial's wire trace and ``to_dict()`` (minus
``elapsed_s``), the explore's ``to_dict()`` and both fingerprints — so it
moves when any timestamp moves, including the one a dropped write would
consume if it were minted before the operation starts.  Print the table
with ``PYTHONPATH=src python tests/test_register_template.py``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api import Cluster, available_protocols, get_spec
from repro.axes import SearchBounds
from repro.explore import HoldLink, run_schedule
from repro.sim.tracing import trace_fingerprint

#: Write ``b`` lands while write ``a`` is in flight; write ``c`` comes after.
PROBE_OPS = (
    ("write", "a", 0), ("write", "b", 1), ("read", 1, 2), ("read", 2, 3),
    ("write", "c", 12), ("read", 1, 13), ("read", 2, 24),
)

#: The probe's write ``a`` (operation 1) held from s1 and s2: blocked.
BLOCKED = (HoldLink(1, 1), HoldLink(1, 2))

CELLS = tuple((name, None) for name in available_protocols()) + (("mw-abd", "multi-writer"),)

PINS = {
    "abd": "06e59dc4292ee24114dfb179",
    "atomic-fast-regular": "56672f8186a259c62ac90c2d",
    "atomic-secret-token": "01c8ea0a9eefee69dbce147b",
    "bounded-regular": "fd46fa8d8a5bbc941c34e0d6",
    "byz-safe": "c7085d625313eac6d33c72dd",
    "fast-regular": "0e6ebe13b0d642f7f6364565",
    "lucky-atomic": "44a032d1181c0a76952cfd4d",
    "mw-abd": "0d361ffc2b3895cab1c66010",
    "mw-abd@multi-writer": "743274c2e28f72a3f5d68943",
    "mwmr-fast-regular": "f368a9ec6c3984f2696c36fa",
    "mwmr-secret-token": "419196220c15635c27f35b6c",
    "secret-token": "8ac5c1ab67e68926514e9746",
    "strawman-2r": "3c489766530c8a7102d7b6f0",
    "strawman-3r": "ee64ff8dc780e1fd9f68ebb1",
}


def _cell_id(name: str, backend: str | None) -> str:
    return name if backend is None else f"{name}@{backend}"


def _cluster(name: str, backend: str | None) -> Cluster:
    kwargs = {} if backend is None else {"backend": backend}
    return Cluster(name, t=1, n_readers=2, **kwargs)


def _without_elapsed(payload: dict) -> dict:
    for trial in payload.get("trials", ()):
        trial.pop("elapsed_s", None)
    payload.pop("elapsed_s", None)
    return payload


def pin_digest(name: str, backend: str | None) -> str:
    scenario = get_spec(name).scenarios[-1]
    trial = (
        _cluster(name, backend).with_scenario(scenario).with_workload(operations=12)
        .run(trials=1, seed=5, keep_trace=True)
    )
    probe_cluster = _cluster(name, backend).with_operations(PROBE_OPS)
    explored = probe_cluster.explore(max_holds=2)
    probe = probe_cluster._schedule_probe(SearchBounds())
    blob = json.dumps([
        trace_fingerprint(trial.trials[0].trace),
        _without_elapsed(trial.to_dict()),
        _without_elapsed(explored.to_dict()),
        run_schedule(probe).trace_hash,
        run_schedule(probe.with_decisions(BLOCKED)).trace_hash,
    ], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def test_the_table_covers_every_protocol():
    assert set(PINS) == {_cell_id(*cell) for cell in CELLS}


@pytest.mark.parametrize(("name", "backend"), CELLS, ids=[_cell_id(*c) for c in CELLS])
def test_runs_match_their_pin(name, backend):
    assert pin_digest(name, backend) == PINS[_cell_id(name, backend)]


if __name__ == "__main__":
    for cell in CELLS:
        print(f'    "{_cell_id(*cell)}": "{pin_digest(*cell)}",')

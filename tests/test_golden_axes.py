"""Golden bytes for every payload and render the run axes reach.

``tests/golden/axes_payloads.json`` was generated at the commit *before* the
run axes (then seven: engine, durability, consistency, observe, repairs,
spares, xfer_quorum) were collapsed into one declaration, through the public
facade only.  The test regenerates the same grid and compares the sorted-key
JSON, so a refactor of how the axes travel cannot change one byte of what a
run, an exploration, a witness or a frontier writes or prints.  ``elapsed_s``
is host time and is stripped.

The ``engine`` axis has since been retired and the file was *not*
regenerated: it still holds ``"engine"`` keys, ``, engine=…`` render tags and
one cell per engine.  The comparison is against those bytes minus exactly
that key and that tag (:func:`_without_engine`), and every per-engine cell —
``certify[event]`` and ``certify[batched]``, ``default`` and
``engine=batched`` — must equal the one payload produced today.

Regenerate (only when an intended payload change lands)::

    PYTHONPATH=src python tests/test_golden_axes.py --write
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

from repro.api import Cluster

GOLDEN = Path(__file__).parent / "golden" / "axes_payloads.json"

WRITE_READ = [("write", "v1", 0), ("read", 1, 100)]


def _strip(value):
    """Drop every ``elapsed_s`` key (wall-clock) from a nested payload."""
    if isinstance(value, dict):
        return {k: _strip(v) for k, v in value.items() if k != "elapsed_s"}
    if isinstance(value, list):
        return [_strip(v) for v in value]
    return value


def _without_engine(value):
    """The stored bytes minus the retired axis: every ``"engine"`` key and
    every ``, engine=…`` render tag, nothing else."""
    if isinstance(value, dict):
        return {k: _without_engine(v) for k, v in value.items() if k != "engine"}
    if isinstance(value, list):
        return [_without_engine(v) for v in value]
    if isinstance(value, str):
        return re.sub(r", engine=(event|batched)", "", value)
    return value


def _current_label(label: str) -> str:
    """The cell of today's grid a stored (possibly per-engine) cell maps to."""
    return "default" if label == "engine=batched" else re.sub(r"\[(event|batched)\]$", "", label)


def _run_cells() -> dict[str, Cluster]:
    shape = dict(operations=6, spacing=30)
    return {
        "default": Cluster("abd", t=1).with_workload(**shape).check("atomicity"),
        "durability=mem+crash-recover": (
            Cluster("abd", t=1, durability="mem")
            .with_faults("crash-recover", count=1)
            .with_workload(**shape)
            .check("atomicity")
        ),
        "consistency=k-atomic(2)": (
            Cluster("abd", t=1, consistency="k-atomic(2)")
            .with_workload(operations=8, spacing=25)
            .check("k-atomic", k=2)
        ),
        "reconfig+repairs": (
            Cluster("abd", t=1, S=3, backend="reconfig", allow_overfault=True)
            .with_faults("rolling-replace", count=3, base=4, stagger=8)
            .with_repairs((1, 40), (2, 110), spares=3, xfer_quorum=1)
            .with_workload(operations=9, spacing=30, reads=0.5)
            .check("atomicity")
        ),
        "observe": (
            Cluster("abd", t=1, observe=True).with_workload(**shape).check("atomicity")
        ),
        "mwmr-fast-regular": (
            Cluster("mwmr-fast-regular", t=1, n_writers=3)
            .with_workload(**shape)
            .check("linearizability")
        ),
        "sharded": (
            Cluster("abd", t=1, backend="sharded", keys=3)
            .with_workload(**shape)
            .check("atomicity")
        ),
    }


def _explore_cells() -> dict[str, tuple[Cluster, dict]]:
    return {
        "certify": (
            Cluster("abd", t=1).with_operations(WRITE_READ),
            dict(max_holds=1),
        ),
        "refute": (
            Cluster("atomic-fast-regular", t=1, S=4, allow_overfault=True)
            .with_faults("stale-echo", count=2)
            .with_operations(WRITE_READ),
            dict(max_holds=2),
        ),
    }


def _frontier_cells() -> dict[str, tuple[Cluster, dict]]:
    # The two `repro frontier` commands of CI's robustness-smoke step.
    return {
        "abd+crash": (
            Cluster("abd", t=1).with_faults("crash", count=1).with_operations(WRITE_READ),
            {},
        ),
        "under-provisioned timed stale-echo": (
            Cluster("atomic-fast-regular", t=1, S=4, allow_overfault=True)
            .with_faults("timed", count=2, inner="stale-echo", at=99)
            .with_operations(WRITE_READ),
            dict(max_holds=3, max_schedules=3000),
        ),
    }


def build_payloads() -> dict:
    payloads: dict[str, dict] = {"run": {}, "explore": {}, "frontier": {}}
    for label, cluster in _run_cells().items():
        result = cluster.run(trials=2, seed=5)
        payloads["run"][label] = {
            "to_dict": _strip(result.to_dict()),
            "render": result.render(),
        }
    for label, (cluster, bounds) in _explore_cells().items():
        result = cluster.explore(**bounds)
        payloads["explore"][label] = {
            "to_dict": result.to_dict(),
            "render": result.render(),
            "first_witness": (
                result.witnesses[0].to_dict() if result.witnesses else None
            ),
        }
    for label, (cluster, bounds) in _frontier_cells().items():
        result = cluster.frontier(**bounds)
        payloads["frontier"][label] = {
            "to_dict": result.to_dict(),
            "render": result.render(),
        }
    return payloads


def _dump(payloads: dict) -> str:
    return json.dumps(payloads, sort_keys=True, indent=1, ensure_ascii=False) + "\n"


def test_payloads_and_renders_match_the_pre_refactor_bytes():
    regenerated = json.loads(_dump(build_payloads()))
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    reached = {kind: set() for kind in regenerated}
    for kind, cells in golden.items():
        for label, stored in cells.items():
            current = _current_label(label)
            reached[kind].add(current)
            assert _dump(regenerated[kind][current]) == _dump(_without_engine(stored)), (
                f"{kind}/{label} drifted"
            )
    assert reached == {kind: set(cells) for kind, cells in regenerated.items()}


def test_the_refute_cells_carry_a_witness_and_the_certify_cells_none():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["explore"]
    for engine in ("event", "batched"):
        assert golden[f"certify[{engine}]"]["first_witness"] is None
        assert golden[f"certify[{engine}]"]["to_dict"]["certified"] is True
        assert golden[f"refute[{engine}]"]["first_witness"]["engine"] == engine


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(_dump(build_payloads()), encoding="utf-8")
    print(f"wrote {GOLDEN}")

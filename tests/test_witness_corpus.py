"""Witness regression corpus: committed refutations must keep reproducing.

``tests/witnesses/`` holds minimized :class:`ScheduleWitness` JSON files —
executable counterexamples the schedule explorer once discovered.  Each is
replayed here on the production engine and on the reference engine (the
``reference_engine`` fixture); a failure means either the
violation no longer reproduces (a silent protocol/simulator behaviour
change) or the wire-trace fingerprint drifted (the run is no longer
byte-identical to the recorded discovery).  CI replays the corpus through
``repro replay`` as well, so drift fails the build twice over.

Regenerating after an *intentional* semantic change::

    PYTHONPATH=src python -m repro explore --protocol atomic-fast-regular \
        --t 1 --S 4 --faults stale-echo --count 2 --allow-overfault \
        --ops 2 --reads 0.5 --max-holds 2 \
        --witness tests/witnesses/stale_read.json --expect-violation

(then review the diff — a fingerprint change must be explainable).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.explore import FaultTrigger, HoldLink, ScheduleWitness

WITNESS_DIR = Path(__file__).parent / "witnesses"
WITNESS_FILES = sorted(WITNESS_DIR.glob("*.json"))


def test_corpus_is_not_empty():
    assert WITNESS_FILES, "tests/witnesses/ lost its committed witnesses"


@pytest.mark.parametrize("path", WITNESS_FILES, ids=lambda p: p.stem)
def test_witness_round_trips(path):
    witness = ScheduleWitness.load(path)
    assert ScheduleWitness.from_json(witness.to_json()) == witness


@pytest.mark.parametrize("path", WITNESS_FILES, ids=lambda p: p.stem)
def test_witness_reproduces_on_both_engines(path, reference_engine):
    """The recorded violation replays byte-identically on either engine.

    The files were written while runs carried an ``engine`` tag; it loads
    as any unknown key does and the replay is what is compared.
    """
    witness = ScheduleWitness.load(path)
    production = witness.replay()
    with reference_engine():
        reference = witness.replay()
    for engine, outcome in (("production", production), ("reference", reference)):
        assert outcome.failures == witness.failures, (
            f"{path.name}: recorded violation no longer reproduces on the "
            f"{engine} engine — a behaviour change reached a certified "
            f"counterexample"
        )
        assert outcome.trace_hash == witness.trace_hash, (
            f"{path.name}: wire-trace fingerprint drifted on the {engine} "
            f"engine (recorded {witness.trace_hash}, replayed {outcome.trace_hash})"
        )
    assert production == reference


def test_stale_read_witness_shape():
    """The canonical stale-read witness stays minimal: one held link."""
    witness = ScheduleWitness.load(WITNESS_DIR / "stale_read.json")
    assert witness.probe.protocol == "atomic-fast-regular"
    assert len(witness.decisions) == 1
    assert witness.failures and witness.failures[0][0] == "atomicity"


def test_stale_rejoin_witness_shape():
    """The stale-rejoin witness: a recovered-but-stale object breaks ABD.

    An fsync-lag object acknowledges the write's round-2 store, crashes
    before syncing it, and rejoins with the pre-write journal image; one
    held link then steers a later read onto a quorum containing the
    rejoined object, which answers with ⊥ — an atomicity violation that
    only exists because recovery is a schedule choice point.
    """
    witness = ScheduleWitness.load(WITNESS_DIR / "stale_rejoin.json")
    assert witness.probe.protocol == "abd"
    assert witness.probe.durability == "mem"
    assert witness.probe.fault_groups and witness.probe.fault_groups[0].fault == "fsync-lag"
    assert len(witness.decisions) == 1
    assert witness.failures and witness.failures[0][0] == "atomicity"


def test_k1_violation_witness_shape():
    """The k1-violation witness: bounded staleness is visible, and bounded.

    A ``k-atomic(2)`` backend serves a read that overlaps the second write;
    with no holds the lagged view returns the previous value and 1-atomicity
    holds.  Holding the write's two quorum links starves the inner read of
    the new value, so the lagged view falls back to ⊥ while the first write
    has completed — a 1-atomicity violation.  The same configuration is
    certified 2-atomic over the identical bounded schedule space
    (tests/test_consistency_backend.py), so the witness pins the spectrum
    gap between k=1 and k=2, not a backend bug.
    """
    witness = ScheduleWitness.load(WITNESS_DIR / "k1_violation.json")
    assert witness.probe.protocol == "abd"
    assert witness.probe.backend == "k-atomic"
    assert witness.probe.consistency == "k-atomic(2)"
    assert len(witness.decisions) == 2
    assert witness.failures and witness.failures[0][0] == "k-atomic(1)"
    assert "beyond the k=1 bound" in witness.failures[0][1]


def test_timed_stale_frontier_witness_shape():
    """The frontier's refutation witness: fault timing IS a choice point.

    One stale-echo object is active from the start; a second carries a
    ``timed(stale-echo@99)`` wrapper that never fires on the facade's
    schedule, so without timing choice points the bounded space is clean.
    The explorer's swept trigger fires the second object at delivery 0
    (``fire s2@0``) and one held link steers the read onto the two stale
    objects — the minimized mixed-vocabulary witness that refutes
    atomicity while ``repro frontier`` certifies k-atomic(2) for the same
    configuration.
    """
    witness = ScheduleWitness.load(WITNESS_DIR / "timed_stale_frontier.json")
    assert witness.probe.protocol == "atomic-fast-regular"
    assert witness.probe.allow_overfault
    faults = {g.fault for g in witness.probe.fault_groups}
    assert faults == {"stale-echo", "timed"}
    holds = [d for d in witness.decisions if isinstance(d, HoldLink)]
    triggers = [d for d in witness.decisions if isinstance(d, FaultTrigger)]
    assert len(holds) == 1 and len(triggers) == 1
    assert triggers[0].obj == 2 and triggers[0].at == 0
    assert witness.failures and witness.failures[0][0] == "atomicity"
    assert "stale read" in witness.failures[0][1]


def test_timed_double_trigger_witness_shape():
    """The all-triggers witness: both stale objects are explorer-fired.

    Both faulty objects carry inert ``timed(stale-echo@99)`` wrappers, so
    the *only* path to the violation is through two swept trigger
    decisions plus the steering hold — the deepest mixed decision set in
    the corpus, discovered and saved through the CLI alone.
    """
    witness = ScheduleWitness.load(WITNESS_DIR / "timed_double_trigger.json")
    assert witness.probe.protocol == "atomic-fast-regular"
    triggers = [d for d in witness.decisions if isinstance(d, FaultTrigger)]
    assert sorted((t.obj, t.at) for t in triggers) == [(1, 0), (2, 0)]
    assert all(g.fault == "timed" for g in witness.probe.fault_groups)
    assert witness.failures and witness.failures[0][0] == "atomicity"


def test_underquorum_transfer_witness_shape():
    """The under-quorum repair witness: state transfer below S−t loses writes.

    s1 permanently crashes after one delivery and is replaced by a spare;
    with ``xfer_quorum=1`` the transfer read may reach *only* the dead
    member's blank successor-to-be, so the install round seeds the new
    epoch from ⊥.  One held link then steers a later read onto a quorum
    containing the freshly activated spare, which answers with the
    resurrected initial value — an atomicity violation that disappears at
    the sound default quorum (the explorer certifies that configuration at
    the same bounds, see tests/test_reconfig.py).
    """
    witness = ScheduleWitness.load(WITNESS_DIR / "underquorum_transfer.json")
    assert witness.probe.protocol == "abd"
    assert witness.probe.backend == "reconfig"
    assert witness.probe.repairs == ((1, 5),)
    assert witness.probe.xfer_quorum == 1
    assert witness.probe.fault_groups and witness.probe.fault_groups[0].fault == "perm-crash"
    assert len(witness.decisions) == 1
    assert witness.failures and witness.failures[0][0] == "atomicity"
    assert "stale read" in witness.failures[0][1]

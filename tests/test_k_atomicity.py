"""Unit + differential tests for the k-atomicity spectrum verifier.

Three layers of confidence:

* hand-built histories pin the semantics (k=1 is atomicity, lagged reads
  pass exactly up to their lag, the placement-segment subtlety that plain
  per-pair index monotonicity misses);
* ``check_k_atomicity(h, 1)`` is compared verdict-for-verdict against the
  k=1 checkers (``check_swmr_atomicity`` / ``is_linearizable``) on every
  protocol × covered-scenario grid cell the facade can run;
* randomized small histories are compared against the brute-force
  frozenset-frontier oracle for k ∈ {1, 2, 3}.
"""

from __future__ import annotations

import random

import pytest

from repro.api import Cluster, protocol_specs
from repro.consistency import (
    canonical_check_name,
    check_k_atomicity,
    check_k_atomicity_reference,
    consistency_bound,
    parse_consistency,
)
from repro.errors import ConfigurationError, SpecificationError
from repro.spec.atomicity import check_swmr_atomicity
from repro.spec.history import History, OperationRecord
from repro.spec.linearizability import is_linearizable
from repro.types import BOTTOM, fresh_operation_id, reader_id, writer_id

from helpers import atomicity_spectrum


class HistoryBuilder:
    """Small DSL: steps are assigned in call order (same as test_atomicity)."""

    def __init__(self):
        self.records = []
        self._step = 0

    def _next(self):
        self._step += 1
        return self._step

    def write(self, value, complete=True):
        inv = self._next()
        resp = self._next() if complete else None
        self.records.append(OperationRecord(
            op_id=fresh_operation_id(writer_id(), "write"), kind="write",
            client=writer_id(), invoked_at=inv, invocation_step=inv,
            value=value, responded_at=resp, response_step=resp,
        ))
        return self

    def read(self, reader, returns, inv=None, resp=None):
        inv_step = inv if inv is not None else self._next()
        resp_step = resp if resp is not None else self._next()
        self._step = max(self._step, inv_step, resp_step or 0)
        self.records.append(OperationRecord(
            op_id=fresh_operation_id(reader_id(reader), "read"), kind="read",
            client=reader_id(reader), invoked_at=inv_step, invocation_step=inv_step,
            value=returns, responded_at=resp_step, response_step=resp_step,
        ))
        return self

    def history(self):
        return History(self.records)


class TestHandHistories:
    def test_k_must_be_positive(self):
        with pytest.raises(SpecificationError):
            check_k_atomicity(History([]), 0)
        with pytest.raises(SpecificationError):
            check_k_atomicity_reference(History([]), 0)

    def test_empty_history_is_k_atomic(self):
        assert check_k_atomicity(History([]), 1).ok
        assert check_k_atomicity(History([]), 3).ok

    def test_one_write_lag_passes_at_k2_only(self):
        history = HistoryBuilder().write("a").write("b").read(1, "a").history()
        assert not check_k_atomicity(history, 1).ok
        assert check_k_atomicity(history, 2).ok
        assert atomicity_spectrum(history) == 2

    def test_bottom_after_two_writes_needs_k3(self):
        history = HistoryBuilder().write("a").write("b").read(1, BOTTOM).history()
        assert not check_k_atomicity(history, 2).ok
        assert check_k_atomicity(history, 3).ok
        assert atomicity_spectrum(history) == 3

    def test_atomic_history_has_spectrum_one(self):
        history = HistoryBuilder().write("a").read(1, "a").write("b").read(2, "b").history()
        assert check_k_atomicity(history, 1).ok
        assert atomicity_spectrum(history) == 1

    def test_k1_violation_carries_the_bound_in_the_diagnosis(self):
        history = HistoryBuilder().write("a").write("b").read(1, "a").history()
        verdict = check_k_atomicity(history, 1)
        assert verdict.violated_property == 2
        assert "beyond the k=1 bound" in verdict.explanation

    def test_unwritten_value_fails_every_k(self):
        history = HistoryBuilder().write("a").read(1, "z").history()
        for k in (1, 2, 5):
            verdict = check_k_atomicity(history, k)
            assert not verdict.ok and verdict.violated_property == 1
        assert atomicity_spectrum(history) is None

    def test_read_from_the_future_fails_every_k(self):
        builder = HistoryBuilder()
        builder.read(1, "a", inv=1, resp=2)
        builder.write("a")
        history = builder.history()
        for k in (1, 3):
            verdict = check_k_atomicity(history, k)
            assert not verdict.ok and verdict.violated_property == 3
        assert atomicity_spectrum(history) is None

    def test_segment_chain_rejected_at_k2(self):
        """Pairwise index monotonicity is not enough: the segment chain.

        After three complete writes, a precedence chain of reads returning
        v3, v2, v1 satisfies every *pairwise* ``idx ≥ prev_idx − (k−1)``
        constraint at k=2, yet no placement exists: r1 sits in segment 3,
        which forces r2's placement (value v2) into segment 3 as well, so
        r3 needs an index ≥ 2 — and v1 is index 1.
        """
        history = (
            HistoryBuilder().write("v1").write("v2").write("v3")
            .read(1, "v3").read(1, "v2").read(1, "v1").history()
        )
        verdict = check_k_atomicity(history, 2)
        assert not verdict.ok
        assert verdict.violated_property in (2, 4)
        assert not check_k_atomicity_reference(history, 2)
        assert check_k_atomicity(history, 3).ok
        assert atomicity_spectrum(history) == 3

    def test_concurrent_reads_may_each_lag_independently(self):
        # Both reads overlap nothing and follow two writes: at k=2 each may
        # return the previous value without constraining the other (they
        # are concurrent, so no segment ordering applies between them).
        builder = HistoryBuilder().write("a").write("b")
        builder.read(1, "a", inv=10, resp=13)
        builder.read(2, "b", inv=11, resp=12)
        history = builder.history()
        assert not check_k_atomicity(history, 1).ok
        assert check_k_atomicity(history, 2).ok

    def test_incomplete_write_still_optional(self):
        # An incomplete write may never take effect; reading the prior
        # value stays 1-atomic, reading the new value is also allowed.
        history = HistoryBuilder().write("a").write("b", complete=False).read(1, "a").history()
        assert check_k_atomicity(history, 1).ok
        history = HistoryBuilder().write("a").write("b", complete=False).read(1, "b").history()
        assert check_k_atomicity(history, 1).ok


class TestModelVocabulary:
    def test_canonical_check_name(self):
        assert canonical_check_name("atomic") == "atomicity"
        assert canonical_check_name("regular") == "regularity"
        assert canonical_check_name("safe") == "safety"
        assert canonical_check_name("linearizable") == "linearizability"
        assert canonical_check_name("k-atomic") == "k-atomic(2)"
        assert canonical_check_name("k-atomic", k=4) == "k-atomic(4)"
        assert canonical_check_name("k-atomic(3)") == "k-atomic(3)"
        assert canonical_check_name("bounded-stale", k=3) == "k-atomic(3)"

    def test_canonical_check_name_rejects_conflicts_and_unknowns(self):
        with pytest.raises(ConfigurationError):
            canonical_check_name("k-atomic(3)", k=2)
        with pytest.raises(ConfigurationError):
            canonical_check_name("k-atomic(0)")
        with pytest.raises(ConfigurationError):
            canonical_check_name("causal")

    def test_parse_consistency(self):
        assert parse_consistency("atomic") == "atomic"
        assert parse_consistency("k-atomic") == "k-atomic(2)"
        assert parse_consistency("k-atomic(1)") == "k-atomic(1)"
        assert parse_consistency("bounded-stale") == "k-atomic(2)"
        with pytest.raises(ConfigurationError):
            parse_consistency("eventual")
        with pytest.raises(ConfigurationError):
            parse_consistency("k-atomic(0)")

    def test_consistency_bound(self):
        assert consistency_bound("atomic") == 1
        assert consistency_bound("k-atomic(3)") == 3
        with pytest.raises(ConfigurationError):
            consistency_bound("k-atomic")  # only canonical strings carry a bound


def _grid_cells():
    for spec in protocol_specs():
        for scenario in spec.scenarios:
            yield pytest.param(spec.name, scenario, id=f"{spec.name}-{scenario}")


@pytest.mark.parametrize("protocol,scenario", _grid_cells())
def test_k1_agrees_with_the_atomicity_checkers(protocol, scenario):
    """``check_k_atomicity(h, 1)`` is the k=1 checker, verdict for verdict.

    Every protocol × covered-scenario cell the facade can run — including
    histories that *violate* atomicity (regular/safe protocols under
    faults) — must get the same ok, the same violated property and the
    same greedy assignment from the k=1 spectrum path.
    """
    result = (
        Cluster(protocol, t=1)
        .with_scenario(scenario)
        .with_workload(operations=8, spacing=90)
        .run(trials=2, keep_history=True)
    )
    for trial in result.trials:
        history = trial.history
        verdict = check_k_atomicity(history, 1)
        if history.single_writer():
            expected = check_swmr_atomicity(history)
            assert verdict.ok == expected.ok, (protocol, scenario, trial.trial)
            assert verdict.violated_property == expected.violated_property
            assert verdict.assignment == expected.assignment
        else:
            assert verdict.ok == is_linearizable(history), (protocol, scenario, trial.trial)


def _random_history(rng: random.Random) -> History:
    """A small adversarial SWMR history: duplicate values, ⊥ reads, overlap.

    Well-formedness is preserved by construction: only the *last* write may
    be incomplete (the single writer cannot invoke past an outstanding
    write) and each reader's reads are sequential.
    """
    builder = HistoryBuilder()
    count = rng.randint(1, 4)
    for index in range(count):
        last = index == count - 1
        builder.write(
            rng.choice(["a", "b", "a"]),
            complete=not (last and rng.random() < 0.2),
        )
    horizon = builder._step + 4
    cursor = {1: 0, 2: 0}  # per-reader response front (reads are sequential)
    for _ in range(rng.randint(1, 4)):
        reader = rng.randint(1, 2)
        inv = rng.randint(cursor[reader] + 1, cursor[reader] + horizon)
        resp = inv + rng.randint(0, 4)
        cursor[reader] = resp
        builder.read(reader, rng.choice([BOTTOM, "a", "b"]), inv=inv, resp=resp)
    return builder.history()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_greedy_agrees_with_the_brute_force_oracle(k):
    rng = random.Random(20260808 + k)
    for case in range(250):
        history = _random_history(rng)
        fast = check_k_atomicity(history, k).ok
        slow = check_k_atomicity_reference(history, k)
        assert fast == slow, (case, k, [
            (r.kind, r.value, r.invocation_step, r.response_step)
            for r in history.records
        ])


def test_spectrum_is_monotone_on_random_histories():
    """Once a history passes at k it passes at every larger k, and the
    spectrum names exactly the first passing bound."""
    rng = random.Random(7)
    for _ in range(100):
        history = _random_history(rng)
        smallest = atomicity_spectrum(history)
        if smallest is None:
            assert not check_k_atomicity(history, len(history.writes()) + 1).ok
            continue
        assert check_k_atomicity(history, smallest).ok
        assert check_k_atomicity(history, smallest + 1).ok
        if smallest > 1:
            assert not check_k_atomicity(history, smallest - 1).ok

"""Unit tests for the SWMR atomicity checker (paper §2.2, properties 1–4)."""

import pytest

from repro.errors import SpecificationError
from repro.spec.atomicity import check_swmr_atomicity
from repro.spec.history import History, OperationRecord
from repro.types import BOTTOM, fresh_operation_id, reader_id, writer_id


class HistoryBuilder:
    """Small DSL: steps are assigned in call order."""

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


class TestValidHistories:
    def test_empty_history_is_atomic(self):
        assert check_swmr_atomicity(History([])).ok

    def test_sequential_write_then_read(self):
        verdict = check_swmr_atomicity(
            HistoryBuilder().write("a").read(1, "a").history()
        )
        assert verdict.ok
        assert list(verdict.assignment.values()) == [1]

    def test_read_of_initial_bottom(self):
        assert check_swmr_atomicity(HistoryBuilder().read(1, BOTTOM).history()).ok

    def test_concurrent_read_may_return_either(self):
        # write [1,4], read [2,3] concurrent: may return ⊥ or the new value.
        for value in (BOTTOM, "a"):
            builder = HistoryBuilder()
            builder.records.append(OperationRecord(
                op_id=fresh_operation_id(writer_id(), "write"), kind="write",
                client=writer_id(), invoked_at=1, invocation_step=1,
                value="a", responded_at=4, response_step=4,
            ))
            builder.read(1, value, inv=2, resp=3)
            assert check_swmr_atomicity(builder.history()).ok, value

    def test_read_of_incomplete_write_allowed(self):
        verdict = check_swmr_atomicity(
            HistoryBuilder().write("a", complete=False).read(1, "a").history()
        )
        assert verdict.ok

    def test_two_readers_agree_on_order(self):
        history = (
            HistoryBuilder().write("a").write("b")
            .read(1, "b").read(2, "b").history()
        )
        assert check_swmr_atomicity(history).ok

    def test_duplicate_written_values_resolved(self):
        # Both writes store "a": a read after both can be assigned either.
        history = HistoryBuilder().write("a").write("a").read(1, "a").history()
        assert check_swmr_atomicity(history).ok


class TestProperty1Validity:
    def test_unwritten_value_rejected(self):
        verdict = check_swmr_atomicity(HistoryBuilder().write("a").read(1, "z").history())
        assert not verdict.ok
        assert verdict.violated_property == 1

    def test_unwritten_value_with_no_writes(self):
        verdict = check_swmr_atomicity(HistoryBuilder().read(1, "ghost").history())
        assert verdict.violated_property == 1

    def test_unhashable_read_value_rejected_not_crashed(self):
        # The candidate index is only a prefilter; unhashable values must
        # still produce a property-1 verdict, not a TypeError.
        verdict = check_swmr_atomicity(
            HistoryBuilder().write("a").read(1, ["unhashable"]).history()
        )
        assert not verdict.ok
        assert verdict.violated_property == 1

    def test_unhashable_write_values_still_checked(self):
        builder = HistoryBuilder().write(["x"])
        builder.read(1, ["x"])
        assert check_swmr_atomicity(builder.history()).ok

    def test_nan_read_matches_no_write(self):
        # Candidacy is defined by ``==`` (as in every other spec checker),
        # not by dict-lookup identity: NaN equals nothing, including itself.
        nan = float("nan")
        verdict = check_swmr_atomicity(HistoryBuilder().write(nan).read(1, nan).history())
        assert not verdict.ok
        assert verdict.violated_property == 1


class TestProperty2Freshness:
    def test_stale_read_rejected(self):
        verdict = check_swmr_atomicity(
            HistoryBuilder().write("a").write("b").read(1, "a").history()
        )
        assert not verdict.ok
        assert verdict.violated_property == 2

    def test_bottom_after_complete_write_rejected(self):
        verdict = check_swmr_atomicity(
            HistoryBuilder().write("a").read(1, BOTTOM).history()
        )
        assert not verdict.ok
        assert verdict.violated_property == 2


class TestProperty3NoFutureReads:
    def test_read_before_write_invoked_rejected(self):
        builder = HistoryBuilder()
        builder.read(1, "a", inv=1, resp=2)
        builder.write("a")
        verdict = check_swmr_atomicity(builder.history())
        assert not verdict.ok
        assert verdict.violated_property == 3


class TestProperty4Monotonicity:
    def test_new_old_inversion_rejected(self):
        # Writes a, b (both complete, concurrent with nothing); rd1 returns b,
        # then rd2 (succeeding rd1) returns a: inversion.
        builder = HistoryBuilder()
        builder.write("a")          # steps 1,2
        builder.records.append(OperationRecord(
            op_id=fresh_operation_id(writer_id(), "write"), kind="write",
            client=writer_id(), invoked_at=3, invocation_step=3,
            value="b", responded_at=20, response_step=20,
        ))
        builder._step = 20
        builder.read(1, "b", inv=4, resp=5)
        builder.read(2, "a", inv=6, resp=7)
        verdict = check_swmr_atomicity(builder.history())
        assert not verdict.ok
        assert verdict.violated_property == 4

    def test_concurrent_reads_unconstrained(self):
        # Same shape but the reads overlap: both values acceptable.
        builder = HistoryBuilder()
        builder.write("a")
        builder.records.append(OperationRecord(
            op_id=fresh_operation_id(writer_id(), "write"), kind="write",
            client=writer_id(), invoked_at=3, invocation_step=3,
            value="b", responded_at=20, response_step=20,
        ))
        builder._step = 20
        builder.read(1, "b", inv=4, resp=6)
        builder.read(2, "a", inv=5, resp=7)  # overlaps rd1
        assert check_swmr_atomicity(builder.history()).ok


class TestCheckerInterface:
    def test_multi_writer_rejected(self):
        from repro.types import ProcessId

        other_writer = ProcessId("writer", 9)
        records = [
            OperationRecord(
                op_id=fresh_operation_id(writer_id(), "write"), kind="write",
                client=writer_id(), invoked_at=1, invocation_step=1,
                value="a", responded_at=2, response_step=2,
            ),
            OperationRecord(
                op_id=fresh_operation_id(other_writer, "write"), kind="write",
                client=other_writer, invoked_at=3, invocation_step=3,
                value="b", responded_at=4, response_step=4,
            ),
        ]
        with pytest.raises(SpecificationError):
            check_swmr_atomicity(History(records))

    def test_explanation_names_culprit_value(self):
        verdict = check_swmr_atomicity(HistoryBuilder().write("a").read(1, "z").history())
        assert "'z'" in verdict.explanation

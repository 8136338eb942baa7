"""Unit tests for history recording and the precedence order."""

import pytest

from repro.errors import SpecificationError
from repro.spec.history import History, HistoryRecorder, OperationRecord
from repro.types import BOTTOM, fresh_operation_id, reader_id, writer_id


def record(kind, client, inv_step, resp_step=None, value=None):
    return OperationRecord(
        op_id=fresh_operation_id(client, kind),
        kind=kind,
        client=client,
        invoked_at=inv_step,
        invocation_step=inv_step,
        value=value,
        responded_at=resp_step,
        response_step=resp_step,
    )


class TestRecorder:
    def test_round_trip(self):
        recorder = HistoryRecorder()
        op = fresh_operation_id(writer_id(), "write")
        recorder.record_invocation(op, kind="write", value="x", time=0)
        recorder.record_response(op, value="x", time=5)
        history = recorder.freeze()
        assert len(history.records) == 1
        assert history.writes()[0].complete

    def test_read_value_set_at_response(self):
        recorder = HistoryRecorder()
        op = fresh_operation_id(reader_id(1), "read")
        recorder.record_invocation(op, kind="read", value=None, time=0)
        recorder.record_response(op, value="seen", time=3)
        assert recorder.freeze().reads()[0].value == "seen"

    def test_duplicate_invocation_rejected(self):
        recorder = HistoryRecorder()
        op = fresh_operation_id(reader_id(1), "read")
        recorder.record_invocation(op, kind="read", value=None, time=0)
        with pytest.raises(SpecificationError):
            recorder.record_invocation(op, kind="read", value=None, time=1)

    def test_response_without_invocation_rejected(self):
        recorder = HistoryRecorder()
        with pytest.raises(SpecificationError):
            recorder.record_response(fresh_operation_id(reader_id(1), "read"), value=1, time=0)

    def test_duplicate_response_rejected(self):
        recorder = HistoryRecorder()
        op = fresh_operation_id(reader_id(1), "read")
        recorder.record_invocation(op, kind="read", value=None, time=0)
        recorder.record_response(op, value=1, time=1)
        with pytest.raises(SpecificationError):
            recorder.record_response(op, value=1, time=2)

    def test_incomplete_operation_frozen(self):
        recorder = HistoryRecorder()
        op = fresh_operation_id(reader_id(1), "read")
        recorder.record_invocation(op, kind="read", value=None, time=0)
        history = recorder.freeze()
        assert not history.reads(complete_only=True)
        assert history.reads(complete_only=False)


class TestPrecedence:
    def test_strict_precedence(self):
        first = record("write", writer_id(), 1, 2, "a")
        second = record("read", reader_id(1), 3, 4)
        assert first.precedes(second)
        assert not second.precedes(first)

    def test_overlap_is_concurrent(self):
        a = record("write", writer_id(), 1, 3, "a")
        b = record("read", reader_id(1), 2, 4)
        assert a.concurrent_with(b)
        assert b.concurrent_with(a)

    def test_incomplete_never_precedes(self):
        pending = record("write", writer_id(), 1, None, "a")
        later = record("read", reader_id(1), 5, 6)
        assert not pending.precedes(later)
        assert later.concurrent_with(pending)


class TestHistoryAccessors:
    def test_written_values_includes_bottom(self):
        history = History([
            record("write", writer_id(), 1, 2, "a"),
            record("write", writer_id(), 3, 4, "b"),
        ])
        assert history.written_values() == [BOTTOM, "a", "b"]

    def test_writes_sorted_by_invocation(self):
        w2 = record("write", writer_id(), 3, 4, "b")
        w1 = record("write", writer_id(), 1, 2, "a")
        history = History([w2, w1])
        assert [w.value for w in history.writes()] == ["a", "b"]

    def test_single_writer_detection(self):
        swmr = History([record("write", writer_id(), 1, 2, "a")])
        assert swmr.single_writer()

    def test_overlapping_ops_same_client_rejected(self):
        a = record("read", reader_id(1), 1, 5)
        b = record("read", reader_id(1), 3, 7)
        with pytest.raises(SpecificationError):
            History([a, b])

    def test_pending_then_new_op_same_client_rejected(self):
        a = record("read", reader_id(1), 1, None)
        b = record("read", reader_id(1), 3, 4)
        with pytest.raises(SpecificationError):
            History([a, b])

    def test_describe_renders_every_op(self):
        history = History([
            record("write", writer_id(), 1, 2, "a"),
            record("read", reader_id(1), 3, None),
        ])
        text = history.describe()
        assert "write" in text and "read" in text and "incomplete" in text

"""Unit tests for the ground types."""

import pytest
from hypothesis import given, strategies as st

from repro.types import (
    BOTTOM,
    ProcessId,
    Role,
    TaggedValue,
    Timestamp,
    fresh_operation_id,
    object_id,
    object_ids,
    reader_id,
    reader_ids,
    writer_id,
)


class TestProcessId:
    def test_object_id_str(self):
        assert str(object_id(3)) == "s3"

    def test_reader_id_str(self):
        assert str(reader_id(2)) == "r2"

    def test_writer_id_str(self):
        assert str(writer_id()) == "w"

    def test_roles(self):
        assert object_id(1).role is Role.OBJECT
        assert reader_id(1).role is Role.READER
        assert writer_id().role is Role.WRITER

    def test_object_ids_count_and_order(self):
        ids = object_ids(5)
        assert len(ids) == 5
        assert ids == tuple(sorted(ids))

    def test_reader_ids(self):
        assert [str(r) for r in reader_ids(3)] == ["r1", "r2", "r3"]

    def test_one_based_indexing_enforced(self):
        with pytest.raises(ValueError):
            object_id(0)
        with pytest.raises(ValueError):
            reader_id(-1)

    def test_ids_hashable_and_distinct(self):
        assert len({object_id(1), object_id(2), reader_id(1), writer_id()}) == 4

    def test_same_id_equal(self):
        assert object_id(7) == object_id(7)


class TestTimestamp:
    def test_zero(self):
        assert Timestamp.zero() == Timestamp(0, 0)

    def test_next_increments_seq(self):
        assert Timestamp.zero().next_for() == Timestamp(1, 0)

    def test_next_sets_writer(self):
        assert Timestamp(4, 0).next_for(writer=2) == Timestamp(5, 2)

    def test_ordering_by_seq(self):
        assert Timestamp(1, 5) < Timestamp(2, 0)

    def test_writer_breaks_ties(self):
        assert Timestamp(3, 1) < Timestamp(3, 2)

    def test_str_plain_and_mw(self):
        assert str(Timestamp(4)) == "4"
        assert str(Timestamp(4, 2)) == "4.2"

    @given(st.integers(0, 1000), st.integers(0, 1000))
    def test_order_total_on_seq(self, a, b):
        ta, tb = Timestamp(a), Timestamp(b)
        assert (ta < tb) == (a < b)


class TestTaggedValue:
    def test_initial(self):
        initial = TaggedValue.initial()
        assert initial.ts == Timestamp.zero()
        assert initial.value == BOTTOM

    def test_initial_is_one_shared_frozen_pair(self):
        import dataclasses
        import pickle

        initial = TaggedValue.initial()
        assert initial is TaggedValue.initial() and initial.ts is Timestamp.zero()
        assert initial == TaggedValue(Timestamp(0, 0), BOTTOM)
        assert hash(initial) == hash(TaggedValue(Timestamp(0, 0), BOTTOM))
        with pytest.raises(dataclasses.FrozenInstanceError):
            initial.value = "x"
        assert pickle.loads(pickle.dumps(initial)) == initial

    def test_newer_than(self):
        old = TaggedValue(Timestamp(1), "a")
        new = TaggedValue(Timestamp(2), "b")
        assert new.newer_than(old)
        assert not old.newer_than(new)
        assert not old.newer_than(old)

    def test_hashable(self):
        pair = TaggedValue(Timestamp(1), "a")
        assert pair in {pair}

    def test_equality_on_both_fields(self):
        assert TaggedValue(Timestamp(1), "a") != TaggedValue(Timestamp(1), "b")


class TestOperationId:
    def test_serials_unique(self):
        a = fresh_operation_id(reader_id(1), "read")
        b = fresh_operation_id(reader_id(1), "read")
        assert a != b
        assert a.serial != b.serial

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            fresh_operation_id(reader_id(1), "scan")

    def test_str_mentions_kind_and_client(self):
        op = fresh_operation_id(writer_id(), "write")
        assert "write" in str(op)
        assert "w" in str(op)

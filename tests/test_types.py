"""Unit tests for the ground types."""

import pytest
from hypothesis import given, strategies as st

from repro.types import (
    BOTTOM,
    OperationId,
    ProcessId,
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

    def test_hashable(self):
        pair = TaggedValue(Timestamp(1), "a")
        assert pair in {pair}

    def test_equality_on_both_fields(self):
        assert TaggedValue(Timestamp(1), "a") != TaggedValue(Timestamp(1), "b")


class TestGeneratedFormReprs:
    """The hand-written ``__repr__``s emit what ``@dataclass`` generated: the
    trace fingerprint hashes these bytes, and every committed ``trace_hash``
    was computed from the generated form."""

    def test_timestamp(self):
        assert repr(Timestamp(3)) == "Timestamp(seq=3, writer=0)"
        assert repr(Timestamp(3, 2)) == "Timestamp(seq=3, writer=2)"
        assert repr(Timestamp.zero()) == "Timestamp(seq=0, writer=0)"

    def test_tagged_value(self):
        assert repr(TaggedValue.initial()) == (
            "TaggedValue(ts=Timestamp(seq=0, writer=0), value='\u22a5')"
        )
        assert repr(TaggedValue(Timestamp(2, 1), "caf\u00e9 \u2192 x")) == (
            "TaggedValue(ts=Timestamp(seq=2, writer=1), value='caf\u00e9 \u2192 x')"
        )
        nested = TaggedValue(Timestamp(5), (TaggedValue(Timestamp(4, 3), None), [1, "a"]))
        assert repr(nested) == (
            "TaggedValue(ts=Timestamp(seq=5, writer=0), value=(TaggedValue("
            "ts=Timestamp(seq=4, writer=3), value=None), [1, 'a']))"
        )
        assert repr({"pair": nested.value[0]}) == (
            "{'pair': TaggedValue(ts=Timestamp(seq=4, writer=3), value=None)}"
        )


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


class TestIdentifierHashes:
    """Hashes are computed once, from ints only: they survive pickling and
    agree with an interpreter running under another string-hash seed —
    which is what a spawn pool worker is."""

    SAMPLES = (
        "object_id(3)", "reader_id(2)", "writer_id()", "repair_id(1)",
        "ProcessId('writer', 4)",
        "OperationId(reader_id(2), 'read', 7)",
        "OperationId(writer_id(), 'write', 1)",
        "OperationId(repair_id(1), 'repair', 12)",
    )

    @classmethod
    def _samples(cls):
        import repro.types as types

        return [eval(source, vars(types)) for source in cls.SAMPLES]

    def test_equal_identifiers_hash_equal(self):
        for first, second in zip(self._samples(), self._samples()):
            assert first is not second
            assert first == second and hash(first) == hash(second)
            assert {first: 1}[second] == 1

    def test_distinct_identifiers_stay_distinct(self):
        samples = self._samples()
        assert len(set(samples)) == len(samples)
        read = OperationId(reader_id(1), "read", 5)
        assert read != OperationId(reader_id(1), "write", 5)
        assert read != OperationId(reader_id(2), "read", 5)
        assert read != OperationId(reader_id(1), "read", 6)
        assert read != ("read", 5) and object_id(1) != reader_id(1)

    def test_hash_and_eq_survive_pickling(self):
        import pickle

        for sample in self._samples():
            clone = pickle.loads(pickle.dumps(sample))
            assert clone == sample and hash(clone) == hash(sample)
            assert repr(clone) == repr(sample)

    def test_hashes_agree_across_hash_seeds(self):
        """A pickled identifier must index the same dict slot in a worker."""
        import os
        import pickle
        import subprocess
        import sys
        from pathlib import Path

        import repro

        samples = self._samples()
        script = (
            "import pickle, sys\n"
            "samples = pickle.loads(sys.stdin.buffer.read())\n"
            "fresh = [type(s)(*[getattr(s, n) for n in s.__match_args__]) for s in samples]\n"
            "assert fresh == samples\n"
            "print(hash('seeded'), [hash(s) for s in samples], [hash(s) for s in fresh])\n"
        )
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=str(Path(repro.__file__).parents[1]))
            done = subprocess.run(
                [sys.executable, "-c", script], input=pickle.dumps(samples),
                env=env, capture_output=True, timeout=60, check=True,
            )
            outputs.append(done.stdout.decode().split(" ", 1))
        (string_hash_1, hashes_1), (string_hash_2, hashes_2) = outputs
        assert string_hash_1 != string_hash_2  # the seeds really differ
        expected = [hash(s) for s in samples]
        assert hashes_1 == hashes_2 == f"{expected} {expected}\n"

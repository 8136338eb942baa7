"""Tests for the scripted partial-run engine."""

import pytest

from repro.core.blocks import read_bound_partition
from repro.core.runs import (
    END,
    INITIAL,
    Deliver,
    Restore,
    ScriptedRun,
    StartRead,
    StartWrite,
    TerminateRound,
    find_first_mismatch,
    repair_against,
)
from repro.errors import ConstructionError, ConstructionEscape
from repro.registers.strawman import TwoRoundReadProtocol
from repro.sim.tracing import _freeze


def round_transcript(result, op, round_no):
    """Frozen reply set of a terminated round; None if it never terminated."""
    state = result.ops[op]
    index = round_no - 1
    if index >= len(state.terminated) or not state.terminated[index]:
        return None
    return tuple(sorted((pid, _freeze(payload)) for pid, payload in state.replies[index].items()))


@pytest.fixture
def runner():
    partition = read_bound_partition(t=1)  # S=4, one object per block
    return ScriptedRun(lambda: TwoRoundReadProtocol(write_rounds=2), partition, t=1, n_readers=4)


def write_script(rounds=2, blocks=("B1", "B2", "B3")):
    steps = [StartWrite("write", 1)]
    for r in range(1, rounds + 1):
        steps.append(Deliver("write", r, blocks))
        steps.append(TerminateRound("write", r))
    return steps


def read_script(op="rd1", reader=1, skip1="B2", skip2="B1"):
    all_blocks = ("B1", "B2", "B3", "B4")
    return [
        StartRead(op, reader=reader),
        Deliver(op, 1, tuple(b for b in all_blocks if b != skip1)),
        TerminateRound(op, 1),
        Deliver(op, 2, tuple(b for b in all_blocks if b != skip2)),
        TerminateRound(op, 2),
    ]


class TestExecution:
    def test_complete_write_and_read(self, runner):
        result = runner.execute("run", write_script() + read_script())
        assert result.is_complete("write")
        assert result.returned("rd1") == 1

    def test_partial_round_leaves_op_incomplete(self, runner):
        script = write_script() + [
            StartRead("rd1", reader=1),
            Deliver("rd1", 1, ("B1", "B3", "B4")),
            # never terminated
        ]
        result = runner.execute("run", script)
        assert not result.is_complete("rd1")
        assert result.returned("rd1") is None

    def test_captures_before_every_delivery(self, runner):
        result = runner.execute("run", write_script())
        for pid in runner.partition.members("B1"):
            assert ("write", 1, pid) in result.captures
            assert ("write", 2, pid) in result.captures
            # Before round 1 the state is pristine.
            assert result.captures[("write", 1, pid)]["phase"] == 0
            assert result.captures[("write", 2, pid)]["phase"] == 1

    def test_initial_and_end_captures(self, runner):
        result = runner.execute("run", write_script())
        for pid in runner.ctx.objects:
            assert (*INITIAL, pid) in result.captures
            assert (*END, pid) in result.captures
        b4 = runner.partition.members("B4")[0]
        assert result.captures[(*END, b4)]["phase"] == 0  # write skipped B4

    def test_transcript_of_terminated_round(self, runner):
        result = runner.execute("run", write_script() + read_script())
        transcript = round_transcript(result, "rd1", 1)
        assert transcript is not None
        assert len(transcript) == 3  # delivered to 3 of 4 blocks

    def test_transcript_none_for_unterminated(self, runner):
        script = write_script() + [
            StartRead("rd1", reader=1),
            Deliver("rd1", 1, ("B1", "B3", "B4")),
        ]
        result = runner.execute("run", script)
        assert round_transcript(result, "rd1", 1) is None

    def test_history_reflects_ops(self, runner):
        result = runner.execute("run", write_script() + read_script())
        history = result.history()
        assert len(history.writes()) == 1
        assert history.reads()[0].value == 1

    def test_determinism_across_executions(self, runner):
        script = write_script() + read_script()
        first = runner.execute("a", script)
        second = runner.execute("b", script)
        assert round_transcript(first, "rd1", 1) == round_transcript(second, "rd1", 1)
        assert round_transcript(first, "rd1", 2) == round_transcript(second, "rd1", 2)


class TestScriptValidation:
    def test_duplicate_op_name_rejected(self, runner):
        with pytest.raises(ConstructionError):
            runner.execute("run", [StartWrite("op", 1), StartRead("op", reader=1)])

    def test_deliver_unknown_op_rejected(self, runner):
        with pytest.raises(ConstructionError):
            runner.execute("run", [Deliver("ghost", 1, ("B1",))])

    def test_deliver_wrong_round_rejected(self, runner):
        with pytest.raises(ConstructionError):
            runner.execute("run", [StartWrite("write", 1), Deliver("write", 2, ("B1",))])

    def test_double_delivery_to_same_object_rejected(self, runner):
        with pytest.raises(ConstructionError):
            runner.execute("run", [
                StartWrite("write", 1),
                Deliver("write", 1, ("B1",)),
                Deliver("write", 1, ("B1",)),
            ])

    def test_reader_index_validated(self, runner):
        with pytest.raises(ConstructionError):
            runner.execute("run", [StartRead("rd", reader=9)])

    def test_restore_missing_capture_rejected(self, runner):
        reference = runner.execute("ref", write_script())
        with pytest.raises(ConstructionError):
            runner.execute("run", [
                Restore(block="B1", source=reference.captures, point=("ghost", 1)),
            ])


class TestEscape:
    def test_insufficient_replies_escape(self, runner):
        """Terminating a round below the protocol's quorum must escape."""
        script = [
            StartWrite("write", 1),
            Deliver("write", 1, ("B1",)),  # 1 reply < S - t = 3
            TerminateRound("write", 1),
        ]
        with pytest.raises(ConstructionEscape) as excinfo:
            runner.execute("run", script)
        assert "write" in str(excinfo.value)

    def test_four_round_protocol_cannot_complete_in_two(self):
        """A 4-round-read protocol simply is not done after two rounds."""
        from repro.registers.fast_regular import FastRegularProtocol
        from repro.registers.transform_atomic import RegularToAtomicProtocol

        partition = read_bound_partition(t=1)
        runner = ScriptedRun(
            lambda: RegularToAtomicProtocol(lambda: FastRegularProtocol(), n_readers=4),
            partition, t=1, n_readers=4,
        )
        script = []
        for r in (1, 2):
            script.append(
                Deliver("rd1", r, ("B1", "B2", "B3")) if script else StartRead("rd1", reader=1)
            )
        # Build properly: start, then two full rounds.
        script = [
            StartRead("rd1", reader=1),
            Deliver("rd1", 1, ("B1", "B2", "B3")),
            TerminateRound("rd1", 1),
            Deliver("rd1", 2, ("B1", "B2", "B3")),
            TerminateRound("rd1", 2),
        ]
        result = runner.execute("run", script)
        assert not result.is_complete("rd1")
        assert result.ops["rd1"].rounds_used if hasattr(result.ops["rd1"], "rounds_used") else True


class TestRestoreAndRepair:
    def test_restore_rewinds_block_state(self, runner):
        reference = runner.execute("ref", write_script())
        script = write_script() + [
            Restore(block="B1", source=reference.captures, point=("write", 2)),
        ] + read_script(skip1="B2", skip2="B1")
        result = runner.execute("run", script)
        # B1 replied from its pre-round-2 state: phase 1, not 2.
        transcript = round_transcript(result, "rd1", 1)
        b1 = runner.partition.members("B1")[0]
        b1_reply = dict(dict(transcript)[b1])
        assert b1_reply["phase"] == 1
        assert result.malicious_blocks == {"B1"}

    def test_find_first_mismatch_none_for_identical(self, runner):
        script = write_script() + read_script()
        a = runner.execute("a", script)
        b = runner.execute("b", script)
        assert find_first_mismatch(a, b, ["rd1"]) is None

    def test_find_first_mismatch_detects_divergence(self, runner):
        full = runner.execute("full", write_script(rounds=2) + read_script())
        trimmed = runner.execute("trimmed", write_script(rounds=1) + read_script())
        mismatch = find_first_mismatch(trimmed, full, ["rd1"])
        assert mismatch is not None
        op, round_no, pid = mismatch
        assert op == "rd1"

    def test_repair_inserts_restores_within_budget(self, runner):
        """Repairing a one-round-shorter write forges exactly B1..B3 (the
        blocks whose phase counter reflects the deleted round)."""
        reference = runner.execute("ref", write_script(rounds=2) + read_script())
        base = write_script(rounds=1) + read_script()
        repaired = repair_against(
            runner, "derived", base, reference,
            allowed_blocks=["B1", "B2", "B3"], compare_ops=["rd1"],
        )
        assert repaired.returned("rd1") == reference.returned("rd1")
        assert repaired.malicious_blocks == {"B1", "B2", "B3"}

    def test_repair_fails_outside_budget(self, runner):
        reference = runner.execute("ref", write_script(rounds=2) + read_script())
        base = write_script(rounds=1) + read_script()
        with pytest.raises(ConstructionError):
            repair_against(
                runner, "derived", base, reference,
                allowed_blocks=["B4"],  # the stale blocks B1/B3 are off-limits
                compare_ops=["rd1"],
            )

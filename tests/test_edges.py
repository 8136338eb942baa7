"""Edge cases across modules that the focused suites do not reach."""

import pytest

from repro.errors import ConfigurationError, ConstructionEscape
from repro.registers.abd import AbdProtocol
from repro.registers.base import RegisterSystem
from repro.registers.fast_regular import FastRegularProtocol
from repro.types import BOTTOM, object_id


class TestRegisterSystemGuards:
    def test_bottom_cannot_be_written(self):
        system = RegisterSystem(AbdProtocol(), t=1, n_readers=1)
        with pytest.raises(ConfigurationError):
            system.write(BOTTOM)

    def test_unknown_object_behaviour_rejected(self):
        from repro.faults.adversary import SilentBehavior

        with pytest.raises(ConfigurationError):
            RegisterSystem(AbdProtocol(), t=1, S=3, behaviors={object_id(9): SilentBehavior()})

    def test_allow_overfault_escape_hatch(self):
        from repro.faults.adversary import SilentBehavior

        system = RegisterSystem(
            FastRegularProtocol(), t=1, n_readers=1,
            behaviors={object_id(1): SilentBehavior(), object_id(2): SilentBehavior()},
            allow_overfault=True,
        )
        # With t+1 silent objects wait-freedom is forfeit: the read stalls.
        system.write("a", at=0)
        system.run()
        assert system.simulator.pending_operations()


class TestConstructionEscapeShape:
    def test_fields_preserved(self):
        escape = ConstructionEscape(step="pr1:rd1", reason="round rule rejects")
        assert escape.step == "pr1:rd1"
        assert escape.reason == "round rule rejects"
        assert "pr1:rd1" in str(escape)


class TestStaleEchoFrozenMidRun:
    def test_an_old_genuine_state_cannot_hide_a_newer_write(self):
        from repro.faults.byzantine import StaleEchoBehavior

        system = RegisterSystem(FastRegularProtocol(), t=1, n_readers=1)
        system.write("a", at=0)
        system.run()
        rogue = system.server(object_id(1))
        rogue.behavior = StaleEchoBehavior.freezing(rogue)
        system.write("b", at=10)
        system.read(1, at=80)
        system.run()
        # The rogue now echoes ("a"), an old-but-genuine state, yet the
        # read returns the fresh value.
        assert system.history().reads()[0].value == "b"


class TestLinearizationWitnessEdges:
    def test_pending_write_dropped_in_witness(self):
        from repro.spec.history import History, OperationRecord
        from repro.spec.linearizability import _candidate_operations, _search
        from repro.types import fresh_operation_id, reader_id, writer_id

        records = [
            OperationRecord(
                op_id=fresh_operation_id(writer_id(), "write"), kind="write",
                client=writer_id(), invoked_at=1, invocation_step=1,
                value="ghost", responded_at=None, response_step=None,
            ),
            OperationRecord(
                op_id=fresh_operation_id(reader_id(1), "read"), kind="read",
                client=reader_id(1), invoked_at=2, invocation_step=2,
                value=BOTTOM, responded_at=3, response_step=3,
            ),
        ]
        operations = _candidate_operations(History(records))
        order = _search(operations)
        assert order is not None
        # The read of ⊥ must come before any installation of the pending
        # write (which may be dropped entirely or linearized afterwards).
        kinds = [operations[i].kind for i in order]
        assert kinds[0] == "read"
        assert kinds in (["read"], ["read", "write"])


class TestScriptedRunAgainstEventLoopConsistency:
    def test_same_protocol_same_answers(self):
        """A sequential write→read gives identical results through the
        scripted engine and the event-loop simulator."""
        from repro.core.blocks import read_bound_partition
        from repro.core.runs import (
            Deliver,
            ScriptedRun,
            StartRead,
            StartWrite,
            TerminateRound,
        )
        from repro.registers.strawman import TwoRoundReadProtocol

        partition = read_bound_partition(t=1)
        runner = ScriptedRun(lambda: TwoRoundReadProtocol(write_rounds=2),
                             partition, t=1, n_readers=1)
        script = [StartWrite("write", "x")]
        for r in (1, 2):
            script += [Deliver("write", r, ("B1", "B2", "B3", "B4")),
                       TerminateRound("write", r)]
        script += [StartRead("rd", reader=1)]
        for r in (1, 2):
            script += [Deliver("rd", r, ("B1", "B2", "B3", "B4")),
                       TerminateRound("rd", r)]
        scripted = runner.execute("seq", script)

        system = RegisterSystem(TwoRoundReadProtocol(write_rounds=2), t=1, S=4, n_readers=1)
        system.write("x", at=0)
        system.read(1, at=60)
        system.run()
        event_loop_value = system.history().reads()[0].value

        assert scripted.returned("rd") == event_loop_value == "x"

"""Tests for the SWMR→MWMR transformation."""

import pytest

from repro.errors import ConfigurationError
from repro.faults.adversary import SilentBehavior
from repro.registers.fast_regular import FastRegularProtocol
from repro.registers.secret_token import SecretTokenProtocol
from repro.registers.transform_mwmr import MultiWriterRegisterSystem
from repro.spec.linearizability import is_linearizable
from repro.types import object_id


def make_system(t=1, n_writers=2, n_readers=1, behaviors=None, substrate=None):
    return MultiWriterRegisterSystem(
        substrate or (lambda: FastRegularProtocol()),
        t=t, n_writers=n_writers, n_readers=n_readers, behaviors=behaviors,
    )


class TestBasics:
    def test_write_then_read(self):
        system = make_system()
        system.write(1, "a", at=0)
        system.read(1, at=100)
        system.run()
        history = system.history()
        assert history.reads()[0].value == "a"
        assert is_linearizable(history)

    def test_two_writers_last_wins(self):
        system = make_system()
        system.write(1, "from-w1", at=0)
        system.write(2, "from-w2", at=200)
        system.read(1, at=400)
        system.run()
        assert system.history().reads()[0].value == "from-w2"

    def test_round_counts(self):
        """MWMR over the 4-round-read SWMR atomic: reads 4, writes 6."""
        system = make_system()
        system.write(1, "a", at=0)
        system.read(1, at=100)
        system.run()
        write_op = next(o for o in system.simulator.completed_operations()
                        if o.op_id.kind == "write")
        read_op = next(o for o in system.simulator.completed_operations()
                       if o.op_id.kind == "read")
        assert write_op.rounds_used == 6
        assert read_op.rounds_used == 4

    def test_token_substrate_shaves_a_round(self):
        system = make_system(substrate=lambda: SecretTokenProtocol())
        system.write(1, "a", at=0)
        system.read(1, at=100)
        system.run()
        read_op = next(o for o in system.simulator.completed_operations()
                       if o.op_id.kind == "read")
        assert read_op.rounds_used == 3


class TestConcurrency:
    def test_concurrent_writers_linearizable(self):
        system = make_system()
        system.write(1, "a", at=0)
        system.write(2, "b", at=2)
        system.read(1, at=150)
        system.run()
        history = system.history()
        assert is_linearizable(history)
        assert history.reads()[0].value in ("a", "b")

    def test_writer_timestamps_totally_ordered(self):
        system = make_system()
        system.write(1, "a", at=0)
        system.write(2, "b", at=200)
        system.write(1, "c", at=400)
        system.read(1, at=600)
        system.run()
        assert system.history().reads()[0].value == "c"
        assert is_linearizable(system.history())

    def test_tolerates_silent_byzantine(self):
        system = make_system(behaviors={object_id(1): SilentBehavior()})
        system.write(1, "a", at=0)
        system.write(2, "b", at=200)
        system.read(1, at=400)
        system.run()
        history = system.history()
        assert sum(r.complete for r in history.records) == 3
        assert is_linearizable(history)


class TestConfiguration:
    def test_writer_index_validated(self):
        system = make_system(n_writers=2)
        with pytest.raises(ConfigurationError):
            system.write(3, "x")

    def test_reader_index_validated(self):
        system = make_system(n_readers=1)
        with pytest.raises(ConfigurationError):
            system.read(2)

    def test_needs_a_writer(self):
        with pytest.raises(ConfigurationError):
            make_system(n_writers=0)

    def test_over_threshold_faults_rejected(self):
        with pytest.raises(ConfigurationError):
            make_system(t=1, behaviors={
                object_id(1): SilentBehavior(),
                object_id(2): SilentBehavior(),
            })

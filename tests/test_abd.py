"""Tests for the ABD register emulations (crash model baseline)."""

import pytest

from repro.errors import ConfigurationError
from repro.faults.adversary import CrashAt, SilentBehavior
from repro.registers.abd import AbdProtocol, MultiWriterAbdProtocol
from repro.registers.base import ProtocolContext, RegisterSystem
from repro.spec.atomicity import check_swmr_atomicity
from repro.spec.linearizability import is_linearizable
from repro.types import object_id, object_ids

from helpers import RandomDelivery


def make_system(t=1, n_readers=2, behaviors=None, policy=None):
    return RegisterSystem(
        AbdProtocol(), t=t, n_readers=n_readers, behaviors=behaviors, policy=policy
    )


class TestSequential:
    def test_read_after_write(self):
        system = make_system()
        system.write("a", at=0)
        system.read(1, at=50)
        system.run()
        history = system.history()
        assert history.reads()[0].value == "a"
        assert check_swmr_atomicity(history).ok

    def test_read_before_any_write_returns_bottom(self):
        from repro.types import BOTTOM

        system = make_system()
        system.read(1, at=0)
        system.run()
        assert system.history().reads()[0].value == BOTTOM

    def test_write_one_round_read_two_rounds(self):
        system = make_system()
        system.write("a", at=0)
        system.read(1, at=50)
        system.run()
        assert system.max_rounds("write") == 1
        assert system.max_rounds("read") == 2

    def test_monotone_timestamps_across_writes(self):
        system = make_system()
        for i, at in enumerate([0, 40, 80]):
            system.write(f"v{i}", at=at)
        system.read(1, at=150)
        system.run()
        assert system.history().reads()[0].value == "v2"

    def test_default_size_is_2t_plus_1(self):
        system = make_system(t=2)
        assert system.ctx.S == 5


class TestFaultTolerance:
    def test_tolerates_t_silent_objects(self):
        system = make_system(t=1, behaviors={object_id(3): SilentBehavior()})
        system.write("a", at=0)
        system.read(1, at=50)
        system.run()
        history = system.history()
        assert sum(r.complete for r in history.records) == 2
        assert check_swmr_atomicity(history).ok

    def test_tolerates_crash_during_run(self):
        system = make_system(t=2, behaviors={
            object_id(1): CrashAt(survive_messages=2),
            object_id(2): CrashAt(survive_messages=4),
        })
        for at in (0, 60, 120):
            system.write(f"v{at}", at=at)
            system.read(1, at=at + 30)
        system.run()
        history = system.history()
        assert sum(r.complete for r in history.records) == 6
        assert check_swmr_atomicity(history).ok

    def test_over_threshold_rejected_by_harness(self):
        with pytest.raises(ConfigurationError):
            make_system(t=1, behaviors={
                object_id(1): SilentBehavior(),
                object_id(2): SilentBehavior(),
            })


class TestConcurrency:
    @pytest.mark.parametrize("seed", range(5))
    def test_atomic_under_random_delays(self, seed):
        # Per-client operations stay sequential (the model allows one
        # outstanding op per client); different clients overlap freely.
        system = make_system(t=1, n_readers=3, policy=RandomDelivery(seed=seed, max_latency=15))
        system.write("a", at=0)
        system.read(1, at=5)
        system.write("b", at=150)
        system.read(2, at=152)
        system.read(3, at=154)
        system.write("c", at=300)
        system.read(1, at=305)
        system.run()
        history = system.history()
        assert check_swmr_atomicity(history).ok, check_swmr_atomicity(history).explanation

    def test_write_back_prevents_inversion(self):
        """Two sequential reads during write propagation stay monotone."""
        system = make_system(t=1, n_readers=2, policy=RandomDelivery(seed=42, max_latency=10))
        system.write("a", at=0)
        system.write("b", at=30)
        system.read(1, at=32)
        system.read(2, at=55)
        system.run()
        assert check_swmr_atomicity(system.history()).ok


class TestMultiWriterAbd:
    def test_two_round_writes(self):
        protocol = MultiWriterAbdProtocol()
        system = RegisterSystem(protocol, t=1, n_readers=2)
        system.write("a", at=0)
        system.read(1, at=50)
        system.run()
        assert system.max_rounds("write") == 2
        assert system.history().reads()[0].value == "a"

    def test_interleaved_writers_linearizable(self):
        from repro.registers.base import ProtocolContext
        from repro.sim.simulator import Simulator
        from repro.sim.process import ObjectServer
        from repro.spec.history import HistoryRecorder
        from repro.types import ProcessId, reader_id

        protocol = MultiWriterAbdProtocol()
        ctx = ProtocolContext(S=3, t=1, objects=object_ids(3))
        servers = [ObjectServer(pid=pid, handler=protocol.object_handler()) for pid in ctx.objects]
        recorder = HistoryRecorder()
        sim = Simulator(servers, history=recorder)
        for index, at in ((1, 0), (2, 3)):
            sim.invoke(
                ProcessId("writer", index), "write",
                protocol.write_generator_for(ctx, index, f"w{index}"),
                at=at, declared_value=f"w{index}",
            )
        sim.invoke(reader_id(1), "read", protocol.read_generator(ctx, reader_id(1)), at=40)
        sim.run()
        history = recorder.freeze()
        assert is_linearizable(history)
        assert history.reads()[0].value in ("w1", "w2")

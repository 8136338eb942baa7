"""Tests for the lucky (best-case fast) atomic register."""

import pytest

from repro.faults.adversary import SilentBehavior
from repro.faults.byzantine import StaleEchoBehavior
from repro.registers.base import RegisterSystem
from repro.registers.lucky import LuckyAtomicProtocol
from repro.spec.atomicity import check_swmr_atomicity
from repro.types import object_id

from helpers import RandomDelivery


def make_system(t=1, behaviors=None, policy=None, n_readers=2):
    return RegisterSystem(LuckyAtomicProtocol(), t=t, n_readers=n_readers,
                          behaviors=behaviors, policy=policy)


class TestLuckyPaths:
    def test_fault_free_reads_and_writes_take_one_round(self):
        system = make_system()
        system.write("a", at=0)
        system.read(1, at=60)
        system.run()
        assert system.max_rounds("write") == 1
        assert system.max_rounds("read") == 1
        assert system.history().reads()[0].value == "a"

    def test_one_silent_object_forces_slow_path(self):
        """The best-case cliff: a single fault ends the luck."""
        system = make_system(behaviors={object_id(3): SilentBehavior()})
        system.write("a", at=0)
        system.read(1, at=60)
        system.run()
        assert system.max_rounds("write") == 2
        assert system.max_rounds("read") == 3
        assert system.history().reads()[0].value == "a"

    def test_divergent_byzantine_forces_slow_read(self):
        system = make_system()
        system.write("a", at=0)
        system.run()
        rogue = system.server(object_id(2))
        rogue.behavior = StaleEchoBehavior(frozen_state={})  # echoes pristine ⊥
        system.read(1, at=10)
        system.run()
        read_op = [o for o in system.simulator.completed_operations()
                   if o.op_id.kind == "read"][0]
        assert read_op.rounds_used == 3
        assert read_op.result == "a"


class TestLuckyAtomicity:
    def test_sequential_chain_atomic(self):
        system = make_system()
        system.write("a", at=0)
        system.read(1, at=50)
        system.write("b", at=100)
        system.read(2, at=150)
        system.read(1, at=200)
        system.run()
        history = system.history()
        assert [r.value for r in history.reads()] == ["a", "b", "b"]
        assert check_swmr_atomicity(history).ok

    @pytest.mark.parametrize("seed", range(4))
    def test_atomic_under_random_delays(self, seed):
        system = make_system(policy=RandomDelivery(seed=seed, max_latency=7), n_readers=3)
        system.write("a", at=0)
        system.read(1, at=4)
        system.write("b", at=60)
        system.read(2, at=63)
        system.read(3, at=120)
        system.run()
        verdict = check_swmr_atomicity(system.history())
        assert verdict.ok, verdict.explanation

    @pytest.mark.parametrize("seed", range(3))
    def test_atomic_with_stale_byzantine_and_delays(self, seed):
        system = make_system(policy=RandomDelivery(seed=seed, max_latency=6))
        rogue = system.server(object_id(1))
        rogue.behavior = StaleEchoBehavior(frozen_state={})
        system.write("a", at=0)
        system.read(1, at=5)
        system.write("b", at=70)
        system.read(2, at=74)
        system.run()
        verdict = check_swmr_atomicity(system.history())
        assert verdict.ok, verdict.explanation

    def test_unlucky_write_still_readable(self):
        """A write that fast-fails still installs its value durably."""
        system = make_system(behaviors={object_id(4): SilentBehavior()})
        system.write("a", at=0)
        system.write("b", at=80)
        system.read(1, at=160)
        system.run()
        assert system.history().reads()[0].value == "b"


class TestGracefulDegradation:
    def test_round_ladder(self):
        """The [16]-style ladder: 1 round lucky, 3 rounds under faults."""
        lucky = make_system()
        lucky.write("a", at=0)
        lucky.read(1, at=60)
        lucky.run()
        unlucky = make_system(behaviors={object_id(1): SilentBehavior()})
        unlucky.write("a", at=0)
        unlucky.read(1, at=60)
        unlucky.run()
        assert lucky.max_rounds("read") == 1
        assert unlucky.max_rounds("read") == 3
        assert lucky.max_rounds("write") == 1
        assert unlucky.max_rounds("write") == 2

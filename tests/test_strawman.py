"""Tests for the strawman victims: plausible in benign runs, doomed by design."""

import pytest

from repro.errors import ConfigurationError
from repro.faults.adversary import SilentBehavior
from repro.registers.base import RegisterSystem
from repro.registers.strawman import ThreeRoundReadProtocol, TwoRoundReadProtocol
from repro.spec.atomicity import check_swmr_atomicity
from repro.types import object_id

from helpers import RandomDelivery


class TestTwoRoundRead:
    def test_round_counts(self):
        system = RegisterSystem(TwoRoundReadProtocol(write_rounds=3), t=1, S=4)
        system.write("a", at=0)
        system.read(1, at=60)
        system.run()
        assert system.max_rounds("write") == 3
        assert system.max_rounds("read") == 2

    def test_atomic_in_benign_runs(self):
        system = RegisterSystem(TwoRoundReadProtocol(), t=1, S=4, n_readers=3,
                                policy=RandomDelivery(seed=5, max_latency=6))
        system.write("a", at=0)
        system.read(1, at=3)
        system.write("b", at=40)
        system.read(2, at=42)
        system.read(3, at=100)
        system.run()
        verdict = check_swmr_atomicity(system.history())
        assert verdict.ok, verdict.explanation

    def test_atomic_with_silent_fault(self):
        system = RegisterSystem(TwoRoundReadProtocol(), t=1, S=4,
                                behaviors={object_id(4): SilentBehavior()})
        system.write("a", at=0)
        system.read(1, at=50)
        system.run()
        assert check_swmr_atomicity(system.history()).ok

    def test_phase_counter_distinguishes_write_rounds(self):
        """σ_i states must be pairwise distinct even with one written value."""
        system = RegisterSystem(TwoRoundReadProtocol(write_rounds=3), t=1, S=4)
        system.write("a", at=0)
        system.run()
        assert system.server(object_id(1)).state["phase"] == 3

    def test_runs_at_4t_objects(self):
        system = RegisterSystem(TwoRoundReadProtocol(), t=2, S=8)
        system.write("a", at=0)
        system.read(1, at=50)
        system.run()
        assert system.history().reads()[0].value == "a"

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            TwoRoundReadProtocol(write_rounds=0)
        with pytest.raises(ConfigurationError):
            RegisterSystem(TwoRoundReadProtocol(), t=1, S=3)
        with pytest.raises(ConfigurationError):
            RegisterSystem(TwoRoundReadProtocol(), t=0, S=4)


class TestThreeRoundRead:
    def test_round_counts(self):
        system = RegisterSystem(ThreeRoundReadProtocol(write_rounds=2), t=1)
        system.write("a", at=0)
        system.read(1, at=60)
        system.run()
        assert system.max_rounds("write") == 2
        assert system.max_rounds("read") == 3

    def test_atomic_in_benign_runs(self):
        system = RegisterSystem(ThreeRoundReadProtocol(), t=1, n_readers=2,
                                policy=RandomDelivery(seed=9, max_latency=5))
        system.write("a", at=0)
        system.read(1, at=4)
        system.write("b", at=50)
        system.read(2, at=52)
        system.run()
        verdict = check_swmr_atomicity(system.history())
        assert verdict.ok, verdict.explanation

    def test_write_back_in_third_round(self):
        system = RegisterSystem(ThreeRoundReadProtocol(), t=1)
        system.write("a", at=0)
        system.read(1, at=60)
        system.run()
        write_backs = [s.state["wb"].value for s in system.servers if s.state["wb"].value != "⊥"]
        assert write_backs and all(v == "a" for v in write_backs)

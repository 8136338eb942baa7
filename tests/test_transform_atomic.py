"""Tests for the regular→atomic transformation — the paper's Section 5.

These are the headline upper-bound checks of the reproduction: the
transformation over the GV06-style substrate must give 2-round writes and
4-round reads; over the secret-token substrate, 3-round reads — and both
must pass the full atomicity checker under faults and concurrency.
"""

import pytest

from repro.errors import ConfigurationError
from repro.faults.adversary import SilentBehavior
from repro.faults.byzantine import FabricatingBehavior, StaleEchoBehavior
from repro.registers.base import RegisterSystem
from repro.registers.fast_regular import FastRegularProtocol
from repro.registers.secret_token import SecretTokenProtocol
from repro.registers.transform_atomic import RegularToAtomicProtocol
from repro.spec.atomicity import check_swmr_atomicity
from repro.types import object_id

from helpers import RandomDelivery


def gv_system(t=1, n_readers=2, behaviors=None, policy=None, trust_model="replay"):
    protocol = RegularToAtomicProtocol(
        lambda: FastRegularProtocol(trust_model=trust_model), n_readers=n_readers
    )
    return RegisterSystem(protocol, t=t, n_readers=n_readers,
                          behaviors=behaviors, policy=policy)


def token_system(t=1, n_readers=2, behaviors=None, policy=None):
    protocol = RegularToAtomicProtocol(lambda: SecretTokenProtocol(), n_readers=n_readers)
    return RegisterSystem(protocol, t=t, n_readers=n_readers,
                          behaviors=behaviors, policy=policy)


class TestRoundComplexity:
    def test_gv_substrate_2w_4r(self):
        """The paper's matching implementation: 2-round writes, 4-round reads."""
        system = gv_system()
        system.write("a", at=0)
        system.read(1, at=60)
        system.run()
        assert system.max_rounds("write") == 2
        assert system.max_rounds("read") == 4

    def test_token_substrate_2w_3r(self):
        """The secret-value model optimum: 2-round writes, 3-round reads."""
        system = token_system()
        system.write("a", at=0)
        system.read(1, at=60)
        system.run()
        assert system.max_rounds("write") == 2
        assert system.max_rounds("read") == 3

    def test_round_counts_stable_under_silent_fault(self):
        system = gv_system(behaviors={object_id(1): SilentBehavior()})
        system.write("a", at=0)
        system.read(1, at=60)
        system.read(2, at=120)
        system.run()
        assert system.max_rounds("read") == 4
        assert sum(r.complete for r in system.history().records) == 3

    def test_advertised_rounds_match_measured(self):
        protocol = RegularToAtomicProtocol(lambda: FastRegularProtocol(), n_readers=2)
        assert protocol.write_rounds == 2
        assert protocol.read_rounds == 4
        token = RegularToAtomicProtocol(lambda: SecretTokenProtocol(), n_readers=2)
        assert token.read_rounds == 3


class TestAtomicity:
    def test_sequential_chain(self):
        system = gv_system()
        system.write("a", at=0)
        system.read(1, at=60)
        system.write("b", at=120)
        system.read(2, at=180)
        system.read(1, at=240)
        system.run()
        history = system.history()
        assert [r.value for r in history.reads()] == ["a", "b", "b"]
        assert check_swmr_atomicity(history).ok

    @pytest.mark.parametrize("seed", range(4))
    def test_atomic_under_random_delays(self, seed):
        system = gv_system(policy=RandomDelivery(seed=seed, max_latency=6), n_readers=3)
        system.write("a", at=0)
        system.read(1, at=5)
        system.write("b", at=60)
        system.read(2, at=63)
        system.read(3, at=66)
        system.read(1, at=160)
        system.run()
        verdict = check_swmr_atomicity(system.history())
        assert verdict.ok, verdict.explanation

    def test_read_monotonicity_via_write_back(self):
        """The R+1-register write-back is what forbids new/old inversion."""
        system = gv_system(n_readers=2, policy=RandomDelivery(seed=11, max_latency=9))
        system.write("a", at=0)
        system.write("b", at=50)
        system.read(1, at=52)   # may see a or b
        system.read(2, at=110)  # succeeds rd1: must not see older than rd1
        system.run()
        assert check_swmr_atomicity(system.history()).ok

    def test_atomic_with_stale_echo_byzantine(self):
        system = gv_system(t=1)
        server = system.server(object_id(2))
        server.behavior = StaleEchoBehavior.freezing(server)
        system.write("a", at=0)
        system.read(1, at=60)
        system.write("b", at=120)
        system.read(2, at=180)
        system.run()
        history = system.history()
        assert [r.value for r in history.reads()] == ["a", "b"]
        assert check_swmr_atomicity(history).ok

    def test_token_substrate_atomic_with_fabricator(self):
        system = token_system(behaviors={object_id(3): FabricatingBehavior()})
        system.write("a", at=0)
        system.read(1, at=60)
        system.read(2, at=120)
        system.run()
        history = system.history()
        assert [r.value for r in history.reads()] == ["a", "a"]
        assert check_swmr_atomicity(history).ok


class TestConfiguration:
    def test_needs_at_least_one_reader(self):
        with pytest.raises(ConfigurationError):
            RegularToAtomicProtocol(lambda: FastRegularProtocol(), n_readers=0)

    def test_unknown_reader_rejected_at_read(self):
        system = gv_system(n_readers=2)
        with pytest.raises(ConfigurationError):
            system.read(5)

    def test_register_per_reader_plus_writer(self):
        protocol = RegularToAtomicProtocol(lambda: FastRegularProtocol(), n_readers=3)
        assert set(protocol._registers) == {"W", "R1", "R2", "R3"}

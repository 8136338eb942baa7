"""Tests for the GV06-style fast regular register."""

import pytest

from repro.errors import ConfigurationError
from repro.faults.adversary import SilentBehavior
from repro.faults.byzantine import FabricatingBehavior, StaleEchoBehavior
from repro.registers.base import RegisterSystem
from repro.registers.fast_regular import FastRegularProtocol
from repro.spec.regularity import check_swmr_regularity
from repro.types import object_id

from helpers import RandomDelivery


def make_system(trust_model="replay", t=1, behaviors=None, policy=None, n_readers=2):
    return RegisterSystem(
        FastRegularProtocol(trust_model=trust_model),
        t=t, n_readers=n_readers, behaviors=behaviors, policy=policy,
    )


class TestConfiguration:
    def test_requires_3t_plus_1(self):
        with pytest.raises(ConfigurationError):
            RegisterSystem(FastRegularProtocol(), t=1, S=3)

    def test_trust_model_validated(self):
        with pytest.raises(ConfigurationError):
            FastRegularProtocol(trust_model="psychic")

    def test_advertised_rounds(self):
        protocol = FastRegularProtocol()
        assert protocol.write_rounds == 2
        assert protocol.read_rounds == 2


class TestRoundComplexity:
    @pytest.mark.parametrize("trust_model", ["replay", "unauthenticated"])
    def test_two_round_writes_and_reads(self, trust_model):
        system = make_system(trust_model)
        system.write("a", at=0)
        system.read(1, at=50)
        system.run()
        assert system.max_rounds("write") == 2
        assert system.max_rounds("read") == 2

    def test_two_rounds_even_with_silent_byzantine(self):
        system = make_system("replay", behaviors={object_id(4): SilentBehavior()})
        system.write("a", at=0)
        system.read(1, at=50)
        system.run()
        assert system.max_rounds("read") == 2
        assert sum(r.complete for r in system.history().records) == 2


class TestRegularitySequential:
    @pytest.mark.parametrize("trust_model", ["replay", "unauthenticated"])
    def test_fresh_read_after_write(self, trust_model):
        system = make_system(trust_model)
        system.write("a", at=0)
        system.write("b", at=60)
        system.read(1, at=120)
        system.run()
        history = system.history()
        assert history.reads()[0].value == "b"
        assert check_swmr_regularity(history).ok


class TestReplayAdversary:
    """The adversary class of the paper's proofs: genuine-state replay."""

    def test_stale_echo_cannot_stale_a_read(self):
        system = make_system("replay", t=1)
        # Freeze object 1 at its pristine state: it echoes ⊥ forever.
        server = system.server(object_id(1))
        server.behavior = StaleEchoBehavior.freezing(server)
        system.write("a", at=0)
        system.read(1, at=50)
        system.write("b", at=100)
        system.read(2, at=160)
        system.run()
        history = system.history()
        assert [r.value for r in history.reads()] == ["a", "b"]
        assert check_swmr_regularity(history).ok

    def test_stale_echo_of_intermediate_state(self):
        system = make_system("replay", t=1)
        system.write("a", at=0)
        system.run()
        server = system.server(object_id(2))
        server.behavior = StaleEchoBehavior.freezing(server)  # frozen at "a"
        system.write("b", at=10)
        system.read(1, at=60)
        system.run()
        assert system.history().reads()[0].value == "b"

    @pytest.mark.parametrize("seed", range(4))
    def test_regular_under_random_delays_and_replay(self, seed):
        system = make_system("replay", t=1, policy=RandomDelivery(seed=seed, max_latency=8))
        server = system.server(object_id(3))
        server.behavior = StaleEchoBehavior.freezing(server)
        system.write("a", at=0)
        system.read(1, at=4)
        system.write("b", at=40)
        system.read(2, at=44)
        system.read(1, at=90)
        system.run()
        verdict = check_swmr_regularity(system.history())
        assert verdict.ok, verdict.explanation


class TestFabricationAdversary:
    """Unauthenticated mode: forged sky-high timestamps must not win."""

    def test_fabricated_value_never_returned(self):
        system = make_system("unauthenticated", t=1,
                             behaviors={object_id(1): FabricatingBehavior()})
        system.write("a", at=0)
        system.read(1, at=50)
        system.run()
        history = system.history()
        assert history.reads()[0].value == "a"
        assert check_swmr_regularity(history).ok

    def test_fabrication_against_replay_mode_is_the_known_gap(self):
        """Replay mode trusts max-report: fabrication DOES poison it.

        This documents the trust-model split of DESIGN.md §2.2: replay mode
        is for the proofs' adversary class; fabrication resistance requires
        the unauthenticated mode (or secret tokens).
        """
        system = make_system("replay", t=1,
                             behaviors={object_id(1): FabricatingBehavior()})
        system.write("a", at=0)
        system.read(1, at=50)
        system.run()
        assert system.history().reads()[0].value == "<fabricated>"

    def test_certification_pools_across_rounds(self):
        system = make_system("unauthenticated", t=2,
                             behaviors={
                                 object_id(1): FabricatingBehavior(),
                                 object_id(2): SilentBehavior(),
                             })
        system.write("a", at=0)
        system.write("b", at=60)
        system.read(1, at=120)
        system.run()
        assert system.history().reads()[0].value == "b"


class TestReaderWriteBack:
    def test_read_deposits_candidate_at_objects(self):
        system = make_system("replay")
        system.write("a", at=0)
        system.read(1, at=50)
        system.run()
        deposited = [
            server.state["rb"].get("r1")
            for server in system.servers
            if server.state["rb"]
        ]
        assert deposited, "round two should write the candidate back"
        assert all(tv.value == "a" for tv in deposited)

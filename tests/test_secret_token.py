"""Tests for the secret-token regular register (DMSS09-style)."""

import pytest

from repro.faults.adversary import SilentBehavior
from repro.faults.byzantine import FabricatingBehavior, StaleEchoBehavior
from repro.registers.base import RegisterSystem
from repro.registers.secret_token import SecretTokenProtocol, TokenAuthority
from repro.spec.regularity import check_swmr_regularity
from repro.types import TaggedValue, Timestamp, object_id

from helpers import RandomDelivery


def make_system(t=1, behaviors=None, policy=None):
    return RegisterSystem(SecretTokenProtocol(), t=t, n_readers=2,
                          behaviors=behaviors, policy=policy)


class TestTokenAuthority:
    def test_issue_verify_round_trip(self):
        authority = TokenAuthority()
        pair = TaggedValue(Timestamp(1), "a")
        token = authority.issue(pair)
        assert authority.verify(pair, token)

    def test_minted_tokens_are_unique(self):
        authority = TokenAuthority()
        pair = TaggedValue(Timestamp(1), "a")
        assert authority.issue(pair) != authority.issue(pair)

    def test_wrong_pair_fails_verification(self):
        authority = TokenAuthority()
        token = authority.issue(TaggedValue(Timestamp(1), "a"))
        assert not authority.verify(TaggedValue(Timestamp(2), "a"), token)
        assert not authority.verify(TaggedValue(Timestamp(1), "b"), token)

    def test_unissued_token_fails(self):
        authority = TokenAuthority()
        assert not authority.verify(TaggedValue(Timestamp(1), "a"), "tok-999")


class TestRoundComplexity:
    def test_one_round_reads_two_round_writes(self):
        system = make_system()
        system.write("a", at=0)
        system.read(1, at=50)
        system.run()
        assert system.max_rounds("write") == 2
        assert system.max_rounds("read") == 1

    def test_one_round_reads_with_silent_byzantine(self):
        system = make_system(behaviors={object_id(2): SilentBehavior()})
        system.write("a", at=0)
        system.read(1, at=50)
        system.run()
        assert system.max_rounds("read") == 1
        assert system.history().reads()[0].value == "a"


class TestUnforgeability:
    def test_fabricated_pairs_are_ignored(self):
        """The oracle denies the adversary exactly what secrets deny it."""
        system = make_system(behaviors={object_id(1): FabricatingBehavior()})
        system.write("a", at=0)
        system.read(1, at=50)
        system.run()
        assert system.history().reads()[0].value == "a"

    def test_replayed_genuine_pairs_are_accepted_but_not_fresh(self):
        system = make_system()
        system.write("a", at=0)
        system.run()
        server = system.server(object_id(3))
        server.behavior = StaleEchoBehavior.freezing(server)  # replays ("a", token-a)
        system.write("b", at=10)
        system.read(1, at=60)
        system.run()
        # The replayed pair verifies (it is genuine) but loses to the
        # fresher verified report from a correct object.
        assert system.history().reads()[0].value == "b"

    def test_fabricator_with_max_timestamp_loses(self):
        def forge(message, honest):
            return {
                "pw": TaggedValue(Timestamp(10**9), "evil"),
                "pw_token": "tok-1",  # guessing a real token id for a wrong pair
                "w": TaggedValue(Timestamp(10**9), "evil"),
                "w_token": "tok-1",
            }

        system = make_system(behaviors={object_id(1): FabricatingBehavior(forge)})
        system.write("a", at=0)
        system.read(1, at=50)
        system.run()
        assert system.history().reads()[0].value == "a"


class TestRegularity:
    @pytest.mark.parametrize("seed", range(4))
    def test_regular_under_random_delays(self, seed):
        system = make_system(t=1, policy=RandomDelivery(seed=seed, max_latency=8))
        system.write("a", at=0)
        system.read(1, at=3)
        system.write("b", at=40)
        system.read(2, at=43)
        system.read(1, at=90)
        system.run()
        verdict = check_swmr_regularity(system.history())
        assert verdict.ok, verdict.explanation

    def test_initial_bottom_needs_no_token(self):
        from repro.types import BOTTOM

        system = make_system()
        system.read(1, at=0)
        system.run()
        assert system.history().reads()[0].value == BOTTOM

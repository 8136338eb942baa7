"""Tests for the bounded-regular register (AAB07-style O(t) reads)."""

import pytest

from repro.faults.adversary import SilentBehavior
from repro.faults.byzantine import FabricatingBehavior
from repro.registers.base import RegisterSystem
from repro.registers.bounded_regular import BoundedRegularProtocol
from repro.spec.regularity import check_swmr_regularity
from repro.types import object_id

from helpers import RandomDelivery


def make_system(t=1, behaviors=None, policy=None):
    return RegisterSystem(BoundedRegularProtocol(), t=t, n_readers=2,
                          behaviors=behaviors, policy=policy)


class TestBounds:
    def test_read_round_bound_is_t_plus_2(self):
        protocol = BoundedRegularProtocol()
        assert protocol.read_round_bound(1) == 3
        assert protocol.read_round_bound(4) == 6

    def test_advertises_unbounded_static_rounds(self):
        assert BoundedRegularProtocol().read_rounds is None


class TestHappyPath:
    def test_clean_read_terminates_early(self):
        system = make_system()
        system.write("a", at=0)
        system.read(1, at=50)
        system.run()
        history = system.history()
        assert history.reads()[0].value == "a"
        # With every object agreeing, certification happens in round one.
        assert system.max_rounds("read") <= 2

    def test_never_exceeds_bound_under_faults(self):
        t = 2
        system = make_system(t=t, behaviors={
            object_id(1): FabricatingBehavior(),
            object_id(2): SilentBehavior(),
        })
        system.write("a", at=0)
        system.read(1, at=60)
        system.run()
        assert system.max_rounds("read") <= BoundedRegularProtocol().read_round_bound(t)
        assert system.history().reads()[0].value == "a"


class TestMultiRoundLoop:
    """Drive the read generator directly to exercise the voucher-pooling
    loop (hard to trigger through the simulator's benign schedules)."""

    @staticmethod
    def _drive(reply_rounds):
        from repro.registers.base import ProtocolContext
        from repro.sim.rounds import RoundOutcome
        from repro.types import object_ids, reader_id

        protocol = BoundedRegularProtocol()
        ctx = ProtocolContext(S=7, t=2, objects=object_ids(7))
        generator = protocol.read_tagged_generator(ctx, reader_id(1))
        spec = next(generator)
        rounds_used = 1
        try:
            for replies in reply_rounds:
                spec = generator.send(RoundOutcome(round_no=rounds_used, replies=replies))
                rounds_used += 1
        except StopIteration as stop:
            return stop.value, rounds_used
        raise AssertionError(f"generator still pending after {rounds_used} rounds")

    @staticmethod
    def _reply(pw_ts, w_ts, value="v"):
        from repro.types import TaggedValue, Timestamp

        return {
            "pw": TaggedValue(Timestamp(pw_ts), value if pw_ts else "⊥"),
            "w": TaggedValue(Timestamp(w_ts), value if w_ts else "⊥"),
        }

    def test_second_round_certifies(self):
        from repro.types import object_id

        # Round one: no pair reaches t+1 = 3 vouchers (2+2+1 split); round
        # two brings a third voucher for (1, v): certified and stable.
        round1 = {
            object_id(1): self._reply(1, 1),
            object_id(2): self._reply(1, 1),
            object_id(3): self._reply(0, 0),
            object_id(4): self._reply(0, 0),
            object_id(5): self._reply(2, 0, value="z"),
        }
        round2 = dict(round1)
        round2[object_id(6)] = self._reply(1, 1)
        result, rounds_used = self._drive([round1, round2])
        assert result.value == "v"
        assert rounds_used == 2

    def test_round_budget_exhausted_returns_best_effort(self):
        from repro.types import object_id

        # Never enough agreement (2+2+1 forever): the loop must stop at the
        # t+2 bound and fall back to the freshest report.
        stuck = {
            object_id(1): self._reply(1, 1),
            object_id(2): self._reply(1, 1),
            object_id(3): self._reply(0, 0),
            object_id(4): self._reply(0, 0),
            object_id(5): self._reply(2, 2, value="z"),
        }
        bound = BoundedRegularProtocol().read_round_bound(2)
        result, rounds_used = self._drive([stuck] * bound)
        assert rounds_used == bound
        assert result.value == "z"

    def test_unstable_certified_keeps_looping(self):
        from repro.types import object_id

        # (1, v) is certified but three objects each claim something newer
        # (three *different* pairs, so nothing newer certifies): the
        # stability guard must reject and ask for another round.
        shaky = {
            object_id(1): self._reply(1, 1),
            object_id(2): self._reply(1, 1),
            object_id(3): self._reply(1, 1),
            object_id(4): self._reply(9, 0, value="w9"),
            object_id(5): self._reply(8, 0, value="w8"),
            object_id(6): self._reply(7, 0, value="w7"),
        }
        settled = {
            object_id(4): self._reply(9, 9, value="w9"),
            object_id(5): self._reply(9, 9, value="w9"),
            object_id(6): self._reply(9, 9, value="w9"),
            object_id(7): self._reply(9, 9, value="w9"),
            object_id(1): self._reply(1, 1),
        }
        result, rounds_used = self._drive([shaky, settled])
        assert rounds_used == 2
        assert result.value == "w9"


class TestRegularity:
    def test_fabrication_never_certified(self):
        system = make_system(t=1, behaviors={object_id(4): FabricatingBehavior()})
        system.write("a", at=0)
        system.write("b", at=60)
        system.read(1, at=120)
        system.run()
        history = system.history()
        assert history.reads()[0].value == "b"
        assert check_swmr_regularity(history).ok

    @pytest.mark.parametrize("seed", range(3))
    def test_regular_under_random_delays(self, seed):
        system = make_system(t=1, policy=RandomDelivery(seed=seed, max_latency=6))
        system.write("a", at=0)
        system.read(1, at=5)
        system.write("b", at=50)
        system.read(2, at=55)
        system.run()
        verdict = check_swmr_regularity(system.history())
        assert verdict.ok, verdict.explanation

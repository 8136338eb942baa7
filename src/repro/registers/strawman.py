"""Strawman protocols: concrete victims for the lower-bound constructions.

The paper's lower bounds are universal — they defeat *every* protocol in
their round/resilience class.  To make the proofs executable this module
supplies concrete members of those classes:

* :class:`TwoRoundReadProtocol` — the class of Proposition 1: an SWMR
  "atomic" register on ``S ≤ 4t`` objects whose writes take a configurable
  ``k`` rounds and whose reads take exactly two rounds (query, then
  write-back + confirm).  In benign and crash-only runs it passes every
  atomicity check; the read-lower-bound construction produces the schedule
  and forgery pattern under which it must fail.
* :class:`ThreeRoundReadProtocol` — the class of Lemma 1/Proposition 2:
  three-round reads (two query rounds, then write-back + confirm) with
  ``k``-round writes on ``3t + 1`` objects, defeated by the write-bound
  construction whenever ``k ≤ ⌊log(⌈(3t+1)/2⌉)⌋``.

Both protocols use the ABD-style selection — return the highest *reported*
pair in ``w`` / ``wb`` (:func:`~repro.registers.timestamps.freshest_report`)
and write it back — which is atomic in crash-only runs (quorum
intersection plus write-backs) and is what keeps the proofs' "by atomicity
the read returns 1" chain alive as write steps are deleted.  A
certified-first selection (``t + 1`` identical vouchers) would resist value
fabrication but returns *stale* values in exactly the partial runs the
constructions build, violating atomicity even earlier; the construction
handles such victims through its early-violation path
(``tests/test_read_bound.py`` builds one from
:func:`~repro.registers.timestamps.certified_max`).

Writes repeat their store round ``k`` times.  Objects track, besides the
stored pair, the highest write phase they have seen — the per-phase states
``σ_0 … σ_k`` of the proofs are therefore pairwise distinct even though the
written value never changes, exactly as the constructions require.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.api.registry import register_protocol
from repro.errors import ConfigurationError
from repro.registers.base import ProtocolContext, RegisterProtocol
from repro.registers.timestamps import freshest_report
from repro.sim.network import Message
from repro.sim.process import ObjectHandler
from repro.sim.rounds import ReplyRule, RoundSpec
from repro.sim.simulator import ProtocolGenerator
from repro.types import ProcessId, TaggedValue, Timestamp

SM_STORE = "SM_STORE"
SM_QUERY = "SM_QUERY"
SM_WRITE_BACK = "SM_WRITE_BACK"


class StrawmanObjectHandler(ObjectHandler):
    """State: highest pair seen (write or write-back) plus write phase."""

    def initial_state(self) -> dict[str, Any]:
        return {"w": TaggedValue.initial(), "phase": 0, "wb": TaggedValue.initial()}

    def handle(self, state: dict[str, Any], message: Message) -> Mapping[str, Any]:
        if message.tag == SM_STORE:
            incoming = message.payload["tv"]
            phase = int(message.payload["phase"])
            if incoming.ts > state["w"].ts:
                state["w"] = incoming
            if phase > state["phase"]:
                state["phase"] = phase
            return {"ack": True}
        if message.tag == SM_QUERY:
            return {"w": state["w"], "wb": state["wb"], "phase": state["phase"]}
        if message.tag == SM_WRITE_BACK:
            incoming = message.payload["tv"]
            if incoming.ts > state["wb"].ts:
                state["wb"] = incoming
            return {"w": state["w"], "wb": state["wb"], "phase": state["phase"]}
        return {"error": f"unknown tag {message.tag}"}


class _StrawmanBase(RegisterProtocol):
    """Shared write path and configuration of the two strawmen."""

    def __init__(self, write_rounds: int = 2) -> None:
        if write_rounds < 1:
            raise ConfigurationError("writes need at least one round")
        self.write_rounds = write_rounds
        self._write_ts = Timestamp.zero()

    def object_handler(self) -> ObjectHandler:
        return StrawmanObjectHandler()

    def write_generator(self, ctx: ProtocolContext, value: Any) -> ProtocolGenerator:
        self._write_ts = self._write_ts.next_for()
        tv = TaggedValue(ts=self._write_ts, value=value)
        quorum = ctx.wait_quorum
        rounds = self.write_rounds

        def generator() -> ProtocolGenerator:
            for phase in range(1, rounds + 1):
                yield RoundSpec(
                    tag=SM_STORE,
                    payload={"tv": tv, "phase": phase},
                    rule=ReplyRule(min_count=quorum),
                )
            return value

        return generator()


@register_protocol(
    "strawman-2r",
    model="byzantine",
    semantics="atomic",
    resilience="S ≥ 3t + 1",
    min_size=lambda t: 3 * t + 1,
    scenarios=("fault-free", "silent"),
    write_rounds=2,
    aliases=("strawman-2r-read",),
    description="claims atomicity with 2-round reads — Proposition 1's victim",
)
class TwoRoundReadProtocol(_StrawmanBase):
    """Two-round reads on up to ``4t`` objects — Proposition 1's victim."""

    name = "strawman-2r-read"
    read_rounds = 2

    def validate_configuration(self, S: int, t: int) -> None:
        if t < 1:
            raise ConfigurationError("the Byzantine strawman needs t >= 1")
        if S < 3 * t + 1:
            raise ConfigurationError(f"needs S >= 3t + 1 (got S={S}, t={t})")

    def read_generator(self, ctx: ProtocolContext, reader: ProcessId) -> ProtocolGenerator:
        quorum = ctx.wait_quorum

        def generator() -> ProtocolGenerator:
            first = yield RoundSpec(tag=SM_QUERY, payload={}, rule=ReplyRule(min_count=quorum))
            candidate = freshest_report([first.replies], fields=("w", "wb"))
            second = yield RoundSpec(
                tag=SM_WRITE_BACK,
                payload={"tv": candidate},
                rule=ReplyRule(min_count=quorum),
            )
            return freshest_report([first.replies, second.replies], fields=("w", "wb")).value

        return generator()


@register_protocol(
    "strawman-3r",
    model="byzantine",
    semantics="atomic",
    resilience="S ≥ 3t + 1",
    min_size=lambda t: 3 * t + 1,
    scenarios=("fault-free", "silent"),
    write_rounds=2,
    aliases=("strawman-3r-read",),
    description="claims atomicity with 3-round reads — Lemma 1's victim",
)
class ThreeRoundReadProtocol(_StrawmanBase):
    """Three-round reads on ``3t + 1`` objects — Lemma 1's victim."""

    name = "strawman-3r-read"
    read_rounds = 3

    def validate_configuration(self, S: int, t: int) -> None:
        if t < 1:
            raise ConfigurationError("the Byzantine strawman needs t >= 1")
        if S < 3 * t + 1:
            raise ConfigurationError(f"needs S >= 3t + 1 (got S={S}, t={t})")

    def read_generator(self, ctx: ProtocolContext, reader: ProcessId) -> ProtocolGenerator:
        quorum = ctx.wait_quorum

        def generator() -> ProtocolGenerator:
            first = yield RoundSpec(tag=SM_QUERY, payload={}, rule=ReplyRule(min_count=quorum))
            second = yield RoundSpec(tag=SM_QUERY, payload={}, rule=ReplyRule(min_count=quorum))
            candidate = freshest_report([first.replies, second.replies], fields=("w", "wb"))
            third = yield RoundSpec(
                tag=SM_WRITE_BACK,
                payload={"tv": candidate},
                rule=ReplyRule(min_count=quorum),
            )
            return freshest_report(
                [first.replies, second.replies, third.replies], fields=("w", "wb")
            ).value

        return generator()

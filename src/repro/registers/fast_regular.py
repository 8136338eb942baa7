"""GV06-style robust regular register: 2-round writes, 2-round reads.

This is the regular substrate the paper's Section 5 plugs into the
regular→atomic transformation to obtain the time-optimal 2-round-write /
4-round-read robust atomic storage.  Structure (see DESIGN.md §2.2 for the
reconstruction notes):

* **Writes** take two phases, *pre-write* then *write*, each awaiting
  ``S − t`` acks.  The pre-write round is what lets readers distinguish "a
  write reached some objects" from Byzantine fabrication: any value that
  completed its pre-write phase is stored by at least ``t + 1`` correct
  objects.
* **Reads** take two rounds.  Round one queries all objects; round two
  queries again *and writes back* the reader's current best candidate (the
  "readers must write" phenomenon of [Fan–Lynch 03]).  Selection pools the
  replies of both rounds.

Two trust modes cover the two adversary regimes this library exercises
(single-mode coverage of both at exactly two rounds is the standalone
contribution of [GV06] which we do not re-derive — see DESIGN.md):

* ``trust_model="replay"`` — Byzantine objects may replay any *genuine*
  protocol state (the exact adversary of the paper's lower-bound proofs) but
  cannot fabricate never-written values.  Selection returns the
  maximum-timestamp *reported* pair; freshness holds because any ``S − t``
  reply set contains at least one correct holder of the last complete write.
* ``trust_model="unauthenticated"`` — objects may fabricate arbitrary
  states.  Selection returns the maximum-timestamp *certified* pair (``t+1``
  identical reports), with round two accepting at network quiescence so that
  under schedules delivering all correct replies the last complete write is
  always certified.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.api.registry import register_protocol
from repro.errors import ConfigurationError
from repro.quorums.threshold import ByzantineThresholds
from repro.registers.base import ProtocolContext, RegisterProtocol
from repro.registers.timestamps import certified_max, freshest_report, pooled_voucher_counts
from repro.sim.network import Message
from repro.sim.process import ObjectHandler
from repro.sim.rounds import ReplyRule, RoundSpec
from repro.sim.simulator import ProtocolGenerator
from repro.types import ProcessId, TaggedValue, Timestamp

PRE_WRITE = "FR_PRE_WRITE"
WRITE = "FR_WRITE"
READ_ONE = "FR_READ1"
READ_TWO = "FR_READ2"

_TRUST_MODELS = ("replay", "unauthenticated")


class FastRegularObjectHandler(ObjectHandler):
    """Object state: pre-written and written pairs, plus reader write-backs."""

    def initial_state(self) -> dict[str, Any]:
        initial = TaggedValue.initial()
        return {"pw": initial, "w": initial, "rb": {}}

    def handle(self, state: dict[str, Any], message: Message) -> Mapping[str, Any]:
        if message.tag == PRE_WRITE:
            incoming = message.payload["tv"]
            if incoming.ts > state["pw"].ts:
                state["pw"] = incoming
            return {"ack": True}
        if message.tag == WRITE:
            incoming = message.payload["tv"]
            if incoming.ts > state["w"].ts:
                state["w"] = incoming
            return {"ack": True}
        if message.tag == READ_ONE:
            return {"pw": state["pw"], "w": state["w"]}
        if message.tag == READ_TWO:
            write_back = message.payload.get("wb")
            if isinstance(write_back, TaggedValue):
                previous = state["rb"].get(str(message.src), TaggedValue.initial())
                if write_back.ts > previous.ts:
                    state["rb"][str(message.src)] = write_back
            return {"pw": state["pw"], "w": state["w"]}
        return {"error": f"unknown tag {message.tag}"}


@register_protocol(
    "fast-regular",
    model="byzantine",
    semantics="regular",
    resilience="S ≥ 3t + 1",
    min_size=lambda t: 3 * t + 1,
    scenarios=("fault-free", "crash", "silent", "replay"),
    description="GV06-style robust regular register: 2-round writes, 2-round reads",
)
class FastRegularProtocol(RegisterProtocol):
    """SWMR regular register, Byzantine model, optimal resilience."""

    name = "fast-regular"
    write_rounds = 2
    read_rounds = 2

    def __init__(self, trust_model: str = "replay") -> None:
        if trust_model not in _TRUST_MODELS:
            raise ConfigurationError(
                f"trust_model must be one of {_TRUST_MODELS}, got {trust_model!r}"
            )
        self.trust_model = trust_model
        self._write_ts = Timestamp.zero()
        self.name = f"fast-regular[{trust_model}]"

    def validate_configuration(self, S: int, t: int) -> None:
        ByzantineThresholds(S=S, t=t)  # raises unless S >= 3t + 1

    def object_handler(self) -> ObjectHandler:
        return FastRegularObjectHandler()

    # ------------------------------------------------------------------ #
    # Write
    # ------------------------------------------------------------------ #

    def write_generator(self, ctx: ProtocolContext, value: Any) -> ProtocolGenerator:
        self._write_ts = self._write_ts.next_for()
        return self.write_generator_tagged(ctx, TaggedValue(ts=self._write_ts, value=value))

    def write_generator_tagged(self, ctx: ProtocolContext, tv: TaggedValue) -> ProtocolGenerator:
        """Write an explicit ``(ts, value)`` pair (used by the transforms)."""
        quorum = ctx.wait_quorum

        def generator() -> ProtocolGenerator:
            yield RoundSpec(tag=PRE_WRITE, payload={"tv": tv}, rule=ReplyRule(min_count=quorum))
            yield RoundSpec(tag=WRITE, payload={"tv": tv}, rule=ReplyRule(min_count=quorum))
            return tv.value

        return generator()

    # ------------------------------------------------------------------ #
    # Read
    # ------------------------------------------------------------------ #

    def read_generator(self, ctx: ProtocolContext, reader: ProcessId) -> ProtocolGenerator:
        tagged = self.read_tagged_generator(ctx, reader)

        def generator() -> ProtocolGenerator:
            result = yield from tagged
            return result.value

        return generator()

    def read_tagged_generator(self, ctx: ProtocolContext, reader: ProcessId) -> ProtocolGenerator:
        """Read returning the full ``(ts, value)`` pair (used by transforms)."""
        quorum = ctx.wait_quorum
        certify = ctx.certify
        trust_model = self.trust_model

        def select(reply_sets: list[dict]) -> TaggedValue:
            if trust_model == "replay":
                # Every report is genuine: freshest report wins.
                return freshest_report(reply_sets)
            # The uncertified fallback is reachable only under fabrication
            # combined with withheld correct replies *and* write
            # concurrency: best effort.
            return certified_max(pooled_voucher_counts(reply_sets, fields=("pw", "w")), certify)

        def generator() -> ProtocolGenerator:
            first = yield RoundSpec(tag=READ_ONE, payload={}, rule=ReplyRule(min_count=quorum))
            candidate = select([first.replies])

            def certified_fresh(replies: dict) -> bool:
                counts = pooled_voucher_counts([first.replies, replies], fields=("pw", "w"))
                return any(n >= certify for n in counts.values())

            second = yield RoundSpec(
                tag=READ_TWO,
                payload={"wb": candidate},
                rule=ReplyRule(
                    min_count=quorum,
                    predicate=None if trust_model == "replay" else certified_fresh,
                    accept_on_quiescence=True,
                ),
            )
            return select([first.replies, second.replies])

        return generator()

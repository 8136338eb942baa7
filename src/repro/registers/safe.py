"""Byzantine *safe* register over masking quorums (Malkhi–Reiter style).

The weakest rung of Lamport's hierarchy, included because the related work
the paper builds on is partly stated for safe storage ([Abraham et al. 06]'s
``t + 1``-round bound for reads that do not write).  With ``S ≥ 4t + 1``
objects, one-round writes and one-round reads suffice for safeness: any
``S − t`` reply set intersects the write quorum in at least ``S − 3t ≥ t+1``
*correct* holders, so for a read not concurrent with any write the last
written pair is always certified.

This register is also a didactic foil: run it at ``S = 3t + 1`` (it refuses)
or check it for regularity/atomicity (it fails under concurrency) to see why
the stronger protocols need their extra machinery.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.api.registry import register_protocol
from repro.errors import ConfigurationError
from repro.registers.base import ProtocolContext, RegisterProtocol
from repro.registers.timestamps import max_candidate, voucher_counts
from repro.sim.network import Message
from repro.sim.process import ObjectHandler
from repro.sim.rounds import ReplyRule, RoundSpec
from repro.sim.simulator import ProtocolGenerator
from repro.types import ProcessId, TaggedValue

SAFE_STORE = "SAFE_STORE"
SAFE_QUERY = "SAFE_QUERY"


class SafeObjectHandler(ObjectHandler):
    """Object state: a single monotone tagged value."""

    def initial_state(self) -> dict[str, Any]:
        return {"w": TaggedValue.initial()}

    def handle(self, state: dict[str, Any], message: Message) -> Mapping[str, Any]:
        if message.tag == SAFE_STORE:
            incoming = message.payload["tv"]
            if incoming.ts > state["w"].ts:
                state["w"] = incoming
            return {"ack": True}
        if message.tag == SAFE_QUERY:
            return {"w": state["w"]}
        return {"error": f"unknown tag {message.tag}"}


@register_protocol(
    "byz-safe",
    model="byzantine-masking",
    semantics="safe",
    resilience="S ≥ 4t + 1",
    min_size=lambda t: 4 * t + 1,
    scenarios=("fault-free", "crash", "silent", "replay", "fabricate"),
    description="Malkhi–Reiter-style safe register over masking quorums",
)
class ByzantineSafeProtocol(RegisterProtocol):
    """SWMR safe register: 1-round writes, 1-round reads, ``S ≥ 4t + 1``."""

    name = "byz-safe"
    write_rounds = 1
    read_rounds = 1

    def validate_configuration(self, S: int, t: int) -> None:
        if t < 0:
            raise ConfigurationError("t must be non-negative")
        if S < 4 * t + 1:
            raise ConfigurationError(
                f"masking-quorum safe storage needs S >= 4t + 1 (got S={S}, t={t})"
            )

    def object_handler(self) -> ObjectHandler:
        return SafeObjectHandler()

    def write_generator_tagged(self, ctx: ProtocolContext, tv: TaggedValue) -> ProtocolGenerator:
        quorum = ctx.wait_quorum

        def generator() -> ProtocolGenerator:
            yield RoundSpec(tag=SAFE_STORE, payload={"tv": tv}, rule=ReplyRule(min_count=quorum))
            return tv.value

        return generator()

    def read_tagged_generator(self, ctx: ProtocolContext, reader: ProcessId) -> ProtocolGenerator:
        quorum = ctx.wait_quorum
        certify = ctx.certify

        def generator() -> ProtocolGenerator:
            outcome = yield RoundSpec(tag=SAFE_QUERY, payload={}, rule=ReplyRule(min_count=quorum))
            counts = voucher_counts(outcome.replies, fields=("w",))
            certified = [pair for pair, n in counts.items() if n >= certify]
            return max_candidate(certified)

        return generator()

"""The ABD register emulation (Attiya, Bar-Noy, Dolev 1995).

The seminal crash-tolerant robust atomic SWMR register the paper's related
work opens with: majority quorums over ``S ≥ 2t + 1`` objects, **one-round
writes** and **two-round reads** (query + write-back).  Included both as the
classical baseline of the latency matrix (experiment E6) and as the
foundation of the strawman protocols the lower-bound constructions defeat
(crash-style quorum logic is exactly what becomes unsound under Byzantine
objects).

Also provides the standard multi-writer variant (two-round writes: query the
highest timestamp, then store with a larger one), which the paper's related
work cites as the classical MWMR round-complexity reference point.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.api.registry import register_protocol
from repro.quorums.threshold import CrashThresholds
from repro.registers.base import ProtocolContext, RegisterProtocol
from repro.sim.network import Message
from repro.sim.process import ObjectHandler
from repro.sim.rounds import ReplyRule, RoundSpec
from repro.sim.simulator import ProtocolGenerator
from repro.types import ProcessId, TaggedValue, Timestamp

#: Payload/tag vocabulary of the ABD family.
QUERY = "ABD_QUERY"
STORE = "ABD_STORE"


class AbdObjectHandler(ObjectHandler):
    """Object state: the highest-timestamped value seen so far."""

    def initial_state(self) -> dict[str, Any]:
        return {"tv": TaggedValue.initial()}

    def handle(self, state: dict[str, Any], message: Message) -> Mapping[str, Any]:
        if message.tag == STORE:
            incoming = message.payload["tv"]
            if incoming.ts > state["tv"].ts:
                state["tv"] = incoming
            return {"ack": True, "tv": state["tv"]}
        if message.tag == QUERY:
            return {"tv": state["tv"]}
        return {"error": f"unknown tag {message.tag}"}


@register_protocol(
    "abd",
    model="crash",
    semantics="atomic",
    resilience="S ≥ 2t + 1",
    min_size=lambda t: 2 * t + 1,
    scenarios=("fault-free", "crash", "silent"),
    description="classical crash-tolerant ABD: majority quorums, read write-backs",
)
class AbdProtocol(RegisterProtocol):
    """SWMR ABD: 1-round writes, 2-round reads, crash faults only."""

    name = "abd"
    write_rounds = 1
    read_rounds = 2

    def validate_configuration(self, S: int, t: int) -> None:
        # Raises ConfigurationError unless S >= 2t + 1.
        CrashThresholds(S=S, t=t)

    def object_handler(self) -> ObjectHandler:
        return AbdObjectHandler()

    def _quorum(self, ctx: ProtocolContext) -> int:
        return CrashThresholds(S=ctx.S, t=ctx.t).quorum

    def write_generator_tagged(self, ctx: ProtocolContext, tv: TaggedValue) -> ProtocolGenerator:
        quorum = self._quorum(ctx)

        def generator() -> ProtocolGenerator:
            yield RoundSpec(tag=STORE, payload={"tv": tv}, rule=ReplyRule(min_count=quorum))
            return tv.value

        return generator()

    def read_tagged_generator(self, ctx: ProtocolContext, reader: ProcessId) -> ProtocolGenerator:
        quorum = self._quorum(ctx)

        def generator() -> ProtocolGenerator:
            outcome = yield RoundSpec(tag=QUERY, payload={}, rule=ReplyRule(min_count=quorum))
            best = TaggedValue.initial()
            for payload in outcome.replies.values():
                candidate = payload.get("tv")
                # A reply without a tagged value (a Byzantine object's
                # garbage) is skipped, not trusted and not crashed on.
                if isinstance(candidate, TaggedValue) and candidate.ts > best.ts:
                    best = candidate
            # Write-back: the step that upgrades regular to atomic — a later
            # read is guaranteed to meet a quorum that stores `best`.
            yield RoundSpec(tag=STORE, payload={"tv": best}, rule=ReplyRule(min_count=quorum))
            return best

        return generator()


@register_protocol(
    "mw-abd",
    model="crash",
    semantics="atomic",
    resilience="S ≥ 2t + 1",
    min_size=lambda t: 2 * t + 1,
    scenarios=("fault-free", "crash", "silent"),
    description="multi-writer ABD: query-then-store two-round writes",
)
class MultiWriterAbdProtocol(AbdProtocol):
    """MWMR ABD: both writes and reads take two rounds.

    Writers first query a majority for the highest timestamp, then store
    with a strictly larger one (ties broken by writer index) — the classical
    scheme the paper's related work contrasts with fast SWMR reads.  Reads
    are ABD's.
    """

    name = "mw-abd"
    write_rounds = 2

    def write_generator_for(
        self, ctx: ProtocolContext, writer_index: int, value: Any
    ) -> ProtocolGenerator:
        """Write by the client with index ``writer_index``."""
        quorum = self._quorum(ctx)

        def generator() -> ProtocolGenerator:
            outcome = yield RoundSpec(tag=QUERY, payload={}, rule=ReplyRule(min_count=quorum))
            highest = Timestamp.zero()
            for payload in outcome.replies.values():
                candidate = payload.get("tv")
                if isinstance(candidate, TaggedValue) and candidate.ts > highest:
                    highest = candidate.ts
            ts = Timestamp(highest.seq + 1, writer_index)
            yield RoundSpec(
                tag=STORE,
                payload={"tv": TaggedValue(ts=ts, value=value)},
                rule=ReplyRule(min_count=quorum),
            )
            return value

        return generator()

    def write_generator(self, ctx: ProtocolContext, value: Any) -> ProtocolGenerator:
        return self.write_generator_for(ctx, writer_index=0, value=value)

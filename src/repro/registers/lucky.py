"""Lucky reads/writes: best-case fast, worst-case bounded ([GLV06]/[GV07] role).

The paper's related work contrasts its *worst-case* results with the
*best-case* line of work — "Lucky read/write access to robust atomic
storage" [14] and "Refined quorum systems" [16] — where operations complete
in a single round when the run is synchronous, fault-free and
contention-free, and gracefully degrade otherwise.  This protocol
reproduces that phenomenon on our substrate:

* **Writes** try a *fast path*: a single combined round that stores the
  pre-write and write records together; if **all** ``S`` objects ack in
  time, one round suffices (with every object acknowledging, every later
  reply set of size ``S − t`` contains ``t + 1`` correct holders, which is
  all the slow machinery ever needs).  If any ack is missing at
  quiescence, the writer falls back to the standard two-phase scheme.
* **Reads** try a fast path too: if **all** ``S`` replies are identical —
  same pre-write and write pairs everywhere — the read returns after one
  round.  Identical replies from all objects imply at least ``2t + 1``
  correct objects agree, so the value is genuine, complete (no pre-write
  ahead of a write anywhere) and fresh (a newer complete write would have
  ``t + 1`` correct holders contradicting the unanimity).  Any divergence,
  delay or silence forces the slow path: a second query round and a
  write-back round — three rounds in the worst case, matching the
  graceful-degradation shape of [16] (1 → 2 → 3 rounds as conditions
  worsen).

Like the best-case papers, the fast path requires *all* objects to answer,
so a single silent fault pushes every operation onto the slow path — the
benchmark E9 (bench_best_case) shows exactly that cliff.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.api.registry import register_protocol
from repro.quorums.threshold import ByzantineThresholds
from repro.registers.base import ProtocolContext, RegisterProtocol
from repro.registers.fast_regular import FastRegularObjectHandler, READ_ONE, READ_TWO, WRITE
from repro.registers.timestamps import certified_max, pooled_voucher_counts
from repro.sim.network import Message
from repro.sim.process import ObjectHandler
from repro.sim.rounds import ReplyRule, ReplySet, RoundSpec
from repro.sim.simulator import ProtocolGenerator
from repro.types import ProcessId, TaggedValue

LUCKY_STORE = "LUCKY_STORE"


class LuckyObjectHandler(FastRegularObjectHandler):
    """Fast-regular state plus the combined fast-path store."""

    def handle(self, state: dict[str, Any], message: Message) -> Mapping[str, Any]:
        if message.tag == LUCKY_STORE:
            incoming = message.payload["tv"]
            if incoming.ts > state["pw"].ts:
                state["pw"] = incoming
            if incoming.ts > state["w"].ts:
                state["w"] = incoming
            return {"ack": True}
        return super().handle(state, message)


def _unanimous(replies: ReplySet, expected: int) -> bool:
    """All ``expected`` objects replied and every reply matches exactly."""
    if len(replies) < expected:
        return False
    snapshots = {
        (payload.get("pw"), payload.get("w")) for payload in replies.values()
    }
    return len(snapshots) == 1


@register_protocol(
    "lucky-atomic",
    model="byzantine",
    semantics="atomic",
    resilience="S ≥ 3t + 1",
    min_size=lambda t: 3 * t + 1,
    scenarios=("fault-free", "crash", "silent"),
    aliases=("lucky",),
    description="best-case-fast atomic register: 1-round lucky paths, 3-round worst case",
)
class LuckyAtomicProtocol(RegisterProtocol):
    """Best-case 1-round reads/writes, worst-case 2-round writes / 3-round reads.

    Semantics: atomic (the slow read path writes back).  The fast paths
    only fire on unanimous full-population evidence, which is exactly the
    "synchrony + no failures + no concurrency" luck of [14].
    """

    name = "lucky-atomic"
    write_rounds = 2   # worst case; best case 1
    read_rounds = 3    # worst case; best case 1

    def validate_configuration(self, S: int, t: int) -> None:
        ByzantineThresholds(S=S, t=t)

    def object_handler(self) -> ObjectHandler:
        return LuckyObjectHandler()

    # ------------------------------------------------------------------ #
    # Write
    # ------------------------------------------------------------------ #

    def write_generator_tagged(self, ctx: ProtocolContext, tv: TaggedValue) -> ProtocolGenerator:
        quorum = ctx.wait_quorum
        population = ctx.S

        def generator() -> ProtocolGenerator:
            fast = yield RoundSpec(
                tag=LUCKY_STORE,
                payload={"tv": tv},
                rule=ReplyRule(
                    min_count=quorum,
                    predicate=lambda replies: len(replies) >= population,
                    accept_on_quiescence=True,
                ),
            )
            if len(fast.replies) >= population:
                return tv.value  # 1-round lucky write: everyone holds pw and w
            # Unlucky: finish the standard two-phase protocol.  The fast
            # round already planted pw+w at >= S−t objects, so one ordinary
            # WRITE round re-establishes the two-phase guarantees.
            yield RoundSpec(tag=WRITE, payload={"tv": tv}, rule=ReplyRule(min_count=quorum))
            return tv.value

        return generator()

    # ------------------------------------------------------------------ #
    # Read
    # ------------------------------------------------------------------ #

    def read_tagged_generator(self, ctx: ProtocolContext, reader: ProcessId) -> ProtocolGenerator:
        quorum = ctx.wait_quorum
        certify = ctx.certify
        population = ctx.S

        def select(pool: list[ReplySet]) -> TaggedValue:
            return certified_max(pooled_voucher_counts(pool, fields=("pw", "w")), certify)

        def generator() -> ProtocolGenerator:
            first = yield RoundSpec(
                tag=READ_ONE,
                payload={},
                rule=ReplyRule(
                    min_count=quorum,
                    predicate=lambda replies: _unanimous(replies, population),
                    accept_on_quiescence=True,
                ),
            )
            if _unanimous(first.replies, population):
                # 1-round lucky read: unanimity across the full population.
                sample = next(iter(first.replies.values()))
                return sample["w"]
            # Unlucky: one more query round, then write back the choice.
            second = yield RoundSpec(tag=READ_ONE, payload={}, rule=ReplyRule(min_count=quorum))
            candidate = select([first.replies, second.replies])
            yield RoundSpec(
                tag=READ_TWO, payload={"wb": candidate}, rule=ReplyRule(min_count=quorum)
            )
            return candidate

        return generator()

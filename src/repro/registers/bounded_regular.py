"""AAB07-inspired bounded regular register: reads take up to ``t + 2`` rounds.

The related work of the paper describes the pre-[GV06] state of the art for
unauthenticated robust storage: reads either unbounded or ``Ω(t)`` rounds
([Aiyer–Alvisi–Bazzi 07]).  This protocol reproduces that regime:

* writes are the same two-phase pre-write/write scheme as
  :mod:`repro.registers.fast_regular`;
* a read keeps issuing query rounds, pooling vouchers across rounds per
  ``(object, value)`` pair, until some candidate is **certified** (``t + 1``
  distinct vouchers) *and* at most ``t`` pooled repliers report anything
  strictly newer — or until ``t + 2`` rounds have elapsed, after which the
  best certified (else best reported) candidate is returned.

The ``t + 2`` bound is what the latency-matrix benchmark (E6) contrasts with
the 2-round reads of the fast protocol: it is the cost of fabrication
resistance without either the GV06 machinery or secret tokens.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.api.registry import register_protocol
from repro.quorums.threshold import ByzantineThresholds
from repro.registers.base import ProtocolContext, RegisterProtocol
from repro.registers.fast_regular import FastRegularObjectHandler, PRE_WRITE, READ_ONE, READ_TWO, WRITE
from repro.registers.timestamps import certified_max, freshest_report, max_candidate, pooled_voucher_counts
from repro.sim.process import ObjectHandler
from repro.sim.rounds import ReplyRule, ReplySet, RoundSpec
from repro.sim.simulator import ProtocolGenerator
from repro.types import ProcessId, TaggedValue, Timestamp


@register_protocol(
    "bounded-regular",
    model="byzantine",
    semantics="regular",
    resilience="S ≥ 3t + 1",
    min_size=lambda t: 3 * t + 1,
    scenarios=("fault-free", "silent", "fabricate"),
    read_round_bound=lambda t: t + 2,
    description="AAB07-style bounded regular register: reads pool vouchers, O(t) rounds",
)
class BoundedRegularProtocol(RegisterProtocol):
    """SWMR regular register with voucher-pooling bounded reads."""

    name = "bounded-regular"
    write_rounds = 2
    read_rounds = None  # t-dependent: t + 2

    def __init__(self) -> None:
        self._write_ts = Timestamp.zero()

    def validate_configuration(self, S: int, t: int) -> None:
        ByzantineThresholds(S=S, t=t)

    def object_handler(self) -> ObjectHandler:
        return FastRegularObjectHandler()

    def read_round_bound(self, t: int) -> int:
        """Worst-case read rounds for threshold ``t``."""
        return t + 2

    # ------------------------------------------------------------------ #
    # Write (identical two-phase scheme as the fast protocol)
    # ------------------------------------------------------------------ #

    def write_generator(self, ctx: ProtocolContext, value: Any) -> ProtocolGenerator:
        self._write_ts = self._write_ts.next_for()
        tv = TaggedValue(ts=self._write_ts, value=value)
        quorum = ctx.wait_quorum

        def generator() -> ProtocolGenerator:
            yield RoundSpec(tag=PRE_WRITE, payload={"tv": tv}, rule=ReplyRule(min_count=quorum))
            yield RoundSpec(tag=WRITE, payload={"tv": tv}, rule=ReplyRule(min_count=quorum))
            return value

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
        quorum = ctx.wait_quorum
        certify = ctx.certify
        max_rounds = self.read_round_bound(ctx.t)

        def certified_and_stable(pool: list[ReplySet]) -> TaggedValue | None:
            counts = pooled_voucher_counts(pool, fields=("pw", "w"))
            certified = [pair for pair, n in counts.items() if n >= certify]
            if not certified:
                return None
            best = max_candidate(certified)
            # Pool the *newest report per object* to bound how many distinct
            # objects claim to be ahead of the certified best.
            newest: dict[ProcessId, Timestamp] = {}
            for replies in pool:
                for pid, payload in replies.items():
                    for field in ("pw", "w"):
                        pair = payload.get(field)
                        if isinstance(pair, TaggedValue):
                            if pid not in newest or pair.ts > newest[pid]:
                                newest[pid] = pair.ts
            ahead = sum(1 for ts in newest.values() if ts > best.ts)
            if ahead <= ctx.t:
                return best
            return None

        def generator() -> ProtocolGenerator:
            pool: list[ReplySet] = []
            for round_index in range(max_rounds):
                tag = READ_ONE if round_index == 0 else READ_TWO
                payload: dict[str, Any] = {}
                if round_index > 0:
                    payload["wb"] = freshest_report(pool)
                outcome = yield RoundSpec(
                    tag=tag,
                    payload=payload,
                    rule=ReplyRule(min_count=quorum, accept_on_quiescence=True),
                )
                pool.append(outcome.replies)
                stable = certified_and_stable(pool)
                if stable is not None:
                    return stable
            # Round budget exhausted: best effort, certified first.
            return certified_max(pooled_voucher_counts(pool, fields=("pw", "w")), certify)

        return generator()

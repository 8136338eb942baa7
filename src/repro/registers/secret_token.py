"""DMSS09-style regular register in the secret-token model: 1-round reads.

The paper's Section 5: in the *stronger authentication model that allows for
secret values [8]*, the 2-round regular-read lower bound of [15] is
circumvented and reads of the regular substrate complete in a single round,
which the transformation turns into the 3-round-read atomic storage that is
optimal in that model (by this paper's write lower bound).

Mechanism as modelled here (see DESIGN.md §2.2 for the substitution note):
the writer attaches a fresh *token* to every pre-write/write phase and
registers it with a :class:`TokenAuthority`.  The authority is the
unforgeability oracle standing in for the paper's secret values: a Byzantine
object may *replay* any ``(pair, token)`` it has actually been sent, but
cannot mint a token for a pair the writer never issued.  Readers verify
reports against the authority, so a single verified report is known genuine
— certification needs one voucher instead of ``t + 1``, and the standard
"any ``S − t`` reply set contains a correct holder of the last complete
write" argument makes the freshest verified report safe to return after one
round.
"""

from __future__ import annotations

import itertools
from typing import Any, Mapping

from repro.api.registry import register_protocol
from repro.quorums.threshold import ByzantineThresholds
from repro.registers.base import ProtocolContext, RegisterProtocol
from repro.sim.network import Message
from repro.sim.process import ObjectHandler
from repro.sim.rounds import ReplyRule, RoundSpec
from repro.sim.simulator import ProtocolGenerator
from repro.types import ProcessId, TaggedValue, Timestamp

ST_PRE_WRITE = "ST_PRE_WRITE"
ST_WRITE = "ST_WRITE"
ST_READ = "ST_READ"


class TokenAuthority:
    """Registry of genuine ``(pair, token)`` bindings — the secrecy oracle.

    The simulator-level contract: fabricating behaviours may invent arbitrary
    *pairs* but have no way to produce a ``token`` such that
    :meth:`verify` accepts — exactly the power secret values deny the
    adversary in [DMSS09].
    """

    def __init__(self) -> None:
        self._counter = itertools.count(1)
        self._genuine: set[tuple[Timestamp, Any, str]] = set()

    def issue(self, tv: TaggedValue) -> str:
        """Mint and register a token binding ``tv`` to the writer."""
        token = f"tok-{next(self._counter)}"
        self._genuine.add((tv.ts, tv.value, token))
        return token

    def verify(self, tv: TaggedValue, token: str) -> bool:
        """True iff the writer really issued ``token`` for ``tv``."""
        return (tv.ts, tv.value, token) in self._genuine


class SecretTokenObjectHandler(ObjectHandler):
    """Object state: tokenized pre-written and written pairs."""

    def initial_state(self) -> dict[str, Any]:
        initial = TaggedValue.initial()
        return {"pw": initial, "pw_token": "", "w": initial, "w_token": ""}

    def handle(self, state: dict[str, Any], message: Message) -> Mapping[str, Any]:
        if message.tag == ST_PRE_WRITE:
            incoming = message.payload["tv"]
            if incoming.ts > state["pw"].ts:
                state["pw"] = incoming
                state["pw_token"] = message.payload["token"]
            return {"ack": True}
        if message.tag == ST_WRITE:
            incoming = message.payload["tv"]
            if incoming.ts > state["w"].ts:
                state["w"] = incoming
                state["w_token"] = message.payload["token"]
            return {"ack": True}
        if message.tag == ST_READ:
            return {
                "pw": state["pw"],
                "pw_token": state["pw_token"],
                "w": state["w"],
                "w_token": state["w_token"],
            }
        return {"error": f"unknown tag {message.tag}"}


@register_protocol(
    "secret-token",
    model="secret-token",
    semantics="regular",
    resilience="S ≥ 3t + 1",
    min_size=lambda t: 3 * t + 1,
    scenarios=("fault-free", "silent", "replay", "fabricate"),
    description="DMSS09-style regular register with secret tokens: 1-round reads",
)
class SecretTokenProtocol(RegisterProtocol):
    """SWMR regular register, secret-token model: 2W / 1R rounds."""

    name = "secret-token"
    write_rounds = 2
    read_rounds = 1

    def __init__(self, authority: TokenAuthority | None = None) -> None:
        self.authority = authority or TokenAuthority()

    def validate_configuration(self, S: int, t: int) -> None:
        ByzantineThresholds(S=S, t=t)

    def object_handler(self) -> ObjectHandler:
        return SecretTokenObjectHandler()

    # ------------------------------------------------------------------ #
    # Write
    # ------------------------------------------------------------------ #

    def write_generator_tagged(self, ctx: ProtocolContext, tv: TaggedValue) -> ProtocolGenerator:
        quorum = ctx.wait_quorum
        token = self.authority.issue(tv)

        def generator() -> ProtocolGenerator:
            yield RoundSpec(
                tag=ST_PRE_WRITE,
                payload={"tv": tv, "token": token},
                rule=ReplyRule(min_count=quorum),
            )
            yield RoundSpec(
                tag=ST_WRITE,
                payload={"tv": tv, "token": token},
                rule=ReplyRule(min_count=quorum),
            )
            return tv.value

        return generator()

    # ------------------------------------------------------------------ #
    # Read
    # ------------------------------------------------------------------ #

    def read_tagged_generator(self, ctx: ProtocolContext, reader: ProcessId) -> ProtocolGenerator:
        quorum = ctx.wait_quorum
        authority = self.authority

        def generator() -> ProtocolGenerator:
            outcome = yield RoundSpec(tag=ST_READ, payload={}, rule=ReplyRule(min_count=quorum))
            best = TaggedValue.initial()
            for payload in outcome.replies.values():
                for field, token_field in (("pw", "pw_token"), ("w", "w_token")):
                    pair = payload.get(field)
                    token = payload.get(token_field, "")
                    if not isinstance(pair, TaggedValue):
                        continue
                    if pair.ts == Timestamp.zero():
                        continue  # the initial ⊥ needs no token
                    if authority.verify(pair, str(token)) and pair.ts > best.ts:
                        best = pair
            return best

        return generator()

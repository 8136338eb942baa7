"""Client-side communication rounds (Definition 1 of the paper).

A *round* is: the client sends a message to all objects; objects reply
immediately; the round terminates once the client has received a
"sufficient number" of replies.  What counts as sufficient is the protocol's
business — the :class:`ReplyRule` captures it as a minimum count plus an
optional predicate over the received reply set.

Because up to ``t`` objects may be faulty and stay silent, a rule whose
``min_count`` exceeds ``S - t`` can only be justified while the missing
objects are *possibly faulty*; the engine models the paper's allowance to
wait longer by resuming a round at network quiescence when
``accept_on_quiescence`` is set (all plausibly-correct replies have arrived).

Protocols are written as Python generators that yield :class:`RoundSpec`
objects and receive :class:`RoundOutcome` objects back::

    def read_protocol(ctx):
        outcome = yield RoundSpec(tag="QUERY", payload={}, rule=ReplyRule(min_count=2 * t + 1))
        chosen = select(outcome.replies)
        yield RoundSpec(tag="WRITE_BACK", payload={"val": chosen}, rule=ReplyRule(min_count=2 * t + 1))
        return chosen.value
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.types import ProcessId

#: Type of a reply set: replies keyed by the responding object.
ReplySet = dict[ProcessId, Mapping[str, Any]]


@dataclass(slots=True)
class ReplyRule:
    """Termination predicate of one round.

    Attributes:
        min_count: the round may never terminate with fewer replies.
        predicate: optional extra condition on the reply set (e.g. "a
            certified candidate exists").  The round terminates eagerly as
            soon as ``min_count`` is met and the predicate holds.
        accept_on_quiescence: when the network quiesces (no deliverable
            messages remain) with ``min_count`` met but the predicate still
            false, resume the round anyway with ``quiesced=True`` so the
            protocol can apply its fallback selection.  When False, the
            operation stays pending — the partial-run outcome the
            lower-bound proofs exploit.
    """

    min_count: int
    predicate: Callable[[ReplySet], bool] | None = None
    accept_on_quiescence: bool = True

    def satisfied(self, replies: ReplySet) -> bool:
        """Eager termination check."""
        if len(replies) < self.min_count:
            return False
        if self.predicate is None:
            return True
        return self.predicate(replies)

    def acceptable_at_quiescence(self, replies: ReplySet) -> bool:
        """Whether a quiesced network lets the round terminate."""
        return self.accept_on_quiescence and len(replies) >= self.min_count


@dataclass(slots=True)
class RoundSpec:
    """One round the protocol asks the engine to perform.

    ``payload`` is sent to every destination (default: all objects).  Use
    ``per_object_payload`` for rounds that send different content to
    different objects (the MWMR transform multiplexes registers this way).
    """

    tag: str
    payload: Mapping[str, Any]
    rule: ReplyRule
    destinations: Sequence[ProcessId] | None = None
    per_object_payload: Mapping[ProcessId, Mapping[str, Any]] | None = None

    def payload_for(self, dst: ProcessId) -> Mapping[str, Any]:
        """The payload to send to ``dst``."""
        if self.per_object_payload is not None and dst in self.per_object_payload:
            merged = dict(self.payload)
            merged.update(self.per_object_payload[dst])
            return merged
        return self.payload


@dataclass(slots=True)
class RoundOutcome:
    """What the engine hands back when a round terminates."""

    round_no: int
    replies: ReplySet
    quiesced: bool = False
    terminated_at: int = 0

    def payloads(self) -> list[Mapping[str, Any]]:
        """Reply payloads in deterministic (object id) order."""
        return [self.replies[pid] for pid in sorted(self.replies)]


@dataclass(slots=True)
class RoundRecord:
    """Bookkeeping the engine keeps per started round.

    While the round collects replies it holds its ``spec`` (the rule the
    engine tests) and its ``replies``.  When it terminates, the reply set
    goes to the :class:`RoundOutcome` and the record keeps only what is
    ever read of a past round — ``round_no``, ``started_at``, ``tag``,
    ``min_count``, ``destinations`` and ``reply_count`` — with ``spec`` and
    ``replies`` set to ``None``, so a long run holds its operations, not
    its traffic.
    """

    spec: RoundSpec | None
    round_no: int
    started_at: int
    tag: str
    min_count: int
    #: ``None`` for a broadcast to every object.
    destinations: Sequence[ProcessId] | None
    replies: ReplySet | None = field(default_factory=dict)
    #: Replies counted when the round terminated (``len(replies)`` before).
    reply_count: int = 0
    terminated: bool = False

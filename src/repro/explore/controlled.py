"""Explorer-driven delivery: message transit as an explicit choice point.

The event-loop simulator is deterministic once a delivery policy is fixed,
so the only nondeterminism the paper's adversary actually owns is *which
messages stay (indefinitely) in transit*.  :class:`ControlledDelivery`
exposes that choice to the schedule explorer: every message on the wire is
mapped to a **link** — a :class:`HoldLink` — and the policy holds every
message of the links the explorer selected and delivers everything else at
unit latency.  Held links are the harness's one vocabulary for "these
messages stay in transit": searches, witnesses and their replays all speak
it.  While a schedule runs, the policy also records
which links carried at least one delivered message: that set is the
explorer's *expansion alphabet* (holding a link that carried no traffic
cannot change the run, so such links are never branched on — the
sleep-set-style pruning of :mod:`repro.explore.engine`), and the run's
duplicate-trace key (:attr:`ControlledDelivery.trace_key`).

Two granularities are supported:

* ``"operation"`` (default) — a link is ``(operation, object)``; holding it
  cuts every message between the operation's client and the object, in both
  directions, across all rounds.  This is the block-skipping adversary of
  the paper's proofs ("round *rnd* of *op* skips block *B*") applied to the
  whole operation, and it keeps the decision alphabet small
  (|plans| × S links).
* ``"round"`` — a link is ``(operation, object, round)``; finer, closer to
  per-message control, with a correspondingly larger alphabet.  Links of
  rounds a protocol only enters under some schedules are *discovered* on
  the parent run (see the engine's expansion rule).

Operations are addressed by their **serial**, which under the schedule
engine's :func:`repro.types.scoped_operation_serials` scope equals the
1-based position of the operation in the probe's plans.

Delivery is not the only choice the adversary owns: *fault timing* is the
second half of the decision vocabulary.  A :class:`FaultTrigger` defers
one faulted object's behaviour to an explicit per-object trigger point
(via :class:`~repro.faults.timing.TimedFault`), so "when does the crash /
freeze fire" is explored exactly like "which link stays in transit".  Both
decision kinds share one canonical order and one JSON wire form —
``[op, obj, round]`` for holds (the historical layout, so old witnesses
load unchanged) and ``["fault", obj, at]`` for triggers.

Representation: a :class:`HoldLink` is the *boundary* form — what a probe
carries, what an outcome reports, what a witness stores, validated on
construction.  Inside :class:`ControlledDelivery` a link is the plain
``(op serial, object index, round or 0)`` tuple of
:attr:`HoldLink.sort_key`: the policy looks one up per message on the
wire, so the held set is converted once and the delivered links are a set
of tuples that only :attr:`ControlledDelivery.delivered_links` turns back
into ``HoldLink`` objects (tuple order *is* the canonical link order) —
one cached object per tuple, so a search builds and validates each link
once, not once per schedule that reports it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence, Union

from repro.axes import GRANULARITIES, SearchBounds
from repro.errors import ConfigurationError
from repro.sim.network import FifoDelivery, Message
from repro.sim.tracing import message_fields
from repro.types import ProcessId


@dataclass(frozen=True, slots=True)
class HoldLink:
    """One unit of adversarial choice: a client↔object link to hold.

    ``op`` is the operation serial (1-based plan position under scoped
    serials), ``obj`` the 1-based storage-object index (``s_obj``), and
    ``round_no`` the round the hold is confined to — ``None`` holds every
    round of the operation (the ``"operation"`` granularity).

    A search hashes and compares links in its seen-sets and alphabets, so
    the hash is precomputed and ``==`` hand-written, as for
    :class:`~repro.types.ProcessId`.  The hash covers ints only (``None``
    hashes by address on some interpreters), so the cached value survives
    pickling into a worker started under another ``PYTHONHASHSEED``.
    """

    op: int
    obj: int
    round_no: int | None = None
    _hash: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.op < 1 or self.obj < 1:
            raise ConfigurationError(
                f"hold links are 1-based, got op={self.op}, obj={self.obj}"
            )
        if self.round_no is not None and self.round_no < 1:
            raise ConfigurationError(f"round numbers are 1-based, got {self.round_no}")
        object.__setattr__(self, "_hash", hash((self.op, self.obj, self.round_no or 0)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not HoldLink:
            return NotImplemented
        return (self.op == other.op and self.obj == other.obj
                and self.round_no == other.round_no)

    @property
    def sort_key(self) -> tuple[int, int, int]:
        """Canonical ordering key (``round_no=None`` sorts first)."""
        return (self.op, self.obj, self.round_no or 0)

    def describe(self) -> str:
        suffix = "" if self.round_no is None else f" rnd{self.round_no}"
        return f"op{self.op}↔s{self.obj}{suffix}"

    def to_json(self) -> list:
        return [self.op, self.obj, self.round_no]

    @classmethod
    def from_json(cls, data: Sequence) -> "HoldLink":
        op, obj, round_no = data
        return cls(op=int(op), obj=int(obj),
                   round_no=None if round_no is None else int(round_no))


@dataclass(frozen=True, slots=True)
class FaultTrigger:
    """One unit of adversarial choice: *when* a fault fires.

    ``obj`` is the 1-based index of a faulted storage object; ``at`` is the
    number of messages the object handles honestly before its configured
    behaviour fires (``at=0`` fires on the first delivery — the
    facade-scheduled "active from the start" semantics of always-on
    behaviours).  The schedule engine realizes a trigger by wrapping the
    object's behaviour in :class:`~repro.faults.timing.TimedFault`.
    """

    obj: int
    at: int

    def __post_init__(self) -> None:
        if self.obj < 1:
            raise ConfigurationError(
                f"fault triggers are 1-based, got obj={self.obj}"
            )
        if self.at < 0:
            raise ConfigurationError(
                f"trigger points are non-negative, got at={self.at}"
            )

    @property
    def sort_key(self) -> tuple[int, int]:
        return (self.obj, self.at)

    def describe(self) -> str:
        return f"fire s{self.obj}@{self.at}"

    def to_json(self) -> list:
        return ["fault", self.obj, self.at]

    @classmethod
    def from_json(cls, data: Sequence) -> "FaultTrigger":
        kind, obj, at = data
        if kind != "fault":
            raise ConfigurationError(f"not a fault-trigger entry: {list(data)!r}")
        return cls(obj=int(obj), at=int(at))


#: The explorer's decision vocabulary: hold a link, or time a fault.
Decision = Union[HoldLink, FaultTrigger]


def decision_from_json(data: Sequence) -> Decision:
    """Decode one serialized decision (either vocabulary kind).

    Holds keep their historical ``[op, obj, round]`` all-numeric layout;
    triggers are tagged ``["fault", obj, at]`` — so every decision list in
    a pre-timing witness decodes exactly as before.
    """
    if data and data[0] == "fault":
        return FaultTrigger.from_json(data)
    return HoldLink.from_json(data)


def _decision_key(decision: Decision) -> tuple[int, int, int, int]:
    # Holds sort before triggers; within a kind, the dataclass key rules.
    if isinstance(decision, HoldLink):
        return (0, *decision.sort_key)
    return (1, *decision.sort_key, 0)


def canonical_decisions(decisions: Iterable[Decision]) -> tuple[Decision, ...]:
    """``decisions`` as a duplicate-free tuple in canonical order (holds
    first) — every decision set the engine touches flows through here."""
    return tuple(sorted(set(decisions), key=_decision_key))


class ControlledDelivery(FifoDelivery):
    """Delivery policy steered by an explorer-chosen set of held links.

    Messages whose link is in ``holds`` stay in transit indefinitely (the
    legitimate partial-run phenomenon, not message loss); everything else
    is delivered one tick after its send.  The policy keeps three
    observations the engine consumes after the run:

    * :attr:`delivered_links` — links that carried at least one delivered
      message (the expansion alphabet);
    * :attr:`held_messages` — how many messages the chosen holds caught;
    * :attr:`trace_key` — equal exactly when the wire traces are.

    It is a one-tick :class:`~repro.sim.network.FifoDelivery` with a hold
    check (its link test), so a controlled schedule runs on the network's
    fast path like a free one.  The check is the judgment — the
    per-message ``delay`` it inherits asks it too — and it records the
    observations and never reads them back; the network asks once per
    message, in send order, on either path — which is all the purity the
    :class:`~repro.sim.network.DeliveryPolicy` contract needs, and makes a
    message's place in that order (its *ordinal*) path-free.  Because the
    check is also what records the expansion alphabet, it is there even for
    an empty hold set (a method, not ``None``).  ``faulted`` names the
    objects that carry a fault behaviour: the key records what they reply.
    """

    def __init__(
        self,
        holds: Iterable[HoldLink] = (),
        granularity: str = SearchBounds().granularity,
        faulted: Iterable[ProcessId] = (),
    ) -> None:
        if granularity not in GRANULARITIES:
            raise ConfigurationError(
                f"granularity must be one of {GRANULARITIES}, got {granularity!r}"
            )
        super().__init__(latency=1)
        self.holds = frozenset(holds)
        for link in self.holds:
            if isinstance(link, FaultTrigger):
                raise ConfigurationError(
                    f"{link.describe()} is a fault-timing decision, not a "
                    "held link — the schedule engine applies it to the "
                    "object's behaviour, not the delivery policy"
                )
            if granularity == "operation" and link.round_no is not None:
                raise ConfigurationError(
                    f"link {link.describe()} names a round but granularity "
                    "is 'operation'"
                )
            if granularity == "round" and link.round_no is None:
                raise ConfigurationError(
                    f"link {link.describe()} has no round but granularity is 'round'"
                )
        self.granularity = granularity
        self._held = frozenset(link.sort_key for link in self.holds)
        self._by_round = granularity == "round"
        self._delivered: set[tuple[int, int, int]] = set()
        self.held_messages = 0
        self._faulted = frozenset(pid.index for pid in faulted)
        self._asked = 0  # messages judged so far: the next one's ordinal
        self._held_ordinals: list[int] = []
        self._replies = hashlib.blake2b(digest_size=16) if self._faulted else None

    @property
    def delivered_links(self) -> tuple[HoldLink, ...]:
        """Links that carried delivered traffic, in canonical order."""
        return tuple(map(_boundary_link, sorted(self._delivered)))

    @property
    def trace_key(self) -> tuple:
        """The ordinals of every held message, then — when objects are
        faulted — a 16-byte digest of ``(ordinal, message)`` over their replies.

        For runs of one configuration, equal keys ⟺ equal wire traces: the
        engine is deterministic and fault-free processes send functions of
        what they received, so holds and faulted replies fix the run, and
        both are on the trace.  Ints and bytes only, so the key compares the
        same in every process.
        """
        key = tuple(self._held_ordinals)
        if self._replies is None:
            return key
        return key + (self._replies.digest(),)

    def hold_check(self, message: Message) -> bool:
        """The judgment: whether ``message`` stays in transit.  Records the
        message's ordinal, its link (delivered) and, for a faulted object's
        reply, what it says."""
        ordinal = self._asked
        self._asked = ordinal + 1
        endpoint = message.src if message.is_reply else message.dst
        if endpoint.role_value != "object":  # client↔client: not a link
            return False
        if message.is_reply and endpoint.index in self._faulted:
            self._replies.update(
                repr((ordinal, *message_fields(message)))
                .encode("utf-8", "backslashreplace")
            )
        link = (message.op.serial, endpoint.index, message.round_no if self._by_round else 0)
        if link in self._held:
            self.held_messages += 1
            self._held_ordinals.append(ordinal)
            return True
        self._delivered.add(link)
        return False


@lru_cache(maxsize=4096)
def _boundary_link(key: tuple[int, int, int]) -> HoldLink:
    """The :class:`HoldLink` of a policy-internal ``(op, obj, round or 0)``
    key.  Cached: every schedule of a search reports most of the same
    links, and each is built and validated once."""
    op, obj, round_no = key
    return HoldLink(op=op, obj=obj, round_no=round_no or None)

"""Message traces: the observable record of a simulation run.

A :class:`MessageTrace` collects every send/hold/delivery with its virtual
time.  Traces serve debugging (``--trace`` dumps), latency accounting (rounds
are recounted from the wire, cross-checking the engine's own bookkeeping,
through the one-pass :meth:`MessageTrace.round_trip_counts` fold, so a trial
stays linear in its length), observability spans, and the wire-trace
fingerprint that schedule witnesses, their replay and the engine-equivalence
tests compare runs by.
"""

from __future__ import annotations

import enum
import hashlib
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import Any

from repro.sim.network import Message
from repro.types import OperationId


class TraceKind(enum.Enum):
    """What happened to a message at a trace point."""

    SEND = "send"
    HOLD = "hold"
    DELIVER = "deliver"
    DROP = "drop"


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One observation: ``message`` underwent ``kind`` at ``time``."""

    time: int
    kind: TraceKind
    message: Message

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form (one ``--trace`` JSONL line).

        Payload values that are not JSON primitives (tagged values,
        timestamps, nested protocol state) are rendered through the
        type-tagged storage codec (:func:`repro.storage.codec.pack_value`),
        so dumps round-trip deterministically through the same codec
        (:func:`~repro.storage.codec.decode_state` of a value's JSON).
        Primitives pass through unchanged — dumps of primitive-only
        payloads are byte-identical to the older ``str()`` rendering, and
        old dumps remain readable (the tagged objects simply replace the
        lossy strings).  Values outside the codec's vocabulary still fall
        back to ``str``.
        """
        from repro.storage.codec import pack_value

        message = self.message
        payload = {}
        for key, value in sorted(message.payload.items()):
            try:
                payload[key] = pack_value(value)
            except TypeError:
                payload[key] = str(value)
        return {
            "time": self.time,
            "kind": self.kind.value,
            "src": str(message.src),
            "dst": str(message.dst),
            "op": str(message.op),
            "op_serial": message.op.serial,
            "op_kind": message.op.kind,
            "round": message.round_no,
            "tag": message.tag,
            "reply": message.is_reply,
            "payload": payload,
        }


def _freeze(payload: Mapping[str, Any]) -> tuple[tuple[str, Any], ...]:
    """Canonical hashable form of a reply payload (sorted key/value pairs)."""
    items = []
    for key in sorted(payload):
        value = payload[key]
        # Exact types first: what a protocol nests in a payload is a plain
        # dict or list; the abstract checks are for whatever is left.
        kind = type(value)
        if kind is dict:
            value = _freeze(value)
        elif kind is list or kind is set:
            value = tuple(sorted(map(repr, value)))
        elif isinstance(value, Mapping):
            value = _freeze(value)
        elif isinstance(value, (list, set)):
            value = tuple(sorted(map(repr, value)))
        items.append((key, value))
    return tuple(items)


class MessageTrace:
    """Trace sink handed to :class:`~repro.sim.network.Network`.

    Recording sits on the simulator's per-message hot path, so observations
    are kept as plain ``(time, kind, message)`` tuples in :attr:`entries`;
    the :class:`TraceEvent` view the public API exposes is materialized
    lazily (and cached) by :attr:`events`.  Both views present the same
    record in the same order.
    """

    __slots__ = ("entries", "_materialized")

    def __init__(self) -> None:
        #: The raw log: ``(time, TraceKind, Message)`` tuples in record order.
        self.entries: list[tuple[int, TraceKind, Message]] = []
        self._materialized: list[TraceEvent] | None = None

    @property
    def events(self) -> list[TraceEvent]:
        """The recorded observations as :class:`TraceEvent` objects."""
        cached = self._materialized
        if cached is None or len(cached) != len(self.entries):
            cached = [TraceEvent(*entry) for entry in self.entries]
            self._materialized = cached
        return cached

    def record_send(self, time: int, message: Message) -> None:
        self.entries.append((time, TraceKind.SEND, message))

    def record_send_batch(self, time: int, messages: Iterable[Message]) -> None:
        """Record one same-tick broadcast in a single list extend."""
        kind = TraceKind.SEND
        self.entries.extend([(time, kind, m) for m in messages])

    def record_hold(self, time: int, message: Message) -> None:
        self.entries.append((time, TraceKind.HOLD, message))

    def record_delivery(self, time: int, message: Message) -> None:
        self.entries.append((time, TraceKind.DELIVER, message))

    def record_drop(self, time: int, message: Message) -> None:
        self.entries.append((time, TraceKind.DROP, message))

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def round_trip_counts(self) -> dict[OperationId, int]:
        """Rounds observed on the wire for every operation, in one pass.

        Maps each operation with at least one client-side SEND to the
        highest round number it sent; operations that never reached the
        wire are absent (``.get(op, 0)`` counts them as zero rounds).  The
        state is one int per operation — this is the fold the per-trial
        round accounting runs, so its cost must stay linear in the trace
        and its memory independent of it.
        """
        send = TraceKind.SEND
        counts: dict[OperationId, int] = {}
        for _, kind, message in self.entries:
            if kind is send and not message.is_reply:
                op = message.op
                seen = counts.get(op)
                if seen is None or message.round_no > seen:
                    counts[op] = message.round_no
        return counts


def message_fields(message: Message) -> tuple:
    """A message as the fingerprint renders it: ``(src, dst, op serial, op
    kind, op client, round, tag, is_reply, frozen payload)``, processes by
    name — plain values whose ``repr`` is the same in every process."""
    op = message.op
    return (
        str(message.src), str(message.dst), op.serial, op.kind, str(op.client),
        message.round_no, message.tag, message.is_reply, _freeze(message.payload),
    )


def trace_fingerprint(trace: MessageTrace) -> str:
    """Canonical digest of a full wire trace.

    The harness's byte-level equality oracle: a schedule witness stores it
    and a replay must reproduce it, and the engine-equivalence tests assert
    production-vs-reference identity through it.  (The explorer's
    duplicate-trace test does not render it; it compares the key
    :class:`~repro.explore.controlled.ControlledDelivery` decides at the
    source.)  Two traces fingerprint equal exactly when they recorded the
    same observations in the same order: the digest is over
    ``repr((time, kind, *message_fields(message)))`` of every entry.
    """
    digest = hashlib.sha256()
    for time, kind, message in trace.entries:
        digest.update(
            repr((time, kind.value, *message_fields(message)))
            .encode("utf-8", "backslashreplace")
        )
    return digest.hexdigest()[:24]


def dump_trace_jsonl(trace: MessageTrace, sink, extra: Mapping[str, Any] | None = None) -> int:
    """Write ``trace`` to the file object ``sink`` as one JSON line per event.

    ``extra`` fields (e.g. the trial index) are merged into every line.
    Returns the number of events written.
    """
    import json

    merged = dict(extra or {})
    for event in trace.events:
        record = event.to_dict()
        record.update(merged)
        sink.write(json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n")
    return len(trace.events)

"""Message traces: the observable record of a simulation run.

A :class:`MessageTrace` collects every send/hold/delivery with its virtual
time.  Traces serve three purposes: debugging, latency accounting (rounds are
recounted from the wire, cross-checking the engine's own bookkeeping), and
extracting per-client *reply transcripts* — the basis of the
indistinguishability arguments in the lower-bound constructions (a reader
cannot distinguish two runs in which it receives identical reply sequences).

Cost model: every query scans the whole log once.  Per-operation queries
(``round_trip_count``, ``replies_for_operation``, ...) are for looking at a
few operations; anything that runs once per trial over *all* operations —
the round accounting — goes through the one-pass
:meth:`MessageTrace.round_trip_counts` fold instead, so a trial stays linear
in its length.
"""

from __future__ import annotations

import enum
import hashlib
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.sim.network import Message
from repro.types import OperationId, ProcessId


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
        so dumps round-trip deterministically via
        :func:`~repro.storage.codec.unpack_value`.  Primitives pass through
        unchanged — dumps of primitive-only payloads are byte-identical to
        the older ``str()`` rendering, and old dumps remain readable (the
        tagged objects simply replace the lossy strings).  Values outside
        the codec's vocabulary still fall back to ``str``.
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


@dataclass(frozen=True, slots=True)
class TranscriptEntry:
    """One reply as the client observed it (payload made hashable)."""

    round_no: int
    source: ProcessId
    tag: str
    payload_items: tuple[tuple[str, Any], ...]

    @classmethod
    def from_message(cls, message: Message) -> "TranscriptEntry":
        return cls(
            round_no=message.round_no,
            source=message.src,
            tag=message.tag,
            payload_items=_freeze(message.payload),
        )


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

    The log is the largest thing a finished trial holds (two entries per
    message on the wire) and it hangs off the system's reference cycle;
    whoever ran the trial and does not hand the trace on calls
    :meth:`clear` so the memory goes back at once.
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

    def clear(self) -> None:
        """Drop every observation, freeing the messages now.

        The trace sits on the system ↔ simulator ↔ handler-closure cycle,
        so without this a finished trial's whole wire log waits for a
        full cyclic collection; a trial runner that nobody asked for the
        trace calls this once its result is built.
        """
        self.entries.clear()
        self._materialized = None

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def delivered_to(self, pid: ProcessId) -> list[Message]:
        """Messages actually delivered to ``pid``, in delivery order."""
        return [
            message
            for _, kind, message in self.entries
            if kind is TraceKind.DELIVER and message.dst == pid
        ]

    def replies_for_operation(self, op_id: OperationId) -> list[Message]:
        """Replies delivered to the invoking client of ``op_id``."""
        return [
            message
            for _, kind, message in self.entries
            if kind is TraceKind.DELIVER
            and message.is_reply
            and message.op == op_id
        ]

    def client_transcript(self, op_id: OperationId) -> tuple[TranscriptEntry, ...]:
        """The reply transcript of one operation (order-insensitive form).

        Two partial runs are indistinguishable to a reader exactly when the
        transcripts of its operations are equal as multisets per round; the
        tuple returned here is sorted to make that comparison a plain ``==``.
        """
        entries = [TranscriptEntry.from_message(m) for m in self.replies_for_operation(op_id)]
        return tuple(sorted(entries, key=lambda e: (e.round_no, e.source, e.payload_items)))

    def messages_between(self, src: ProcessId, dst: ProcessId) -> list[Message]:
        """All sends from ``src`` to ``dst`` in send order."""
        return [
            message
            for _, kind, message in self.entries
            if kind is TraceKind.SEND
            and message.src == src
            and message.dst == dst
        ]

    def round_trip_counts(self) -> dict[OperationId, int]:
        """Rounds observed on the wire for every operation, in one pass.

        Maps each operation with at least one client-side SEND to the
        highest round number it sent; operations that never reached the
        wire are absent (``.get(op, 0)`` gives :meth:`round_trip_count`'s
        answer for them).  The state is one int per operation — this is the
        fold the per-trial round accounting runs, so its cost must stay
        linear in the trace and its memory independent of it.
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

    def round_trip_count(self, op_id: OperationId) -> int:
        """Rounds observed on the wire for ``op_id`` (max round number sent).

        The one-operation query: a full scan of the trace per call.  Code
        that needs the count of many operations uses
        :meth:`round_trip_counts`; the tests pin the two against each other.
        """
        rounds = {
            message.round_no
            for _, kind, message in self.entries
            if kind is TraceKind.SEND
            and not message.is_reply
            and message.op == op_id
        }
        return max(rounds, default=0)


def merge_transcripts(traces: Iterable[MessageTrace], op_id: OperationId) -> tuple[TranscriptEntry, ...]:
    """Union of transcripts for ``op_id`` across several traces, sorted."""
    entries: list[TranscriptEntry] = []
    for trace in traces:
        entries.extend(trace.client_transcript(op_id))
    return tuple(sorted(entries, key=lambda e: (e.round_no, e.source, e.payload_items)))


#: ``, 'send', `` and friends: what follows the time in an entry's repr.
#: (``kind.value`` is a Python-level descriptor call — once per kind, not
#: once per entry.)
_KIND_INFIX = {kind: f", {kind.value!r}, " for kind in TraceKind}


class _QuotedNames(dict):
    """``repr(str(pid))`` per process, rendered on first use."""

    def __missing__(self, pid: ProcessId) -> str:
        name = self[pid] = repr(str(pid))
        return name


def trace_fingerprint(trace: MessageTrace) -> str:
    """Canonical digest of a full wire trace.

    The load-bearing equality oracle of the harness: the schedule explorer
    uses it as its partial-order-reduction key and witness replay check,
    and the engine-equivalence suite asserts production-vs-reference
    byte-identity through it.  Two traces fingerprint equal exactly when
    they recorded the same observations in the same order.

    The digest is over ``repr((time, kind, src, dst, op serial, op kind,
    op client, round, tag, is_reply, frozen payload))`` of every entry.
    Everything after ``kind`` belongs to the message, and the SEND, HOLD
    and DELIVER entries of one message reference the same object in a log
    nobody appends to any more, so that part is rendered once per message
    and spliced behind each entry's own ``(time, kind, `` prefix.  The
    tuple's repr is written out by hand — one f-string per message, each
    process name rendered once per call — and produces the same bytes.
    """
    digest = hashlib.sha256()
    update = digest.update
    rendered: dict[int, bytes] = {}
    names = _QuotedNames()
    for time, kind, message in trace.entries:
        text = rendered.get(id(message))
        if text is None:
            op = message.op
            text = rendered[id(message)] = (
                f"{names[message.src]}, {names[message.dst]}, {op.serial!r}, "
                f"{op.kind!r}, {names[op.client]}, {message.round_no!r}, "
                f"{message.tag!r}, {message.is_reply!r}, "
                f"{_freeze(message.payload)!r})"
            ).encode("utf-8", "backslashreplace")
        update(f"({time!r}{_KIND_INFIX[kind]}".encode())
        update(text)
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

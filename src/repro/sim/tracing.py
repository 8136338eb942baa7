"""Message traces: the observable record of a simulation run.

A :class:`MessageTrace` is the wire's sink, and it keeps two things.  The
round fold — the highest round each operation sent, raised as client sends
are recorded — is what latency accounting recounts rounds from, cross-checking
the engine's own bookkeeping (:meth:`MessageTrace.round_trip_counts`); it is
one int per operation and reads no log.  The log — every send/hold/delivery
with its virtual time — serves debugging (``--trace`` dumps), observability
spans, and the wire-trace fingerprint that schedule witnesses, their replay
and the engine-equivalence tests compare runs by.  A run nobody will read the
log of switches it off after the build (:meth:`MessageTrace.drop_log`: a
plain trial without ``keep_trace`` or ``observe``, a search schedule), and
then pays only for the fold.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from repro.errors import SimulationError
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

    Every client SEND raises its operation's entry in the round fold as it
    is recorded, so :meth:`round_trip_counts` answers without a pass over
    anything.  The log is kept beside it: recording sits on the simulator's
    per-message hot path, so observations are plain ``(time, kind,
    message)`` tuples in :attr:`entries`, and the :class:`TraceEvent` view
    the public API exposes is materialized lazily (and cached) by
    :attr:`events`.  Both views present the same record in the same order.

    :meth:`drop_log` switches the log off for good — a post-build step, like
    arming observability — and then every reader of the log (:attr:`entries`,
    :attr:`events`, :func:`trace_fingerprint`, :func:`dump_trace_jsonl`, the
    ``repro.obs`` derivations) raises :class:`~repro.errors.SimulationError`
    instead of reading an empty log: an empty log's fingerprint would pass
    for a real witness hash.
    """

    __slots__ = ("log", "_materialized", "_rounds")

    def __init__(self) -> None:
        #: The raw log, or ``None`` once :meth:`drop_log` switched it off.
        #: Writers (the engines append to it directly) test it for ``None``;
        #: readers go through :attr:`entries`, which raises instead.
        self.log: list[tuple[int, TraceKind, Message]] | None = []
        self._materialized: list[TraceEvent] | None = None
        self._rounds: dict[OperationId, int] = {}

    @property
    def entries(self) -> list[tuple[int, TraceKind, Message]]:
        """The raw log: ``(time, TraceKind, Message)`` tuples in record order."""
        entries = self.log
        if entries is None:
            raise SimulationError(
                "this trace's wire log was switched off after the build "
                "(MessageTrace.drop_log): the run kept its round counts only; "
                "run with keep_trace or observe, or use Cluster.build_backend(), "
                "to keep the log"
            )
        return entries

    @property
    def events(self) -> list[TraceEvent]:
        """The recorded observations as :class:`TraceEvent` objects."""
        entries = self.entries
        cached = self._materialized
        if cached is None or len(cached) != len(entries):
            cached = [TraceEvent(*entry) for entry in entries]
            self._materialized = cached
        return cached

    def drop_log(self) -> None:
        """Stop logging: from now on only the round fold is kept."""
        self.log = self._materialized = None

    def record_send(self, time: int, message: Message) -> None:
        self.record_send_batch(time, (message,))

    def record_send_batch(self, time: int, messages: Sequence[Message]) -> None:
        """Record one round's same-tick broadcast (one ``(op, round)``, as
        :meth:`~repro.sim.network.Network.send_round` sends it) in a single
        fold step and a single list extend; an empty broadcast records
        nothing."""
        if not messages:
            return
        first = messages[0]
        if not first.is_reply:
            rounds = self._rounds
            seen = rounds.get(first.op)
            if seen is None or first.round_no > seen:
                rounds[first.op] = first.round_no
        if self.log is not None:
            kind = TraceKind.SEND
            self.log.extend([(time, kind, m) for m in messages])

    def record_hold(self, time: int, message: Message) -> None:
        if self.log is not None:
            self.log.append((time, TraceKind.HOLD, message))

    def record_delivery(self, time: int, message: Message) -> None:
        if self.log is not None:
            self.log.append((time, TraceKind.DELIVER, message))

    def record_drop(self, time: int, message: Message) -> None:
        if self.log is not None:
            self.log.append((time, TraceKind.DROP, message))

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def round_trip_counts(self) -> dict[OperationId, int]:
        """Rounds observed on the wire for every operation.

        Maps each operation with at least one client-side SEND to the
        highest round number it sent; operations that never reached the
        wire are absent (``.get(op, 0)`` counts them as zero rounds).  This
        is the fold the sends raised as they were recorded — one int per
        operation, logged or not — returned as a copy, without reading the
        log.
        """
        return dict(self._rounds)


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
    import hashlib

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

"""The per-message simulator driving clients against storage objects.

The :class:`Simulator` owns the :class:`~repro.sim.events.WaveQueue`, the
network, the object servers, and the set of in-flight client operations.
Client protocols are generators over :class:`~repro.sim.rounds.RoundSpec`
(see :mod:`repro.sim.rounds`); the simulator advances them as replies
arrive.

No register system is built on this class directly: the production engine
is its subclass :class:`~repro.sim.batched.BatchedSimulator`, which replaces
only the drain loop.  The one-entry-at-a-time drain
(:meth:`~repro.sim.events.WaveQueue.run_all` handing each message to
:meth:`Network._deliver <repro.sim.network.Network._deliver>`) stays as the
simplest statement of the semantics: the batched engine falls back to its
walk wherever a wave cannot be batched, and the tests run whole trials on it
as the reference the batched engine must match byte for byte.

Quiescence semantics: :meth:`Simulator.run` drains the queue, then
repeatedly offers every still-pending round the chance to terminate under its
``accept_on_quiescence`` rule; accepting may send new messages (a new round),
so the drain/offer cycle repeats until a fixed point.  Operations still
pending at the fixed point are *incomplete* — the run is a partial run in the
paper's sense, with held messages in transit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Generator, Iterable, Sequence

from repro.errors import ProtocolError, SimulationError
from repro.sim.events import WaveQueue
from repro.sim.network import DeliveryPolicy, Message, Network
from repro.sim.process import ObjectServer
from repro.sim.rounds import RoundOutcome, RoundRecord, RoundSpec
from repro.types import OperationId, ProcessId, fresh_operation_id

#: A client protocol: a generator yielding RoundSpec and returning the
#: operation's result via ``return``.
ProtocolGenerator = Generator[RoundSpec, RoundOutcome, Any]


class OperationStatus(enum.Enum):
    """Lifecycle of a client operation."""

    PENDING = "pending"
    COMPLETE = "complete"
    ABORTED = "aborted"


@dataclass(slots=True)
class ClientOperation:
    """One in-flight or finished read/write operation."""

    op_id: OperationId
    client: ProcessId
    #: ``None`` once the operation completed: its finished generator goes.
    generator: ProtocolGenerator | None
    invoked_at: int
    status: OperationStatus = OperationStatus.PENDING
    result: Any = None
    completed_at: int | None = None
    rounds: list[RoundRecord] = field(default_factory=list)

    @property
    def rounds_used(self) -> int:
        """Number of rounds the operation has started."""
        return len(self.rounds)

    @property
    def current_round(self) -> RoundRecord | None:
        """The round currently collecting replies, if any."""
        if self.rounds and not self.rounds[-1].terminated:
            return self.rounds[-1]
        return None


class Simulator:
    """Deterministic simulation of clients operating on storage objects.

    Args:
        objects: the ``S`` storage object servers (correct and faulty).
        policy: delivery policy; defaults to FIFO unit latency.
        history: optional history recorder with ``record_invocation`` /
            ``record_response`` methods (see :mod:`repro.spec.history`).
        trace: optional message trace (see :mod:`repro.sim.tracing`).
    """

    def __init__(
        self,
        objects: Sequence[ObjectServer],
        policy: DeliveryPolicy | None = None,
        history: Any | None = None,
        trace: Any | None = None,
    ) -> None:
        if not objects:
            raise SimulationError("a storage system needs at least one object")
        self.queue = WaveQueue()
        self.trace = trace
        self.network = Network(self.queue, policy=policy, trace=trace)
        self.network.quiescence_listener = self._on_round_quiescent
        self.objects: dict[ProcessId, ObjectServer] = {}
        for server in objects:
            if server.pid in self.objects:
                raise SimulationError(f"duplicate object id {server.pid}")
            self.objects[server.pid] = server
            server.attach(self.network)
        self.history = history
        self.operations: list[ClientOperation] = []
        self._by_op: dict[OperationId, ClientOperation] = {}
        # Live index of still-pending operations (insertion-ordered, so it
        # iterates exactly like filtering ``self.operations`` by status).
        # Long sharded/explore runs resolve quiescence many times; scanning
        # every operation ever invoked on each fixed point is O(total ops)
        # per drain cycle, while this map shrinks as operations finish.
        self._pending: dict[OperationId, ClientOperation] = {}
        self._attached_clients: set[ProcessId] = set()
        self._busy_clients: set[ProcessId] = set()
        # Clients are sequential: invoking while an operation is outstanding
        # raises ProtocolError.  The schedule explorer flips this flag: when
        # an adversarial schedule blocks an operation forever, the client's
        # *later planned* invocations simply never happen (they are dropped
        # as ABORTED without a history record) — the legal partial-run
        # outcome, not a model violation.
        self.skip_busy_invocations = False
        # The object population is fixed at construction; cache the sorted
        # view once instead of re-sorting on every broadcast.
        self._object_ids: tuple[ProcessId, ...] = tuple(sorted(self.objects))

    # ------------------------------------------------------------------ #
    # Invocation and progress
    # ------------------------------------------------------------------ #

    @property
    def object_ids(self) -> tuple[ProcessId, ...]:
        """All object identifiers in deterministic order."""
        return self._object_ids

    def invoke(
        self,
        client: ProcessId,
        kind: str,
        generator: ProtocolGenerator,
        at: int = 0,
        declared_value: Any = None,
    ) -> ClientOperation:
        """Schedule an operation invocation at virtual time ``now + at``.

        ``declared_value`` is what gets recorded in the history for a write
        invocation (reads record their result at response time).  The model
        allows at most one outstanding operation per client; violations raise
        :class:`~repro.errors.ProtocolError` at start time.
        """
        op_id = fresh_operation_id(client, kind)
        operation = ClientOperation(
            op_id=op_id,
            client=client,
            generator=generator,
            invoked_at=self.queue.now + at,
        )
        self.operations.append(operation)
        self._by_op[op_id] = operation
        self._pending[op_id] = operation
        self._ensure_client_attached(client)

        def start() -> None:
            if operation.client in self._busy_clients:
                if self.skip_busy_invocations:
                    operation.status = OperationStatus.ABORTED
                    self._pending.pop(operation.op_id, None)
                    return
                raise ProtocolError(
                    f"{operation.client} invoked {op_id} while another operation is outstanding"
                )
            self._busy_clients.add(operation.client)
            operation.invoked_at = self.queue.now
            if self.history is not None:
                self.history.record_invocation(
                    op_id, kind=kind, value=declared_value, time=self.queue.now
                )
            self._advance(operation, first=True)

        self.queue.schedule(at, start)
        return operation

    def abort(self, operation: ClientOperation) -> None:
        """Crash the client of ``operation``: it stops taking steps."""
        if operation.status is OperationStatus.PENDING:
            operation.status = OperationStatus.ABORTED
            self._pending.pop(operation.op_id, None)
            self._busy_clients.discard(operation.client)
            self.network.detach(operation.client)
            self._attached_clients.discard(operation.client)

    def run(self, max_events: int | None = 1_000_000) -> int:
        """Drain events, resolving quiescence, until a global fixed point.

        Returns the total number of events executed (the throughput metric
        the performance benchmark tracks as events/sec).  ``max_events``
        bounds the *whole* run: the budget is shared across quiescence
        segments, not re-armed per drain.
        """
        executed = 0
        while True:
            remaining = None if max_events is None else max_events - executed
            executed += self._drain(remaining)
            if not self._resolve_quiescence():
                return executed

    def _drain(self, max_events: int | None) -> int:
        """Execute scheduled work until none is left; returns the count."""
        return self.queue.run_all(self.network._deliver, max_events)

    def close(self) -> None:
        """Drop the waves a budget-truncated run left, the operations (a
        suspended generator may hold its system) and the network's wiring —
        each refers back to the engine — so a finished run is freed by
        reference count; a closed simulator is not run again."""
        self.queue.clear()
        self.operations.clear()
        self._by_op.clear()
        self._pending.clear()
        self.network.close()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _ensure_client_attached(self, client: ProcessId) -> None:
        if client in self._attached_clients:
            return
        self._attached_clients.add(client)
        self.network.attach(client, self._on_client_message)

    def _on_client_message(self, message: Message) -> None:
        if not message.is_reply:
            raise ProtocolError(f"client received a non-reply message: {message}")
        operation = self._by_op.get(message.op)
        if operation is None or operation.status is not OperationStatus.PENDING:
            return  # stale reply to a finished/aborted operation
        record = self._round_record(operation, message.round_no)
        if record is None or record.terminated:
            return  # late reply to an already-terminated round: ignored
        if message.src in record.replies:
            return  # duplicate (cannot happen over reliable FIFO, but be safe)
        record.replies[message.src] = message.payload
        current = operation.current_round
        if current is record and record.spec.rule.satisfied(record.replies):
            self._finish_round(operation, record, quiesced=False)

    def _round_record(self, operation: ClientOperation, round_no: int) -> RoundRecord | None:
        index = round_no - 1
        if 0 <= index < len(operation.rounds):
            return operation.rounds[index]
        return None

    def _finish_round(self, operation: ClientOperation, record: RoundRecord, quiesced: bool) -> None:
        # The outcome takes ownership of ``record.replies`` instead of
        # copying it, and the record keeps only its summary (see
        # RoundRecord): a round is terminated exactly once, and late replies
        # are filtered out on ``record.terminated`` before the reply set is
        # touched (here and in the batched drain), so nothing reads the spec
        # or the reply set of a terminated round.
        replies = record.replies
        record.reply_count = len(replies)
        record.spec = record.replies = None
        record.terminated = True
        outcome = RoundOutcome(record.round_no, replies, quiesced, self.queue.now)
        self._advance(operation, outcome=outcome)

    def _advance(
        self,
        operation: ClientOperation,
        outcome: RoundOutcome | None = None,
        first: bool = False,
    ) -> None:
        try:
            if first:
                spec = next(operation.generator)
            else:
                spec = operation.generator.send(outcome)
        except StopIteration as stop:
            self._complete(operation, stop.value)
            return
        self._start_round(operation, spec)

    def _start_round(self, operation: ClientOperation, spec: RoundSpec) -> None:
        round_no = len(operation.rounds) + 1
        tag = spec.tag
        # Positional: (spec, round_no, started_at, tag, min_count, destinations).
        record = RoundRecord(
            spec, round_no, self.queue.now, tag, spec.rule.min_count, spec.destinations
        )
        operation.rounds.append(record)
        destinations: Iterable[ProcessId] = spec.destinations or self.object_ids
        client = operation.client
        op_id = operation.op_id
        # Messages are built positionally: (src, dst, op, round_no, tag, payload).
        if spec.per_object_payload is None:
            payload = spec.payload
            messages = [
                Message(client, dst, op_id, round_no, tag, payload)
                for dst in destinations
            ]
        else:
            messages = [
                Message(client, dst, op_id, round_no, tag, spec.payload_for(dst))
                for dst in destinations
            ]
        self.network.send_round(messages)

    def _complete(self, operation: ClientOperation, result: Any) -> None:
        operation.status = OperationStatus.COMPLETE
        operation.result = result
        operation.generator = None
        operation.completed_at = self.queue.now
        self._pending.pop(operation.op_id, None)
        self._busy_clients.discard(operation.client)
        if self.history is not None:
            self.history.record_response(operation.op_id, value=result, time=self.queue.now)

    def _on_round_quiescent(self, op_id: OperationId, round_no: int) -> None:
        """Called by the network when a round has no message left in flight.

        This resolves ``accept_on_quiescence`` rules *mid-run*: a round that
        will never hear another reply (everything undelivered is held, i.e.
        indefinitely in transit) may terminate immediately instead of
        waiting for the whole simulation to drain.
        """
        operation = self._by_op.get(op_id)
        if operation is None or operation.status is not OperationStatus.PENDING:
            return
        record = operation.current_round
        if record is None or record.round_no != round_no:
            return
        rule = record.spec.rule
        if rule.satisfied(record.replies):
            self._finish_round(operation, record, quiesced=False)
        elif rule.acceptable_at_quiescence(record.replies):
            self._finish_round(operation, record, quiesced=True)

    def _resolve_quiescence(self) -> bool:
        """Offer quiesced termination to pending rounds; True if any advanced."""
        progressed = False
        # Snapshot: finishing a round may complete the operation (mutating
        # the pending map); the status re-check below keeps the semantics of
        # the old full-list scan, which also saw statuses change mid-loop.
        for operation in list(self._pending.values()):
            if operation.status is not OperationStatus.PENDING:
                continue
            record = operation.current_round
            if record is None:
                continue
            rule = record.spec.rule
            if rule.satisfied(record.replies):
                self._finish_round(operation, record, quiesced=False)
                progressed = True
            elif rule.acceptable_at_quiescence(record.replies):
                self._finish_round(operation, record, quiesced=True)
                progressed = True
        return progressed

    # ------------------------------------------------------------------ #
    # Inspection helpers
    # ------------------------------------------------------------------ #

    def pending_operations(self) -> list[ClientOperation]:
        """Operations that have neither completed nor aborted."""
        return list(self._pending.values())

    def completed_operations(self) -> list[ClientOperation]:
        """Operations that returned a result."""
        return [op for op in self.operations if op.status is OperationStatus.COMPLETE]

    def max_rounds_used(self, kind: str | None = None) -> int:
        """Worst-case rounds over completed operations (optionally by kind)."""
        rounds = [
            op.rounds_used
            for op in self.completed_operations()
            if kind is None or op.op_id.kind == kind
        ]
        return max(rounds, default=0)

"""Reliable point-to-point channels with adversary-controlled timing.

Channels are reliable (no loss, no duplication, no corruption of messages in
transit — Byzantine *objects* lie at the endpoint, not the wire) and FIFO per
ordered pair of processes.  The *delivery policy* decides how long each
message spends in transit; it may also *hold* a message indefinitely, which
models the unbounded asynchrony the lower-bound proofs exploit (a held
message is "in transit" at the end of a partial run).

A scheduled delivery goes straight into the engine's
:class:`~repro.sim.events.WaveQueue` as the message itself, on both
engines: one entry per message on the per-message path, one entry per
broadcast on the fast path (:meth:`Network.send_round`).  Whoever drains the
queue hands each message to :meth:`Network._deliver` (the reference walk) or
inlines that method's work (the batched engine's).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.errors import ChannelError
from repro.types import OperationId, ProcessId

if TYPE_CHECKING:  # the queue's entries are this module's messages
    from repro.sim.events import WaveQueue


@dataclass(slots=True)
class Message:
    """One message between a client and an object.

    ``op``/``round_no``/``tag`` identify the protocol round the message
    belongs to; ``payload`` is the protocol-specific content.  ``is_reply``
    distinguishes an object's response from a client's invocation.

    Treated as immutable by convention but deliberately not ``frozen``:
    one instance is allocated per message on the wire, and the frozen
    ``object.__setattr__`` construction path costs measurably more on the
    simulator's hottest allocation site.  Messages are never hashed.
    """

    src: ProcessId
    dst: ProcessId
    op: OperationId
    round_no: int
    tag: str
    payload: Mapping[str, Any]
    is_reply: bool = False


class DeliveryPolicy:
    """Strategy deciding the in-transit delay of every message.

    Return an integer delay to schedule delivery, or ``None`` to hold the
    message indefinitely (it stays in transit for the rest of the run).

    A policy may also declare its **shape** through two read-only facts,
    which is what lets the network serve it from the batched fast path
    (:meth:`Network.send_round`, the reply walk of the batched engine)
    instead of asking :meth:`delay` message by message:

    * :attr:`uniform_latency` — the constant transit time of every
      message the policy delivers, or ``None`` (the default) when delays
      vary or the policy makes no promise.  Declaring it guarantees that
      ``delay(message, now)`` is either that constant or ``None``, whatever
      ``message`` and ``now`` are.
    * :attr:`hold_check` — read only when a latency is declared: a pure
      ``Message -> bool`` "this message stays in transit", or ``None`` when
      the policy never holds anything.  Declaring it guarantees that
      ``delay(message, now) is None`` exactly when ``hold_check(message)``,
      and that the verdict depends on the message alone — not on virtual
      time, not on what was sent before.  Every message handed to the
      network is judged exactly once, in send order — by ``hold_check`` on
      the fast path, by ``delay`` on the per-message path — so a policy
      whose two methods share their bookkeeping may *record* what it saw
      (the explorer's :class:`~repro.explore.controlled.ControlledDelivery`
      does: a message's place in that sequence is its ordinal in the
      duplicate-trace key) as long as its answer never depends on the
      record.

    A subclass that declares neither stays on the per-message path and
    only has to implement :meth:`delay`.  A declaration speaks for the
    ``delay`` body it was written beside, so a subclass that overrides
    ``delay`` without restating :attr:`uniform_latency` has the inherited
    declaration withdrawn and is asked message by message again — a
    time-dependent override of a shaped policy keeps working unchanged.  A
    policy that can hold writes ``hold_check`` as a method reading the same
    attributes ``delay`` reads, so the two cannot drift apart when one of
    them is reassigned.
    """

    uniform_latency: int | None = None
    hold_check: Callable[[Message], bool] | None = None

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "delay" in cls.__dict__ and "uniform_latency" not in cls.__dict__:
            cls.uniform_latency = None

    def delay(self, message: Message, now: int) -> int | None:
        raise NotImplementedError


class FifoDelivery(DeliveryPolicy):
    """Deliver every message after a fixed delay (default: one tick).

    A subclass may hold messages by declaring a :attr:`hold_check`, which
    ``delay`` asks too — the explorer's
    :class:`~repro.explore.controlled.ControlledDelivery` is one: its shape
    and its per-message answer are then one judgment.
    """

    def __init__(self, latency: int = 1) -> None:
        if latency < 1:
            raise ChannelError("latency must be at least one tick")
        self.latency = latency

    @property
    def uniform_latency(self) -> int:
        return self.latency

    def delay(self, message: Message, now: int) -> int | None:
        hold_check = self.hold_check
        if hold_check is not None and hold_check(message):
            return None
        return self.latency


class SelectiveHold(DeliveryPolicy):
    """Hold messages matching a predicate; delegate the rest.

    The lower-bound adversary uses this to keep chosen replies "in transit"
    (:class:`~repro.faults.schedules.WithholdFrom`).  It declares no shape,
    so the network asks :meth:`delay` message by message and ``hold_if``
    may read anything; the explorer's
    :class:`~repro.explore.controlled.ControlledDelivery` is the hold that
    runs on the fast path.
    """

    def __init__(self, hold_if: Callable[[Message], bool], base: DeliveryPolicy | None = None) -> None:
        self.hold_if = hold_if
        self.base = base or FifoDelivery()

    def delay(self, message: Message, now: int) -> int | None:
        if self.hold_if(message):
            return None
        return self.base.delay(message, now)


class Network:
    """The message fabric binding processes to the wave queue.

    Responsibilities: route messages, enforce per-channel FIFO order, apply
    the delivery policy, and notify an optional trace.
    """

    def __init__(
        self,
        queue: WaveQueue,
        policy: DeliveryPolicy | None = None,
        trace: "Any | None" = None,
    ) -> None:
        self._queue = queue
        self.policy = policy or FifoDelivery()
        self.trace = trace
        self._handlers: dict[ProcessId, Callable[[Message], None]] = {}
        # Per-channel watermark of the latest scheduled delivery time,
        # used to keep channels FIFO under variable delays.
        self._fifo_watermark: dict[tuple[ProcessId, ProcessId], int] = {}
        # Scheduled (not held) deliveries per operation round: when the
        # count drops to zero the round has no message left in flight and
        # the quiescence listener (the simulator) is told — this is what
        # lets "wait for all plausibly-correct replies" resolve mid-run.
        self._inflight: dict[tuple[Any, int], int] = {}
        self.quiescence_listener: Callable[[Any, int], None] | None = None

    def attach(self, pid: ProcessId, handler: Callable[[Message], None]) -> None:
        """Register the message handler of process ``pid``."""
        self._handlers[pid] = handler

    def detach(self, pid: ProcessId) -> None:
        """Remove a process (it stops receiving; models a crashed client)."""
        self._handlers.pop(pid, None)

    def close(self) -> None:
        """Unwire the processes and the listener (both refer back to the engine)."""
        self._handlers.clear()
        self.quiescence_listener = None

    def send(self, message: Message) -> None:
        """Hand ``message`` to the fabric.

        The destination must be attached now or by delivery time; sending to
        a never-attached process raises :class:`~repro.errors.ChannelError`
        at delivery.
        """
        if self.trace is not None:
            self.trace.record_send(self._queue.now, message)
        delay = self.policy.delay(message, self._queue.now)
        if delay is None:
            self.hold(message)
            return
        self._schedule_delivery(message, delay)

    def hold(self, message: Message) -> None:
        """Leave ``message`` in transit for good (its SEND is already on the
        trace); the trace records the HOLD."""
        if self.trace is not None:
            self.trace.record_hold(self._queue.now, message)

    def fast_shape(self) -> tuple[int, Callable[[Message], bool] | None] | None:
        """``(latency, hold_check)`` when the fast path may serve the policy.

        The fast path skips :meth:`DeliveryPolicy.delay` and the FIFO
        watermark.  Under a declared uniform latency both are inert: every
        delivery lands one constant after its send, so channel FIFO holds
        by monotonicity of virtual time, and a held message never lands at
        all.
        """
        policy = self.policy
        latency = policy.uniform_latency
        if latency is None:
            return None
        return latency, policy.hold_check

    def _schedule_delivery(self, message: Message, delay: int) -> None:
        # Hot path: one call per message on the wire.  Locals and a single
        # ``now`` read keep the per-message overhead minimal.
        now = self._queue.now
        channel = (message.src, message.dst)
        deliver_at = now + delay if delay > 1 else now + 1
        watermark = self._fifo_watermark.get(channel, 0)
        if deliver_at < watermark:  # never overtake an earlier message
            deliver_at = watermark
        self._fifo_watermark[channel] = deliver_at
        round_key = (message.op, message.round_no)
        self._inflight[round_key] = self._inflight.get(round_key, 0) + 1
        self._queue.push_message(deliver_at, message)

    def send_round(self, messages: list[Message]) -> None:
        """Send one round's whole broadcast in a single call.

        Every message must belong to the same ``(op, round)`` — exactly
        what a round start produces.  Semantically identical to calling
        :meth:`send` once per message in order, and that is what happens
        unless the policy declares a shape (:meth:`fast_shape`).  Under a
        declared shape the per-message policy dispatch and watermark
        bookkeeping are provably inert, and the shared round key means the
        delivered part of the broadcast is one trace extend, one in-flight
        bump and one wave entry (:meth:`WaveQueue.push_run
        <repro.sim.events.WaveQueue.push_run>`).  Held messages are parked
        with their ``SEND``, ``HOLD`` entries at exactly the position
        :meth:`send` would have put them; the hold verdicts are taken first,
        which a pure check cannot tell.
        """
        shape = self.fast_shape()
        if shape is None:
            for message in messages:
                self.send(message)
            return
        latency, hold_check = shape
        now = self._queue.now
        trace = self.trace
        verdicts = [hold_check(m) for m in messages] if hold_check is not None else ()
        if any(verdicts):
            delivered = []
            for message, held in zip(messages, verdicts):
                if trace is not None:
                    trace.record_send(now, message)
                if held:
                    self.hold(message)
                else:
                    delivered.append(message)
        else:
            delivered = messages
            if trace is not None:
                trace.record_send_batch(now, messages)
        if not delivered:
            return
        first = delivered[0]
        round_key = (first.op, first.round_no)
        inflight = self._inflight
        inflight[round_key] = inflight.get(round_key, 0) + len(delivered)
        self._queue.push_run(now + latency, delivered)

    def _deliver(self, message: Message) -> None:
        handler = self._handlers.get(message.dst)
        if handler is not None:
            if self.trace is not None:
                self.trace.record_delivery(self._queue.now, message)
            handler(message)  # may schedule more messages for this round
        elif self.trace is not None:
            # A crashed/detached client: the message is dropped on the floor,
            # which is indistinguishable from the client never reading it.
            self.trace.record_drop(self._queue.now, message)
        # In-flight count of the message's round; the last delivery
        # notifies round quiescence.
        round_key = (message.op, message.round_no)
        remaining = self._inflight.get(round_key, 1) - 1
        if remaining > 0:
            self._inflight[round_key] = remaining
            return
        self._inflight.pop(round_key, None)
        if self.quiescence_listener is not None:
            self.quiescence_listener(message.op, message.round_no)

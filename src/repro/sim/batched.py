"""Round-stepped batched simulation engine — the production engine.

:func:`repro.registers.base._assemble` builds every register system on
:class:`BatchedSimulator`; no option selects another engine.  Its base
class, the per-message :class:`~repro.sim.simulator.Simulator`, is what
unshaped policies, mis-addressed messages and budget-truncated waves still
run here, and the reference the tests compare this engine against.

Both engines schedule into the same :class:`~repro.sim.events.WaveQueue`:
all work due at one virtual tick forms a wave, and a round's broadcast is
one :meth:`~repro.sim.network.Network.send_round` call and one wave entry
(:meth:`~repro.sim.events.WaveQueue.push_run`).  They differ only in the
drain.  The reference walks each wave entry by entry, one callback per
message (:meth:`~repro.sim.events.WaveQueue.run_all`).  The protocols of
the paper are round-structured — a client broadcasts to all ``S`` objects,
objects reply immediately, and the client advances once a quorum rule is
met — so :class:`BatchedSimulator` walks the wave one maximal same-round
*run* at a time instead, in entry order.

What a wave batches is the bookkeeping *around* a run: the replies a run
provokes are parked as one wave entry too; a reply run resolves its round
rule against one lookup of the round's record; in-flight accounting and
quiescence collapse to one step per run.  What it does *not* batch is the
object's work: every invocation is dispatched on its own, through the
inlined :meth:`~repro.sim.process.ObjectServer.receive`, at its position in
the walk — an object replies to each message before it receives the next
(Definition 1).

Equivalence contract
--------------------

The batched engine is *observably identical* to the reference — not
merely equivalent in outcomes, but byte-identical in every artifact the
harness exposes: recorded histories (including global step numbers), wire
traces (event for event, in order), executed event counts, budget
truncation points, and the order in which handlers and fault behaviours are
called.  Two facts make this possible:

* **Everything stays in entry order.**  The wave is walked in exactly the
  queue's ``(time, seq)`` order: handler calls, trace events, reply
  sends, delivery-policy consultations, history steps and round
  terminations all happen at the same position in the run as they would
  one entry at a time.  In particular a round that overshoots its
  quorum within one tick terminates with exactly the same reply *prefix*
  either way.
* **A run's in-flight count can only reach zero on its last entry** (the
  rest of the run is itself still in flight before that), so one combined
  in-flight update per run fires the quiescence listener at exactly the
  reference's position.

The fast path and its precondition
----------------------------------

Sending has one fast path and one per-message path, on both engines.  The
per-message path is :meth:`Network.send <repro.sim.network.Network.send>`:
ask the policy's ``delay``, park or schedule, keep the channel's FIFO
watermark.  The fast path — :meth:`~repro.sim.network.Network.send_round`
for a round's broadcast, and the reply branch of the walk below — writes
the trace entries, bumps the in-flight count once and parks the delivered
messages as one run.  Which one serves a network is decided by the *shape
its policy declares* (:class:`~repro.sim.network.DeliveryPolicy`:
``uniform_latency`` and ``hold_check``), never by the policy's type:

* **A uniform latency makes the watermark inert.**  Every delivered
  message lands one constant after its send, so a channel's deliveries
  are ordered by their sends and the clamp "never before the previous
  delivery on this channel" never binds; nor does ``delay`` need asking
  for a number it has already declared.
* **A pure ``hold_check`` makes the policy dispatch inert.**  The verdict
  depends on the message alone, so it may be taken at any point between
  the message's creation and its trace entry — a broadcast takes all its
  verdicts first and then writes ``SEND`` (and, for a held message,
  ``HOLD``) at exactly the per-message position.  It is consulted once per
  message, in send order, so a policy that counts what it sees counts the
  same.

Two policies declare a shape: :class:`~repro.sim.network.FifoDelivery`
(its latency, no hold check) and the explorer's
:class:`~repro.explore.controlled.ControlledDelivery` (one tick, its
held-link test) — every free trial and every searched schedule.  Policies
that declare none (random delays, reply withholding, anything custom —
including a subclass that overrides ``delay`` below the class that
declared one) run entirely on the per-message path.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping
from typing import Any, Sequence

from repro.errors import SimulationError
from repro.sim.events import run_wave
from repro.sim.network import Message
from repro.sim.simulator import OperationStatus, Simulator
from repro.sim.tracing import TraceKind


class BatchedSimulator(Simulator):
    """Drop-in :class:`Simulator` draining its waves a run at a time.

    Same construction signature, same ``invoke``/``run``/``operations``/
    history/trace surface, byte-identical observable behaviour (see the
    module docstring for why).  The one difference is :meth:`_drain`.
    """

    def _drain(self, max_events: int | None) -> int:
        """Run wave after wave until no work is scheduled; returns the count.

        Budget semantics mirror :meth:`~repro.sim.events.WaveQueue.run_all`
        exactly: the run raises once ``max_events`` entries executed with
        work still pending, having executed precisely the same prefix of the
        schedule.

        This is the engine's whole hot loop, fused into one frame: waves
        average only a few entries, so per-wave function calls and attribute
        reloads would rival the per-entry work itself.  The wave is walked
        in entry order; broadcast runs arrive as single list entries (see
        :meth:`~repro.sim.events.WaveQueue.push_run`), so a run's reply-rule
        resolution and in-flight accounting collapse to one bookkeeping step,
        while
        everything order-sensitive (trace events, reply sends, round
        terminations) happens at its exact position in the reference walk.
        """
        queue = self.queue
        buckets = queue._buckets
        times = queue._times
        heappop = heapq.heappop
        objects = self.objects
        network = self.network
        handlers = network._handlers
        inflight = network._inflight
        listener = network.quiescence_listener
        trace = self.trace
        trace_entries = trace.log if trace is not None else None
        deliver_kind = TraceKind.DELIVER
        send_kind = TraceKind.SEND
        drop_kind = TraceKind.DROP
        # Under a declared policy shape reply sends take an inlined fast
        # path in the walk (see Network.fast_shape for why that is inert).
        shape = network.fast_shape()
        latency, hold_check = shape if shape is not None else (1, None)
        by_op = self._by_op
        pending_status = OperationStatus.PENDING
        budgeted = max_events is not None
        executed = 0

        while times:
            if budgeted and executed >= max_events:
                raise SimulationError(f"event budget of {max_events} exhausted")
            now = heappop(times)
            queue._now = now
            wave = buckets.pop(now)
            if budgeted:
                size = 0
                for entry in wave:
                    size += len(entry) if entry.__class__ is list else 1
                if executed + size > max_events:
                    # The budget ends inside this wave: its admissible
                    # prefix runs entry by entry, and the walk raises at
                    # the cut — entries past it must not run their handlers.
                    return run_wave(wave, network._deliver, executed, max_events)
            out_bucket: list[Any] | None = None  # lazily bound next-tick bucket

            for entry in wave:
                cls = entry.__class__
                if cls is not list:
                    if cls is not Message:
                        entry()  # an operation-start action
                        executed += 1
                        continue
                    run: Sequence[Message] = (entry,)  # slow-path single delivery
                else:
                    run = entry
                executed += len(run)
                first = run[0]
                op_id = first.op
                round_no = first.round_no
                # In-flight delta of the run: −1 per finished delivery, +1
                # per fast-path reply send (slow-path sends bump the count
                # inside Network.send themselves).
                delta = 0

                if not first.is_reply:
                    # Invocation run: one message per destination object.
                    out_run: list[Message] | None = [] if shape is not None else None
                    for message in run:
                        dst = message.dst
                        server = objects.get(dst)
                        if server is None:
                            # Mis-addressed protocol message: take the
                            # full event path (its own bookkeeping).
                            network._deliver(message)
                            continue
                        # Inlined ObjectServer.receive.
                        server.messages_seen += 1
                        behavior = server.behavior
                        if behavior is None:
                            payload = server.handler.handle(server.state, message)
                        elif not behavior.before_handle(server, message):
                            payload = None
                        else:
                            payload = behavior.reply(
                                server, message,
                                server.handler.handle(server.state, message),
                            )
                        delta -= 1
                        if trace_entries is not None:
                            trace_entries.append((now, deliver_kind, message))
                        if payload is None:
                            continue
                        # Positional: (src, dst, op, round_no, tag, payload, is_reply).
                        reply = Message(
                            dst, message.src, op_id, round_no, message.tag, payload, True
                        )
                        if out_run is None:
                            network.send(reply)
                            continue
                        if trace_entries is not None:
                            trace_entries.append((now, send_kind, reply))
                        if hold_check is not None and hold_check(reply):
                            network.hold(reply)
                        else:
                            delta += 1
                            out_run.append(reply)
                    if out_run:
                        # The run's replies form one contiguous same-round
                        # run in the next wave — park them as one entry.
                        if out_bucket is None:
                            out_time = now + latency
                            out_bucket = buckets.get(out_time)
                            if out_bucket is None:
                                out_bucket = buckets[out_time] = []
                                heapq.heappush(times, out_time)
                        out_bucket.append(out_run)
                else:
                    delta = -len(run)
                    client = first.dst
                    if client not in handlers:
                        # Crashed/aborted client: replies dropped on the floor.
                        if trace_entries is not None:
                            trace_entries.extend([(now, drop_kind, m) for m in run])
                    else:
                        operation = by_op.get(op_id)
                        record = None
                        if operation is not None and operation.status is pending_status:
                            record = self._round_record(operation, round_no)
                        if record is None or record.terminated:
                            # Stale replies to a finished operation or
                            # round: observed on the wire, ignored.
                            if trace_entries is not None:
                                trace_entries.extend(
                                    [(now, deliver_kind, m) for m in run]
                                )
                        else:
                            rule = record.spec.rule
                            predicate = rule.predicate
                            min_count = rule.min_count
                            replies = record.replies
                            for message in run:
                                if trace_entries is not None:
                                    trace_entries.append((now, deliver_kind, message))
                                # A terminated record cannot be the current
                                # round (rounds only start after the
                                # previous one terminates), so this one
                                # check replaces the event path's status +
                                # currency checks.
                                if record.terminated:
                                    continue
                                src = message.src
                                if src in replies:
                                    continue
                                payload = message.payload
                                if payload.__class__ is not dict and not isinstance(
                                    payload, Mapping
                                ):
                                    continue  # malformed, as in _on_client_message
                                replies[src] = payload
                                if len(replies) >= min_count and (
                                    predicate is None or predicate(replies)
                                ):
                                    self._finish_round(operation, record, quiesced=False)

                if delta:
                    # Batched in-flight accounting for the run.  The count
                    # can only reach zero on the run's last entry (earlier
                    # entries leave the rest of the run itself in flight),
                    # so one update at the end fires quiescence at exactly
                    # the event path's position.
                    key = (op_id, round_no)
                    remaining = inflight.get(key, -delta) + delta
                    if remaining > 0:
                        inflight[key] = remaining
                    else:
                        inflight.pop(key, None)
                        if listener is not None:
                            listener(op_id, round_no)
        return executed

"""Span derivation: one structured timeline record per thing that happened.

Spans are derived **after** a run, from bookkeeping the engines already
pin byte-identical across the event and batched simulators (operations
and their :class:`~repro.sim.rounds.RoundRecord`s, the wire trace, the
observe-gated phase and sync logs).  Nothing here touches the simulation
hot path, and every produced record is plain JSON-primitive data — a pure
function of the run — so span dumps compare equal across engines and
across serial/parallel trial execution exactly like the structured
results do.

Span vocabulary (the ``"span"`` key of every record):

``op``
    One client operation: invocation/completion times, status, rounds
    used.  Membership repairs are operations too (``op == "repair"``).
``round``
    One protocol round of an operation: start, termination time (the
    next round's start, or the operation's completion — both happen
    synchronously at the same virtual tick), quorum-wait duration,
    destinations, replies counted vs needed, and how many of the round's
    messages the adversary held or the fabric dropped.  Repair rounds
    additionally carry ``"phase"``: ``"transfer"`` for the state-transfer
    read, ``"install"`` for the install round.
``recovery``
    One outage window of a crash-recover/churn fault behaviour: from the
    crash transition to the rejoin (``end`` is ``None`` for a permanent
    loss that never rejoins).
``sync``
    One durable-journal sync: the virtual time plus the records and frame
    bytes that became durable (point event, no duration).

Round termination times are not stored by the engines; they are derived
from the invariant that :meth:`Simulator._finish_round`, the next
``_start_round`` and operation completion all run synchronously at the
same ``queue.now`` — so round ``r`` ends exactly when round ``r+1``
starts (or when the operation completes, for its last round).  A round
still waiting at quiescence has ``end``/``wait`` of ``None``.
"""

from __future__ import annotations

from typing import Any

from repro.sim.simulator import OperationStatus, Simulator
from repro.sim.tracing import MessageTrace, TraceKind

#: Repair-round tag → human phase name (see :mod:`repro.registers.reconfig`).
REPAIR_PHASES = {
    "RECONFIG_XFER_READ": "transfer",
    "RECONFIG_XFER_INSTALL": "install",
}


def _held_dropped(trace: MessageTrace) -> dict[tuple[Any, int], list[int]]:
    """Per-(operation, round) counts of held and dropped messages."""
    counts: dict[tuple[Any, int], list[int]] = {}
    for _time, kind, message in trace.entries:
        if kind is TraceKind.HOLD:
            slot = 0
        elif kind is TraceKind.DROP:
            slot = 1
        else:
            continue
        key = (message.op, message.round_no)
        entry = counts.get(key)
        if entry is None:
            counts[key] = entry = [0, 0]
        entry[slot] += 1
    return counts


def derive_spans(simulator: Simulator, trace: MessageTrace) -> list[dict[str, Any]]:
    """Build the run's span records from the engine's own bookkeeping.

    Emission order is canonical and deterministic: operations in
    invocation order, each immediately followed by its rounds; then
    recovery windows sorted by (object, start); then syncs sorted by
    (object, time).
    """
    spans: list[dict[str, Any]] = []
    adversary = _held_dropped(trace)
    object_ids = simulator.object_ids
    for operation in simulator.operations:
        op_id = operation.op_id
        end = operation.completed_at
        spans.append({
            "span": "op",
            "client": str(operation.client),
            "op": op_id.kind,
            "serial": op_id.serial,
            "start": operation.invoked_at,
            "end": end,
            "status": operation.status.value,
            "rounds": operation.rounds_used,
        })
        rounds = operation.rounds
        for index, record in enumerate(rounds):
            if index + 1 < len(rounds):
                round_end: int | None = rounds[index + 1].started_at
            else:
                round_end = end
            destinations = record.destinations or object_ids
            replies = record.replies
            held, dropped = adversary.get((op_id, record.round_no), (0, 0))
            span: dict[str, Any] = {
                "span": "round",
                "client": str(operation.client),
                "op": op_id.kind,
                "serial": op_id.serial,
                "round": record.round_no,
                "tag": record.tag,
                "start": record.started_at,
                "end": round_end,
                "wait": None if round_end is None else round_end - record.started_at,
                "destinations": [str(dst) for dst in destinations],
                # A terminated round kept its count; one still collecting
                # at the end of a held run still has its reply set.
                "replies": record.reply_count if replies is None else len(replies),
                "needed": record.min_count,
                "held": held,
                "dropped": dropped,
            }
            phase = REPAIR_PHASES.get(record.tag)
            if phase is not None:
                span["phase"] = phase
            spans.append(span)
    spans.extend(_recovery_spans(simulator))
    spans.extend(_fault_spans(simulator))
    spans.extend(_sync_spans(simulator))
    return spans


#: Phases that open/close outage windows; every other logged phase is a
#: point fault event (see :func:`_fault_spans`).
_WINDOW_PHASES = ("down", "recovered")


def _recovery_spans(simulator: Simulator) -> list[dict[str, Any]]:
    """Outage windows from the observe-gated fault phase logs."""
    spans: list[dict[str, Any]] = []
    for pid in sorted(simulator.objects, key=str):
        server = simulator.objects[pid]
        behavior = server.behavior
        log = getattr(behavior, "phase_log", None)
        if not log:
            continue
        open_at: int | None = None
        for time, phase in log:
            if phase == "down":
                open_at = time
            elif phase == "recovered" and open_at is not None:
                spans.append({
                    "span": "recovery",
                    "object": str(pid),
                    "behavior": behavior.describe(),
                    "start": open_at,
                    "end": time,
                })
                open_at = None
        if open_at is not None:
            # Never rejoined (permanent loss): an open outage window.
            spans.append({
                "span": "recovery",
                "object": str(pid),
                "behavior": behavior.describe(),
                "start": open_at,
                "end": None,
            })
    return spans


def _fault_spans(simulator: Simulator) -> list[dict[str, Any]]:
    """Point fault events from the non-outage phases of the fault logs.

    Byzantine onsets (``stale``/``forging``/``replay``), per-message
    omissions (``omit``) and timed-fault activations (``fired``) have no
    natural end time, so each becomes a single ``fault`` event rather than
    a window — every fault family is visible on the span timeline.
    """
    spans: list[dict[str, Any]] = []
    for pid in sorted(simulator.objects, key=str):
        server = simulator.objects[pid]
        behavior = server.behavior
        log = getattr(behavior, "phase_log", None)
        if not log:
            continue
        for time, phase in log:
            if phase in _WINDOW_PHASES:
                continue
            spans.append({
                "span": "fault",
                "object": str(pid),
                "behavior": behavior.describe(),
                "phase": phase,
                "time": time,
            })
    return spans


def _sync_spans(simulator: Simulator) -> list[dict[str, Any]]:
    """Durable-journal sync points from the observe-gated sync logs."""
    spans: list[dict[str, Any]] = []
    for pid in sorted(simulator.objects, key=str):
        store = getattr(simulator.objects[pid].handler, "store", None)
        log = getattr(store, "sync_log", None)
        if not log:
            continue
        for time, records, nbytes in log:
            spans.append({
                "span": "sync",
                "object": str(pid),
                "time": time,
                "records": records,
                "bytes": nbytes,
            })
    return spans

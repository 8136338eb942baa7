"""Process automata: storage objects and their fault behaviours.

A storage object is passive: on receiving a client message it updates its
local state and replies immediately, exactly as Definition 1 of the paper
requires ("objects, on receiving such a message, reply to the client before
receiving any other messages").  The protocol-specific part lives in an
:class:`ObjectHandler`; the :class:`ObjectServer` wraps it with the fault
behaviour (if any), state snapshotting, and network plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.sim.network import Message, Network
from repro.types import ProcessId


def copy_state(value: Any) -> Any:
    """Structural copy of a protocol state.

    Protocol states are nests of dict/list/set containers whose leaves are
    immutable (ints, strings, :class:`~repro.types.TaggedValue`,
    :class:`~repro.types.Timestamp`, tuples thereof).  Copying only the
    containers gives deep-copy semantics at a fraction of the cost — the
    lower-bound constructions snapshot object state before *every* delivery,
    so this is the hottest function in the proof engine.
    """
    if isinstance(value, dict):
        return {key: copy_state(item) for key, item in value.items()}
    if isinstance(value, list):
        return [copy_state(item) for item in value]
    if isinstance(value, set):
        return set(value)
    return value


class ObjectHandler:
    """Protocol-specific logic of one storage object.

    Implementations are pure with respect to the harness: they see a mutable
    ``state`` dict and the invocation message, mutate the state, and return
    the reply payload.  One handler class per protocol.  :meth:`handle` is
    the only dispatch: once per delivered invocation, in global delivery
    order, on both engines.
    """

    def initial_state(self) -> dict[str, Any]:
        """Fresh per-object state."""
        raise NotImplementedError

    def handle(self, state: dict[str, Any], message: Message) -> Mapping[str, Any]:
        """Apply ``message`` to ``state`` and return the reply payload."""
        raise NotImplementedError


class FaultBehavior:
    """How a faulty object deviates from its handler.

    The behaviour sees the honest reply the handler *would* have produced and
    may replace it (lie), or suppress it (return ``None`` — silence).  The
    honest state update has already happened when :meth:`reply` runs; a
    behaviour that wants to present forged state must build its own payload.
    :meth:`before_handle` and :meth:`reply` are called once per delivery, in
    global delivery order, so a stateful behaviour sees the same interleaving
    whichever engine runs it.

    Observability hooks: when a run is observed, the backend arms ``clock``
    (a zero-argument virtual-time reader) and ``phase_log`` on every
    behaviour; crash/recover behaviours then record ``(time, "down")`` /
    ``(time, "recovered")`` transitions via :meth:`log_phase`, from which
    :func:`repro.obs.spans.derive_spans` reconstructs outage windows.
    Both stay ``None`` in unobserved runs, making the hook a no-op.
    """

    #: Armed by the backend when observing; ``None`` costs one attribute
    #: read per transition in unobserved runs.
    clock = None
    phase_log: list[tuple[int, str]] | None = None

    def log_phase(self, phase: str) -> None:
        """Record a ``down``/``recovered`` transition when observed."""
        if self.clock is not None:
            self.phase_log.append((self.clock(), phase))

    def on_armed(self, server: "ObjectServer") -> None:
        """The behaviour is installed but dormant (timed-fault wrapping).

        :class:`~repro.faults.timing.TimedFault` calls this on the first
        delivery *before* the trigger fires, so behaviours whose damage
        depends on pre-fire configuration (a durable store's sync lag, a
        staggered phase machine) can arm it from the start.  The default
        does nothing — most behaviours need no setup until they fire.
        """

    def on_activate(self, server: "ObjectServer") -> None:
        """The behaviour's trigger point has been reached.

        Called by :class:`~repro.faults.timing.TimedFault` exactly once, on
        the delivery that fires the fault, *before* that delivery's state
        transition — so a behaviour that captures "the genuine state at
        firing time" (stale-echo's freeze) snapshots the state after
        exactly ``at`` handled messages.  The default does nothing.
        """

    def before_handle(self, server: "ObjectServer", message: Message) -> bool:
        """Gate the honest state transition for this delivery.

        Called after ``messages_seen`` is incremented but *before* the
        handler runs.  Returning ``False`` swallows the message entirely:
        no state transition, no persistence, no reply — the behaviour of a
        machine that is down.  The default (``True``) preserves the
        classic contract where the honest update always happens first and
        :meth:`reply` merely decides what to present.  Crash-recover
        behaviours override this to go dark and to rejoin from durable
        state before the triggering message is processed.
        """
        return True

    def reply(
        self,
        server: "ObjectServer",
        message: Message,
        honest_payload: Mapping[str, Any],
    ) -> Mapping[str, Any] | None:
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable label used by fault inventories and span dumps."""
        return type(self).__name__


@dataclass(slots=True)
class ObjectServer:
    """One storage object bound to the network.

    Attributes:
        pid: the object's process identifier (``s_i``).
        handler: protocol logic producing honest replies.
        behavior: fault behaviour, or ``None`` for a correct object.
        state: the protocol state dict (owned by the handler).
    """

    pid: ProcessId
    handler: ObjectHandler
    behavior: FaultBehavior | None = None
    state: dict[str, Any] = field(default_factory=dict)
    messages_seen: int = 0

    def __post_init__(self) -> None:
        if not self.state:
            self.state = self.handler.initial_state()

    def snapshot(self) -> dict[str, Any]:
        """Copy of the current protocol state (σ in the proofs)."""
        return copy_state(self.state)

    def restore(self, snapshot: Mapping[str, Any]) -> None:
        """Overwrite the protocol state with a copy of ``snapshot``."""
        self.state = copy_state(dict(snapshot))

    def receive(self, message: Message) -> Mapping[str, Any] | None:
        """Process one invocation; return the reply payload or None (silent).

        Correct objects always reply.  Faulty objects consult their
        behaviour twice: :meth:`FaultBehavior.before_handle` may swallow
        the delivery outright (a machine that is down performs no state
        transition at all), and otherwise the *honest* state transition is
        applied first and :meth:`FaultBehavior.reply` may forge or
        suppress what is presented.  The update-first order matches the
        proofs, where malicious objects hold genuine states and merely
        *present* old ones.

        The one object dispatch: ``BatchedSimulator._drain`` inlines it, once
        per invocation at its position in the walk; the per-message path and
        the tests' reference engine call it.  The fault-behaviour × backend
        cells and the dispatch-order test of ``tests/test_batched_engine.py``
        fail if the two drift.
        """
        self.messages_seen += 1
        behavior = self.behavior
        if behavior is None:
            return self.handler.handle(self.state, message)
        if not behavior.before_handle(self, message):
            return None
        honest = self.handler.handle(self.state, message)
        return behavior.reply(self, message, honest)

    def attach(self, network: Network) -> None:
        """Wire this object into ``network``: reply to every delivery."""

        def on_message(message: Message, _network: Network = network) -> None:
            payload = self.receive(message)
            if payload is None:
                return
            _network.send(
                Message(
                    src=self.pid,
                    dst=message.src,
                    op=message.op,
                    round_no=message.round_no,
                    tag=message.tag,
                    payload=payload,
                    is_reply=True,
                )
            )

        network.attach(self.pid, on_message)

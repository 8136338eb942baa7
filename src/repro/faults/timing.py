"""Fault timing as data: fire a registered behaviour at a chosen point.

Every behaviour in :mod:`repro.faults` decides *when* it deviates with its
own facade-scheduled knobs (``survive_messages``, construction-time
freezes).  :class:`TimedFault` lifts that decision out of the behaviour and
into a single wrapper parameter: the inner behaviour stays **dormant** —
byte-identical to a correct object — until the owning object has handled
``at`` messages, and fires on the next delivery.  Trigger points are
measured in per-object handled-message counts (``ObjectServer.
messages_seen``), the same deterministic clock the crash behaviours
already use, so a timed fault is picklable, engine-independent, and
addressable by the schedule explorer as an ordinary decision
(:class:`~repro.explore.controlled.FaultTrigger`).

Firing is a three-step handshake with the inner behaviour:

* while dormant, the wrapper answers honestly and (once) calls
  :meth:`~repro.sim.process.FaultBehavior.on_armed`, so the crash
  machine's pre-fire setup (:class:`~repro.faults.recovery.CrashMachine`:
  its durable-store check, fsync-lag's sync-lag knob, the rolling crash
  point) takes effect from the start, exactly as facade-scheduled;
* on the firing delivery it calls
  :meth:`~repro.sim.process.FaultBehavior.on_activate` *before* the
  delivery's state transition (stale-echo freezes the genuine state after
  exactly ``at`` messages) and logs a ``fired`` phase when observed;
* from then on every ``before_handle``/``reply`` delegates to the inner
  behaviour permanently.

Inner behaviours that count absolute ``messages_seen`` (``crash`` and
the crash machine's faults) have their own timing knobs — the registry's
:attr:`~repro.api.faults.FaultSpec.timing` tuple — forced to zero by
:func:`timed_fault`, so they deviate on the firing delivery: the wrapper
owns the *when*, the inner behaviour owns the *what*.  One knob does
more than schedule: ``flap`` also spaces its later cycles with
``survive_messages``, so ``timed(flap)`` crashes again on the first
delivery after each rejoin.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.errors import ConfigurationError
from repro.sim.network import Message
from repro.sim.process import FaultBehavior, ObjectServer


class TimedFault(FaultBehavior):
    """Behave honestly for ``at`` deliveries, then become ``inner``.

    ``fault`` is the registry name of the wrapped behaviour, kept for
    labels and serialization (``inner.describe()`` when built directly).
    """

    def __init__(self, inner: FaultBehavior, at: int, fault: str | None = None) -> None:
        if at < 0:
            raise ConfigurationError(f"trigger points are non-negative, got at={at}")
        self.inner = inner
        self.at = at
        self.fault = fault or inner.describe()
        self.fired = False
        self._armed = False

    def _advance(self, server: ObjectServer) -> None:
        if not self._armed:
            self._armed = True
            self.inner.on_armed(server)
        # messages_seen was already incremented for this delivery, so the
        # fault fires on delivery ``at + 1`` — after ``at`` handled
        # messages, exactly like survive_messages=at would.
        if not self.fired and server.messages_seen > self.at:
            self.fired = True
            self.log_phase("fired")
            self.inner.on_activate(server)

    def before_handle(self, server: ObjectServer, message: Message) -> bool:
        self._advance(server)
        if not self.fired:
            return True
        return self.inner.before_handle(server, message)

    def reply(
        self,
        server: ObjectServer,
        message: Message,
        honest_payload: Mapping[str, Any],
    ) -> Mapping[str, Any] | None:
        if not self.fired:
            return honest_payload
        return self.inner.reply(server, message, honest_payload)

    def describe(self) -> str:
        return f"timed({self.fault}@{self.at})"


def timed_fault(fault: str, at: int = 0, **kwargs: Any) -> TimedFault:
    """Build the behaviour registered under ``fault``, firing after ``at``.

    The inner behaviour's own timing parameters (its
    :attr:`~repro.api.faults.FaultSpec.timing` tuple, e.g.
    ``survive_messages``) are forced to zero — the wrapper is the single
    source of truth for *when*; passing one explicitly is rejected so a
    probe can never carry two contradictory trigger points.  All other
    keyword arguments configure the inner behaviour as usual.
    """
    from repro.api.faults import fault_spec

    spec = fault_spec(fault)
    if spec.name == "timed":
        raise ConfigurationError("timed faults do not nest")
    clash = sorted(set(kwargs) & set(spec.timing))
    if clash:
        raise ConfigurationError(
            f"timed({spec.name}) owns the trigger point; drop "
            f"{', '.join(repr(k) for k in clash)} and use at= instead"
        )
    spec.validate_kwargs(kwargs)
    inner_kwargs = dict(kwargs)
    for knob in spec.timing:
        inner_kwargs[knob] = 0
    return TimedFault(spec.build(**inner_kwargs), at=at, fault=spec.name)

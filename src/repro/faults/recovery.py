"""Crash faults: one phase machine for every object that goes dark mid-run.

The paper's objects are crash-stop; these behaviours model the crash-
*recover* machines of real stores and the fleet-level churn a
reconfigurable system (:mod:`repro.registers.reconfig`) exists to survive.
Every one of them is a :class:`CrashMachine`, message-counted so it is
deterministic, picklable, and identical on both simulation engines (faulty
objects always take the full per-message dispatch path):

``up``
    Behave honestly up to the crash point: ``survive_messages``
    deliveries, plus ``(index - 1) * stagger`` for ``s_index`` — the
    rolling faults' wave.  The delivery after that *crashes* the machine:
    the stable store is frozen (a dead machine persists nothing) and crash
    damage is applied — the acknowledged-but-unsynced journal suffix is
    lost (``lag`` widens it), and ``tear`` also tears the final record.

``down``
    Swallow ``rejoin_after`` further deliveries outright (via
    :meth:`~repro.sim.process.FaultBehavior.before_handle`, so the dark
    machine performs **no** state transitions).  With ``rejoin_after=0``
    the machine restarts instantly: the crash and the rejoin happen on
    the same delivery.  ``rejoin_after=None`` is permanent loss: dark
    forever, and no durable store is required.

``recovered``
    Replay the durable journal into a fresh protocol state
    (:meth:`~repro.storage.durable.DurableObjectHandler.recovered_state`),
    unfreeze the store, and serve the triggering delivery — and everything
    after it — honestly from the recovered (possibly stale) state.  Until
    ``cycles`` crashes have happened, the machine crashes again after
    ``survive_messages`` more deliveries (a flapping node).

The registry's makers below fix the four knobs and the ``describe()``
text of each named fault.  *When* a rejoin lands relative to in-flight
rounds is exactly what the schedule explorer searches: every held link
shifts which operation's messages fall into the dark window, so recovery
timing is an ordinary explorer choice point and stale-rejoin violations
come out as minimized :class:`~repro.explore.witness.ScheduleWitness`es.

A machine that rejoins needs the durability seam; attaching one to an
object built with ``durability="none"`` raises
:class:`~repro.errors.StorageError` on first delivery.
"""

from __future__ import annotations

import math
from typing import Any, Mapping

from repro.errors import StorageError
from repro.sim.network import Message
from repro.sim.process import FaultBehavior, ObjectServer


class CrashMachine(FaultBehavior):
    """Honest up to a crash point, dark for ``rejoin_after`` deliveries (or
    for good), then rejoin from the journal — ``cycles`` times.

    ``label`` is what :meth:`describe` reports.  ``lag`` is the store's
    sync lag (``None`` leaves the store's own policy), ``tear`` tears the
    final journal record at each crash.
    """

    def __init__(
        self,
        label: str,
        survive_messages: int,
        rejoin_after: int | None,
        *,
        stagger: int = 0,
        cycles: int = 1,
        lag: int | None = None,
        tear: bool = False,
    ) -> None:
        if survive_messages < 0:
            raise ValueError("survive_messages must be non-negative")
        if rejoin_after is not None and rejoin_after < 0:
            raise ValueError("rejoin_after must be non-negative")
        if lag is not None and lag < 1:
            raise ValueError("lag must be at least 1 (0 is plain crash-recover)")
        if stagger < 0:
            raise ValueError("stagger must be non-negative")
        if cycles < 1:
            raise ValueError("cycles must be at least 1 (1 is plain crash-recover)")
        self.label = label
        self.survive_messages = survive_messages
        self.rejoin_after = rejoin_after
        self.stagger = stagger
        self.cycles = cycles
        self.lag = lag
        self.tear = tear
        self.crash_after = survive_messages
        self.dark = False
        self.dark_seen = 0
        self.crashes = 0
        self._prepared = False

    def on_armed(self, server: ObjectServer) -> None:
        """Prepare while still dormant under a timed wrapper.

        The sync-lag knob and the staggered crash point must be in effect
        from the run's start even when the crash itself is
        trigger-scheduled — otherwise the journal the crash eats would have
        been synced with the default policy.
        """
        if not self._prepared:
            self._prepare(server)

    def _prepare(self, server: ObjectServer) -> None:
        self._prepared = True
        self.crash_after = self.survive_messages + (server.pid.index - 1) * self.stagger
        if self.rejoin_after is None:
            return
        store = getattr(server.handler, "store", None)
        if store is None:
            raise StorageError(
                f"{self.describe()} needs durable object state — build the "
                "system with durability='mem' or durability='dir'"
            )
        if self.lag is not None:
            store.lag = self.lag

    def before_handle(self, server: ObjectServer, message: Message) -> bool:
        if not self._prepared:
            self._prepare(server)
        if not self.dark:
            # messages_seen was already incremented for this delivery.
            if server.messages_seen <= self.crash_after:
                return True
            store = getattr(server.handler, "store", None)
            if store is not None:
                store.frozen = True
                store.crash()
                if self.tear:
                    store.tear_last()
            self.crashes += 1
            self.dark = True
            self.dark_seen = 0
            self.log_phase("down")
        if self.rejoin_after is None:
            return False
        self.dark_seen += 1
        if self.dark_seen <= self.rejoin_after:
            return False
        state, _image = server.handler.recovered_state()
        server.restore(state)
        server.handler.store.frozen = False
        self.dark = False
        if self.crashes < self.cycles:
            self.crash_after = server.messages_seen + self.survive_messages
        else:
            self.crash_after = math.inf
        self.log_phase("recovered")
        return True

    def reply(
        self,
        server: ObjectServer,
        message: Message,
        honest_payload: Mapping[str, Any],
    ) -> Mapping[str, Any] | None:
        # before_handle gated the dark window; whenever the handler ran,
        # the machine is live and presents its genuine reply.
        return honest_payload

    def describe(self) -> str:
        return self.label


# -- the registry's makers ---------------------------------------------------


def crash_recover(survive_messages: int = 3, rejoin_after: int = 2) -> CrashMachine:
    """Crash once and rejoin from the journal.  With a store that syncs
    before acknowledging (the default), the machine rejoins with exactly
    the state it last acknowledged — the well-provisioned recovery
    configuration the explorer can certify."""
    return CrashMachine(
        f"crash-recover(survive={survive_messages}, rejoin={rejoin_after})",
        survive_messages, rejoin_after,
    )


def fsync_lag(survive_messages: int = 3, rejoin_after: int = 2, lag: int = 1) -> CrashMachine:
    """Crash-recover with a lazy fsync: the last ``lag`` journal records are
    acknowledged but not yet durable, so the machine rejoins with *stale*
    state it already acknowledged — the under-provisioned configuration the
    explorer refutes with a stale-rejoin witness."""
    return CrashMachine(
        f"fsync-lag(lag={lag}, survive={survive_messages}, rejoin={rejoin_after})",
        survive_messages, rejoin_after, lag=lag,
    )


def torn_write(survive_messages: int = 3, rejoin_after: int = 2) -> CrashMachine:
    """Crash-recover where the crash tears the final journal record; the
    checksum validation of recovery discards it, so the machine rejoins one
    update behind."""
    return CrashMachine(
        f"torn-write(survive={survive_messages}, rejoin={rejoin_after})",
        survive_messages, rejoin_after, tear=True,
    )


def perm_crash(survive_messages: int = 3) -> CrashMachine:
    """Fail for good: the disk is gone, nobody reboots it.  No store is
    required, so it works on volatile systems too — the canonical trigger
    for an epoch repair."""
    return CrashMachine(f"perm-crash(survive={survive_messages})", survive_messages, None)


def flap(survive_messages: int = 2, rejoin_after: int = 1, cycles: int = 2) -> CrashMachine:
    """Crash-recover in a loop: ``cycles`` crashes, each after
    ``survive_messages`` honest deliveries, then stay up — a flapping node
    an operator eventually fixes."""
    return CrashMachine(
        f"flap(survive={survive_messages}, rejoin={rejoin_after}, cycles={cycles})",
        survive_messages, rejoin_after, cycles=cycles,
    )


def rolling_replace(base: int = 3, stagger: int = 6) -> CrashMachine:
    """Staggered permanent crashes: ``s_i`` dies after its
    ``base + (i - 1) * stagger``-th delivery — the failure wave a
    reconfigurable backend's repair steps must chase."""
    return CrashMachine(
        f"rolling-replace(base={base}, stagger={stagger})", base, None, stagger=stagger,
    )


def rolling_restart(base: int = 3, stagger: int = 6, rejoin_after: int = 2) -> CrashMachine:
    """Staggered crash-recovers: a fleet-wide rolling restart, at most one
    machine down at a time when ``stagger`` exceeds the restart window."""
    return CrashMachine(
        f"rolling-restart(base={base}, stagger={stagger}, rejoin={rejoin_after})",
        base, rejoin_after, stagger=stagger,
    )

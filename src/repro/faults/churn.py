"""Churn fault behaviours: permanent loss, flapping, rolling replacement.

Where :mod:`repro.faults.recovery` models machines that crash and *come
back*, churn models the fleet-level failure patterns a reconfigurable
system (:mod:`repro.registers.reconfig`) exists to survive:

``perm-crash``
    A machine that fails for good.  Honest for ``survive_messages``
    deliveries, then dark forever — the disk is gone, nobody reboots it.
    Unlike the crash-recover family this needs no durability seam (there
    is nothing to recover), so it also works on ``durability="none"``
    systems: it is the canonical trigger for an epoch repair.

``flap``
    A machine stuck in a crash-recover loop: up for ``survive_messages``
    deliveries, dark for ``rejoin_after``, rejoin from the journal, and
    repeat for ``cycles`` crashes before finally stabilising.  Requires
    the durability seam, like its parent :class:`CrashRecoverAt`.

``rolling-replace`` / rolling restarts
    Staggered copies of the above: each object's crash point is derived
    from its own index (``base + (index - 1) * stagger``) via the
    :meth:`CrashRecoverAt._configure` hook, so one zero-argument fault
    maker fails ``s1``, then ``s2``, then ``s3`` in sequence — the shape
    of a fleet-wide rolling replacement or rolling restart.

All of these run entirely through ``before_handle`` phase machines that
are message-counted, and every engine dispatches per message in the same
global order, so they behave byte-identically on both simulation engines.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.faults.recovery import CrashRecoverAt
from repro.sim.network import Message
from repro.sim.process import FaultBehavior, ObjectServer


class PermanentCrash(FaultBehavior):
    """Fail-stop for good after ``survive_messages`` honest deliveries.

    If the object has a durable store it is frozen and crashed (a dead
    machine persists nothing, and its journal suffix is lost with it), but
    no store is required — permanent loss is meaningful on volatile
    systems too.
    """

    def __init__(self, survive_messages: int = 3) -> None:
        if survive_messages < 0:
            raise ValueError("survive_messages must be non-negative")
        self.survive_messages = survive_messages
        self.phase = "up"
        self._configured = False

    # -- subclass hooks ------------------------------------------------

    def _configure(self, server: ObjectServer) -> None:
        """Derive per-object parameters before the first delivery.

        Same contract as :meth:`CrashRecoverAt._configure`: runs once,
        with the owning server in hand, so staggered variants can key
        their crash point off ``server.pid.index``.
        """

    def on_armed(self, server: ObjectServer) -> None:
        """Derive per-object parameters while dormant under a timed wrapper."""
        if not self._configured:
            self._configured = True
            self._configure(server)

    # -- the phase machine ---------------------------------------------

    def before_handle(self, server: ObjectServer, message: Message) -> bool:
        if not self._configured:
            self._configured = True
            self._configure(server)
        if self.phase == "up":
            # messages_seen was already incremented for this delivery.
            if server.messages_seen <= self.survive_messages:
                return True
            store = getattr(server.handler, "store", None)
            if store is not None:
                store.frozen = True
                store.crash()
            self.phase = "down"
            self.log_phase("down")
        return False

    def reply(
        self,
        server: ObjectServer,
        message: Message,
        honest_payload: Mapping[str, Any],
    ) -> Mapping[str, Any] | None:
        # before_handle gated the dark phase; whenever the handler ran,
        # the machine was still up and presents its genuine reply.
        return honest_payload

    def describe(self) -> str:
        return f"perm-crash(survive={self.survive_messages})"


class RollingReplace(PermanentCrash):
    """Staggered permanent crashes: ``s_i`` dies after its
    ``base + (i - 1) * stagger``-th delivery.

    One zero-argument maker attached to every object produces a rolling
    failure wave — the workload a reconfigurable backend's repair steps
    must chase, replacing each casualty before the next one falls.
    """

    def __init__(self, base: int = 3, stagger: int = 6) -> None:
        super().__init__(survive_messages=base)
        if stagger < 0:
            raise ValueError("stagger must be non-negative")
        self.base = base
        self.stagger = stagger

    def _configure(self, server: ObjectServer) -> None:
        self.survive_messages = self.base + (server.pid.index - 1) * self.stagger

    def describe(self) -> str:
        return f"rolling-replace(base={self.base}, stagger={self.stagger})"


class Flap(CrashRecoverAt):
    """Crash-recover in a loop: ``cycles`` crashes, each after
    ``survive_messages`` honest deliveries, each dark for ``rejoin_after``
    deliveries before rejoining from the journal.

    After the final cycle the machine stays up — a flapping node that an
    operator eventually fixes, not a permanent loss.
    """

    def __init__(
        self,
        survive_messages: int = 2,
        rejoin_after: int = 1,
        cycles: int = 2,
    ) -> None:
        super().__init__(survive_messages=survive_messages, rejoin_after=rejoin_after)
        if cycles < 1:
            raise ValueError("cycles must be at least 1 (1 is plain crash-recover)")
        self.cycles = cycles
        self.up_seen = 0
        self.crashes = 0

    def before_handle(self, server: ObjectServer, message: Message) -> bool:
        if not self._prepared:
            self._prepared = True
            self._configure(server)
            self._prepare(self._store(server))
        if self.phase in ("up", "recovered"):
            # Count this cycle's honest deliveries ourselves: the server's
            # messages_seen spans all cycles and never resets.
            self.up_seen += 1
            if self.up_seen <= self.survive_messages or self.crashes >= self.cycles:
                return True
            store = self._store(server)
            store.frozen = True
            store.crash()
            self._damage(store)
            self.crashes += 1
            self.phase = "down"
            self.dark_seen = 0
            self.log_phase("down")
        if self.phase == "down":
            self.dark_seen += 1
            if self.dark_seen <= self.rejoin_after:
                return False
            state, _image = server.handler.recovered_state()
            server.restore(state)
            self._store(server).frozen = False
            self.phase = "recovered"
            self.up_seen = 0
            self.log_phase("recovered")
        return True

    def describe(self) -> str:
        return (
            f"flap(survive={self.survive_messages}, rejoin={self.rejoin_after}, "
            f"cycles={self.cycles})"
        )


class RollingRestart(CrashRecoverAt):
    """Staggered crash-recover: ``s_i`` crashes after its
    ``base + (i - 1) * stagger``-th delivery and rejoins ``rejoin_after``
    deliveries later.

    Attached to every object this is a fleet-wide rolling restart — at
    most one machine down at a time when ``stagger`` exceeds the restart
    window, which is what the ``rolling-restart`` scenario certifies.
    """

    def __init__(
        self, base: int = 3, stagger: int = 6, rejoin_after: int = 2
    ) -> None:
        super().__init__(survive_messages=base, rejoin_after=rejoin_after)
        if stagger < 0:
            raise ValueError("stagger must be non-negative")
        self.base = base
        self.stagger = stagger

    def _configure(self, server: ObjectServer) -> None:
        self.survive_messages = self.base + (server.pid.index - 1) * self.stagger

    def describe(self) -> str:
        return (
            f"rolling-restart(base={self.base}, stagger={self.stagger}, "
            f"rejoin={self.rejoin_after})"
        )

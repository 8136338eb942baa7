"""Byzantine object behaviours: stale echo and fabrication.

The lower-bound proofs never need "creative" Byzantine objects: every forgery
in the paper is of the form *"objects in block B forge their state to σ
before replying to rd"* where σ is a **genuine** protocol state captured in
some other partial run.  The constructions' scripted executor forges state
directly (:class:`repro.core.runs.Restore`); on the simulated system
:class:`StaleEchoBehavior` is that adversary for one σ — it computes the
reply the honest handler would give *from a frozen genuine state* instead of
the current one, frozen at construction or, under a ``timed()`` trigger, at
firing time.

Fabrication (inventing states that never occurred, e.g. sky-high timestamps)
is stronger and only possible because data is unauthenticated;
:class:`FabricatingBehavior` models it and is what separates the
unauthenticated model from the secret-token model of [DMSS09].
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.sim.network import Message
from repro.sim.process import FaultBehavior, ObjectServer, copy_state


class StaleEchoBehavior(FaultBehavior):
    """Freeze at construction time: forever reply from that one snapshot.

    "Echo an old genuine state" is the canonical attack against naive fast
    reads; the fault registry names it ``stale-echo`` (alias ``replay``).
    """

    def __init__(self, frozen_state: Mapping[str, Any]) -> None:
        self._frozen = copy_state(dict(frozen_state))
        self._announced = False

    @classmethod
    def freezing(cls, server: ObjectServer) -> "StaleEchoBehavior":
        """Freeze ``server`` at its current state."""
        return cls(server.snapshot())

    def on_activate(self, server: ObjectServer) -> None:
        """Trigger-scheduled freeze: echo the genuine state at firing time.

        Runs before the firing delivery's state transition, so the frozen
        snapshot is the state after exactly the trigger's ``at`` handled
        messages — a *genuine* past state, as the proofs require.
        """
        self._frozen = server.snapshot()

    def reply(
        self,
        server: ObjectServer,
        message: Message,
        honest_payload: Mapping[str, Any],
    ) -> Mapping[str, Any] | None:
        if not self._announced:
            self._announced = True
            self.log_phase("stale")
        if self._frozen:
            scratch = copy_state(self._frozen)
        else:
            # An empty freeze means "echo the pristine initial state".
            scratch = server.handler.initial_state()
        return server.handler.handle(scratch, message)

    def describe(self) -> str:
        return "stale-echo"


class FabricatingBehavior(FaultBehavior):
    """Reply with arbitrary attacker-chosen payloads (unauthenticated model).

    ``fabricate(message, honest_payload)`` returns the forged payload, or
    ``None`` for silence.  The default fabricator mirrors the honest payload
    but inflates every timestamp-looking field, the classic attack on
    protocols that trust a single maximum.
    """

    def __init__(
        self,
        fabricate: Callable[[Message, Mapping[str, Any]], Mapping[str, Any] | None] | None = None,
    ) -> None:
        self._fabricate = fabricate or _inflate_timestamps
        self._announced = False

    def reply(
        self,
        server: ObjectServer,
        message: Message,
        honest_payload: Mapping[str, Any],
    ) -> Mapping[str, Any] | None:
        if not self._announced:
            self._announced = True
            self.log_phase("forging")
        return self._fabricate(message, honest_payload)

    def describe(self) -> str:
        return "fabricating"


def _inflate_timestamps(message: Message, honest: Mapping[str, Any]) -> Mapping[str, Any]:
    """Default fabrication: bump timestamps sky-high, garble values."""
    from repro.types import TaggedValue, Timestamp

    forged: dict[str, Any] = {}
    for key, value in honest.items():
        if isinstance(value, TaggedValue):
            forged[key] = TaggedValue(
                ts=Timestamp(value.ts.seq + 1_000_000, value.ts.writer),
                value="<fabricated>",
            )
        else:
            forged[key] = value
    return forged

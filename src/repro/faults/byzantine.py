"""Byzantine object behaviours: state replay and fabrication.

The lower-bound proofs never need "creative" Byzantine objects: every forgery
in the paper is of the form *"objects in block B forge their state to σ
before replying to rd"* where σ is a **genuine** protocol state captured in
some other partial run.  :class:`ReplayBehavior` implements exactly that: it
computes the reply the honest handler would give *from a snapshot state*
instead of the current one.

Fabrication (inventing states that never occurred, e.g. sky-high timestamps)
is stronger and only possible because data is unauthenticated;
:class:`FabricatingBehavior` models it and is what separates the
unauthenticated model from the secret-token model of [DMSS09].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.errors import ConfigurationError
from repro.sim.network import Message
from repro.sim.process import FaultBehavior, ObjectServer, copy_state
from repro.types import ProcessId


class StateArchive:
    """Labelled per-object state snapshots (the σ's of the proofs).

    Labels are free-form strings such as ``"sigma_2"`` ("state after the
    write's rounds 1..2").  Snapshots are deep copies, immune to later
    mutation of the live objects.
    """

    def __init__(self) -> None:
        self._snapshots: dict[str, dict[ProcessId, dict[str, Any]]] = {}

    def capture(self, label: str, servers: Iterable[ObjectServer]) -> None:
        """Snapshot the current state of every server under ``label``."""
        bucket = self._snapshots.setdefault(label, {})
        for server in servers:
            bucket[server.pid] = server.snapshot()

    def store(self, label: str, pid: ProcessId, state: Mapping[str, Any]) -> None:
        """Store an explicit state dict under ``label`` for ``pid``."""
        self._snapshots.setdefault(label, {})[pid] = copy_state(dict(state))

    def get(self, label: str, pid: ProcessId) -> dict[str, Any]:
        """Deep copy of the snapshot of ``pid`` under ``label``."""
        try:
            return copy_state(self._snapshots[label][pid])
        except KeyError:
            raise ConfigurationError(f"no snapshot {label!r} for {pid}") from None

    def has(self, label: str, pid: ProcessId | None = None) -> bool:
        """Whether ``label`` (and optionally ``pid``) is archived."""
        if label not in self._snapshots:
            return False
        if pid is None:
            return True
        return pid in self._snapshots[label]

    def labels(self) -> tuple[str, ...]:
        """All labels, sorted."""
        return tuple(sorted(self._snapshots))


@dataclass(slots=True)
class ReplayRule:
    """Forge replies matching ``matcher`` from snapshot ``label``."""

    matcher: Callable[[Message], bool]
    label: str


class ReplayBehavior(FaultBehavior):
    """Reply from archived snapshots instead of the live state.

    Rules are checked in order; the first matching rule selects the snapshot
    the honest handler is evaluated against.  Without a match the object
    answers honestly (from its live state), which mirrors the proofs: the
    malicious blocks behave correctly toward every operation except the ones
    they target.

    The handler runs against a *copy* of the snapshot, so a forged reply
    never perturbs the archive or the live state.
    """

    def __init__(self, archive: StateArchive, rules: Iterable[ReplayRule] = ()) -> None:
        self.archive = archive
        self.rules: list[ReplayRule] = list(rules)
        self._announced = False

    def forge(self, matcher: Callable[[Message], bool], label: str) -> "ReplayBehavior":
        """Append a rule; returns self for chaining."""
        self.rules.append(ReplayRule(matcher=matcher, label=label))
        return self

    def reply(
        self,
        server: ObjectServer,
        message: Message,
        honest_payload: Mapping[str, Any],
    ) -> Mapping[str, Any] | None:
        for rule in self.rules:
            if rule.matcher(message):
                if not self._announced:
                    self._announced = True
                    self.log_phase("replay")
                if not self.archive.has(rule.label, server.pid):
                    return None  # no such past: the safest lie is silence
                forged_state = self.archive.get(rule.label, server.pid)
                return server.handler.handle(forged_state, message)
        return honest_payload

    def describe(self) -> str:
        return f"replay({len(self.rules)} rules)"


class StaleEchoBehavior(FaultBehavior):
    """Freeze at construction time: forever reply from that one snapshot.

    Equivalent to a replay behaviour with a single catch-all rule; kept as a
    distinct class because "echo an old genuine state" is the canonical
    attack against naive fast reads and deserves a name in test output.
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

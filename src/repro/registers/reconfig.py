"""Reconfigurable register systems: membership epochs and online repair.

The paper's emulations run over a *fixed* set of base objects; this module
adds the seam a production store lives on — objects fail permanently and
are **replaced** while reads and writes keep flowing.  Membership advances
through explicit epochs: epoch 0 is ``s_1 .. s_S``; the k-th repair step
retires one member and activates the pre-provisioned spare ``s_{S+k}`` in
its place.  A repair is an ordinary client operation (role ``repair``,
process ``q_k``) built from two rounds:

1. **state-transfer read** — query ``xfer_quorum`` members of the epoch the
   repair started in (``RECONFIG_XFER_READ``; each object returns its full
   per-key state),
2. **install** — merge newest-per-key (by timestamp) and write the merged
   image into the replacement (``RECONFIG_XFER_INSTALL``), then flip the
   epoch.

With ``xfer_quorum = S − t`` (the default) the transfer intersects every
completed write's quorum, so the replacement joins holding everything any
read could have returned — the well-provisioned configuration the schedule
explorer certifies.  With a smaller quorum the transfer can miss the only
live copy of a completed write and the replacement joins stale: the
explorer refutes that variant with a minimized witness.

Client operations are *epoch-scoped per round*: every protocol round whose
destinations the protocol left implicit is pinned to the membership at the
moment that round starts, so an operation spanning a repair finishes its
in-flight round against the old epoch and directs its next round at the new
one.  Repair timing relative to client rounds is therefore an ordinary
explorer choice point: holding or releasing transfer messages shifts which
epoch each round observes.

State transfer goes through the PR-6 durability seam when enabled — the
install is persisted like any other state change, so a replacement that
crash-recovers after joining replays the transferred image from its own
journal.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.errors import ConfigurationError
from repro.registers.base import (
    RegisterProtocol,
    RegisterSystem,
    SystemBackend,
    _assemble,
    _default_size,
    resolve_reader,
)
from repro.sim.network import DeliveryPolicy, Message
from repro.sim.process import FaultBehavior, ObjectHandler
from repro.sim.simulator import ClientOperation, ProtocolGenerator
from repro.sim.rounds import ReplyRule, RoundSpec
from repro.spec.history import History
from repro.types import (
    ProcessId,
    TaggedValue,
    object_id,
    reader_ids,
    repair_id,
    writer_id,
)

#: Tag vocabulary of the repair protocol.
XFER_READ = "RECONFIG_XFER_READ"
XFER_INSTALL = "RECONFIG_XFER_INSTALL"


class ReconfigObjectHandler(ObjectHandler):
    """Protocol handler extended with the state-transfer vocabulary.

    ``RECONFIG_XFER_READ`` returns a copy of the object's full per-key
    state; ``RECONFIG_XFER_INSTALL`` merges an incoming image newest-per-key
    (strictly larger timestamp wins, so an install never regresses state the
    replacement already holds).  Every other tag is the wrapped protocol's
    business.
    """

    def __init__(self, inner: ObjectHandler) -> None:
        self.inner = inner

    def initial_state(self) -> dict[str, Any]:
        return self.inner.initial_state()

    def handle(self, state: dict[str, Any], message: Message) -> Mapping[str, Any]:
        if message.tag == XFER_READ:
            return {"state": dict(state)}
        if message.tag == XFER_INSTALL:
            installed = 0
            for key, tv in message.payload["state"].items():
                current = state.get(key)
                if current is None or tv.ts > current.ts:
                    state[key] = tv
                    installed += 1
            return {"ack": True, "installed": installed}
        return self.inner.handle(state, message)


def _check_transferable(protocol: RegisterProtocol) -> None:
    """Reject protocols whose object state the transfer round cannot merge.

    The newest-per-key merge needs a flat ``{key: TaggedValue}`` state
    layout (the ABD family's); anything else would transfer opaquely and
    silently break the intersection argument.
    """
    state = protocol.object_handler().initial_state()
    bad = sorted(
        key for key, value in state.items() if not isinstance(value, TaggedValue)
    )
    if bad:
        raise ConfigurationError(
            f"protocol {protocol.name!r} is not reconfigurable: state keys "
            f"{', '.join(map(repr, bad))} are not timestamped values, so the "
            "newest-per-key state transfer cannot merge them (use an "
            "ABD-family protocol)"
        )


class ReconfigRegisterSystem(SystemBackend):
    """A register protocol on a membership that advances through epochs.

    Args:
        protocol: the register protocol to run (must keep flat
            ``{key: TaggedValue}`` object state — see
            :func:`_check_transferable`).
        t: declared fault threshold *per epoch*.
        S: epoch size (defaults to the protocol's minimum for ``t``).
        n_readers: reader population.
        behaviors: fault behaviours keyed by object id; spares may carry
            behaviours too (they are addressable pool members).
        repairs / spares / xfer_quorum: the run axes of the same name — see
            :class:`repro.axes.RunAxes`.  Each member is replaced at most
            once; an ``xfer_quorum`` below ``S − t`` is accepted so the
            explorer can refute it.
    """

    backend_name = "reconfig"

    def __init__(
        self,
        protocol: RegisterProtocol,
        t: int,
        S: int | None = None,
        n_readers: int = 2,
        behaviors: Mapping[ProcessId, FaultBehavior] | None = None,
        policy: DeliveryPolicy | None = None,
        allow_overfault: bool = False,
        durability: str = "none",
        repairs: tuple[tuple[int, int], ...] = (),
        spares: int | None = None,
        xfer_quorum: int | None = None,
    ) -> None:
        if S is None:
            S = _default_size(protocol, t)
        protocol.validate_configuration(S, t)
        _check_transferable(protocol)
        repairs = tuple((int(member), int(at)) for member, at in repairs)
        for member, at in repairs:
            if not 1 <= member <= S:
                raise ConfigurationError(
                    f"repair member index {member} out of range 1..{S}"
                )
            if at < 0:
                raise ConfigurationError(f"repair time must be non-negative, got {at}")
        members_repaired = [member for member, _at in repairs]
        if len(set(members_repaired)) != len(members_repaired):
            raise ConfigurationError(
                f"each member may be replaced at most once; got {members_repaired}"
            )
        if spares is None:
            spares = len(repairs)
        if spares < len(repairs):
            raise ConfigurationError(
                f"{len(repairs)} repair steps need at least that many spares, got {spares}"
            )
        if xfer_quorum is None:
            xfer_quorum = S - t
        if not 1 <= xfer_quorum <= S:
            raise ConfigurationError(
                f"xfer_quorum must be in 1..{S}, got {xfer_quorum}"
            )
        # Epoch members plus spares all exist up front: "joining" is a
        # protocol-level event (the install round plus the epoch flip), not
        # a topology one.
        self.pool = _assemble(
            self, protocol, lambda: ReconfigObjectHandler(protocol.object_handler()),
            t=t, S=S, behaviors=behaviors, policy=policy,
            allow_overfault=allow_overfault, durability=durability,
            spares=spares,
        )
        self.protocol = protocol
        self.repairs = repairs
        self.spares = spares
        self.xfer_quorum = xfer_quorum
        self.writer = writer_id()
        self.readers = reader_ids(n_readers)
        self._members: tuple[ProcessId, ...] = self.ctx.objects
        self.completed_repairs = 0
        self._armed = False

    # ------------------------------------------------------------------ #
    # Epoch machinery
    # ------------------------------------------------------------------ #

    def _scoped(self, inner: ProtocolGenerator) -> ProtocolGenerator:
        """Pin each implicit-destination round to the epoch at round start.

        Rounds the protocol addressed explicitly (``destinations`` set) are
        passed through untouched; everything else goes to whichever
        membership is current when the round begins — an operation spanning
        a repair finishes its in-flight round against the old epoch and
        aims its next round at the new one.
        """
        try:
            spec = next(inner)
            while True:
                if spec.destinations is None:
                    spec.destinations = self._members
                outcome = yield spec
                spec = inner.send(outcome)
        except StopIteration as stop:
            return stop.value

    def _repair_generator(
        self, member: ProcessId, replacement: ProcessId
    ) -> ProtocolGenerator:
        # Membership is sampled lazily, at the repair's first round — the
        # "old epoch" is whatever is current when the repair *starts*, not
        # when it was scheduled.
        old_epoch = self._members
        outcome = yield RoundSpec(
            tag=XFER_READ,
            payload={},
            rule=ReplyRule(min_count=self.xfer_quorum, accept_on_quiescence=False),
            destinations=old_epoch,
        )
        merged: dict[str, TaggedValue] = {}
        # payloads() is sorted by object id, and the merge takes strictly
        # newer timestamps only, so ties resolve to the lowest object id —
        # deterministic on both engines.
        for payload in outcome.payloads():
            for key, tv in payload["state"].items():
                current = merged.get(key)
                if current is None or tv.ts > current.ts:
                    merged[key] = tv
        yield RoundSpec(
            tag=XFER_INSTALL,
            payload={"state": merged},
            rule=ReplyRule(min_count=1, accept_on_quiescence=False),
            destinations=(replacement,),
        )
        self._members = tuple(
            replacement if current == member else current for current in self._members
        )
        self.completed_repairs += 1
        return f"{member}->{replacement}"

    def _arm_repairs(self) -> None:
        """Schedule every configured repair step (idempotent).

        Armed at :meth:`run` time, *after* all client plans are scheduled,
        so plan operations keep the low serials schedule-explorer hold
        links address them by; repair k gets serial ``len(plans) + k`` on
        both engines.
        """
        if self._armed:
            return
        self._armed = True
        for step, (member, at) in enumerate(self.repairs, start=1):
            replacement = object_id(self.ctx.S + step)
            self.simulator.invoke(
                repair_id(step),
                "repair",
                self._repair_generator(object_id(member), replacement),
                at=at,
            )

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #

    def write(self, value: Any, at: int = 0) -> ClientOperation:
        """Schedule a write of ``value`` at relative virtual time ``at``."""
        self._writable(value)
        generator = self._scoped(self.protocol.write_generator(self.ctx, value))
        return self.simulator.invoke(self.writer, "write", generator, at=at, declared_value=value)

    def read(self, reader_index: int = 1, at: int = 0) -> ClientOperation:
        """Schedule a read by reader ``r_{reader_index}`` at time ``at``."""
        reader = resolve_reader(self.readers, reader_index)
        generator = self._scoped(self.protocol.read_generator(self.ctx, reader))
        return self.simulator.invoke(reader, "read", generator, at=at)

    # Plans route as on a fixed membership; repairs are armed by ``run``.
    schedule = RegisterSystem.schedule

    def run(self, max_events: int | None = 1_000_000) -> int:
        """Arm the repair steps, then run the simulation to quiescence."""
        self._arm_repairs()
        return super().run(max_events)

    def history(self) -> History:
        """The client-operation history — repair steps excluded.

        Repairs move state between machines; they are not reads or writes
        of the register, so consistency checks run on the client view.
        """
        combined = self.recorder.freeze()
        return History([r for r in combined.records if r.op_id.kind != "repair"])

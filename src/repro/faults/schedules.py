"""Adversarial delivery schedules: block skipping and reply withholding.

The proofs say *"round rnd of operation op skips block B"*: no object in B
receives the round's invocation (and hence never replies to it), while every
other object receives it and replies.  On the event-loop simulator this is a
delivery policy that holds the matching invocation messages; held messages
stay "in transit", so a skipped round is a legitimate partial-run phenomenon,
not message loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable

from repro.sim.network import DeliveryPolicy, Message, SelectiveHold
from repro.types import OperationId, ProcessId


@dataclass(frozen=True, slots=True)
class SkipRule:
    """Hold invocations of ``op`` round ``round_no`` aimed at ``objects``.

    ``round_no`` of ``None`` means every round of the operation.
    """

    op: OperationId
    objects: frozenset[ProcessId]
    round_no: int | None = None

    def matches(self, message: Message) -> bool:
        if message.is_reply or message.op != self.op:
            return False
        if self.round_no is not None and message.round_no != self.round_no:
            return False
        return message.dst in self.objects


class BlockSkipPolicy(SelectiveHold):
    """A delivery policy enforcing a set of :class:`SkipRule`.

    Non-matching messages flow through the base policy (unit-latency FIFO by
    default), so the simulated run is synchronous except exactly where the
    adversary intervenes.  Like every policy of this module it is a
    :class:`~repro.sim.network.SelectiveHold` whose predicate reads the
    message only, so over a uniform base it declares the shape the batched
    fast path serves.
    """

    def __init__(self, rules: Iterable[SkipRule] = (), base: DeliveryPolicy | None = None) -> None:
        self.rules: list[SkipRule] = list(rules)
        super().__init__(self._skipped, base)

    def skip(self, op: OperationId, objects: Collection[ProcessId], round_no: int | None = None) -> "BlockSkipPolicy":
        """Add a rule; returns self for chaining."""
        self.rules.append(SkipRule(op=op, objects=frozenset(objects), round_no=round_no))
        return self

    def _skipped(self, message: Message) -> bool:
        for rule in self.rules:
            if rule.matches(message):
                return True
        return False


class WithholdFrom(SelectiveHold):
    """Hold *replies* travelling from chosen objects to chosen clients.

    This is the "keep t correct objects slow forever" adversary: the objects
    are perfectly correct, but their replies sit in transit beyond the end of
    the partial run.  ``release`` on the network ends the blackout.
    """

    def __init__(
        self,
        objects: Collection[ProcessId],
        clients: Collection[ProcessId] | None = None,
        base: DeliveryPolicy | None = None,
        also_invocations: bool = False,
    ) -> None:
        self.objects = frozenset(objects)
        self.clients = frozenset(clients) if clients is not None else None
        self.also_invocations = also_invocations
        super().__init__(self._targets, base)

    def _targets(self, message: Message) -> bool:
        if message.is_reply:
            if message.src not in self.objects:
                return False
            return self.clients is None or message.dst in self.clients
        if self.also_invocations:
            if message.dst not in self.objects:
                return False
            return self.clients is None or message.src in self.clients
        return False


@dataclass(frozen=True, slots=True)
class PlannedSkip:
    """A :class:`SkipRule` addressed by *plan position* instead of a live id.

    ``SkipRule`` needs the :class:`~repro.types.OperationId` of an already
    invoked operation, which does not exist while an experiment is still
    being configured.  ``PlannedSkip`` carries the same fact as plain data:
    ``op`` is the 1-based position of the operation in the trial's schedule
    (the trial engine runs every trial under
    :func:`repro.types.scoped_operation_serials`, so plan position ``k``
    gets operation serial ``k``), ``objects`` are 1-based object indices
    (the block ``B``), and ``round_no`` of ``None`` skips every round.

    ``withhold_replies`` extends the hold to the reply direction — the
    :class:`WithholdFrom` counterpart: the objects still *receive and
    apply* the invocation, but the client never hears back (the "correct
    but slow forever" adversary).  Without it the rule matches invocations
    only, exactly like :class:`SkipRule`.

    Being a frozen plain-data record, planned skips pickle and serialize,
    so scheduled trials run on process pools and round-trip through
    :class:`~repro.api.cluster.TrialSpec` unchanged.
    """

    op: int
    objects: tuple[int, ...]
    round_no: int | None = None
    withhold_replies: bool = False

    def matches(self, message: Message) -> bool:
        if message.op.serial != self.op:
            return False
        if self.round_no is not None and message.round_no != self.round_no:
            return False
        if message.is_reply:
            return (
                self.withhold_replies
                and message.src.role_value == "object"
                and message.src.index in self.objects
            )
        return message.dst.role_value == "object" and message.dst.index in self.objects

    def describe(self) -> str:
        block = ",".join(f"s{index}" for index in self.objects)
        rounds = "all rounds" if self.round_no is None else f"rnd{self.round_no}"
        direction = "±replies" if self.withhold_replies else "invocations"
        return f"op{self.op} skips {{{block}}} ({rounds}, {direction})"


class PlannedSchedulePolicy(SelectiveHold):
    """A :class:`BlockSkipPolicy` over plan-addressed :class:`PlannedSkip` rules.

    This is what :meth:`repro.api.cluster.Cluster.with_schedule` and
    schedule-bearing scenarios compile to at trial time; non-matching
    messages flow through ``base`` (unit-latency FIFO by default).
    """

    def __init__(self, skips: Iterable[PlannedSkip] = (), base: DeliveryPolicy | None = None) -> None:
        self.skips: tuple[PlannedSkip, ...] = tuple(skips)
        super().__init__(self._skipped, base)

    def _skipped(self, message: Message) -> bool:
        for skip in self.skips:
            if skip.matches(message):
                return True
        return False

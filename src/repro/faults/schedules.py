"""Adversarial delivery schedules: block skipping and reply withholding.

The proofs say *"round rnd of operation op skips block B"*: no object in B
receives the round's invocation (and hence never replies to it), while every
other object receives it and replies.  On the event-loop simulator this is a
delivery policy that holds the matching invocation messages; held messages
stay "in transit", so a skipped round is a legitimate partial-run phenomenon,
not message loss.  Rules address operations by *plan position*
(:class:`PlannedSkip`), so they are plain data while an experiment is still
being configured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable

from repro.sim.network import DeliveryPolicy, Message, SelectiveHold
from repro.types import ProcessId


class WithholdFrom(SelectiveHold):
    """Hold *replies* travelling from chosen objects to chosen clients.

    This is the "keep t correct objects slow forever" adversary: the objects
    are perfectly correct, but their replies sit in transit beyond the end of
    the partial run.
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
    """Hold the invocations of one planned operation aimed at a block.

    An :class:`~repro.types.OperationId` does not exist while an experiment
    is still being configured, so the rule carries the fact as plain data:
    ``op`` is the 1-based position of the operation in the trial's schedule
    (the trial engine runs every trial under
    :func:`repro.types.scoped_operation_serials`, so plan position ``k``
    gets operation serial ``k``), ``objects`` are 1-based object indices
    (the block ``B``), and ``round_no`` of ``None`` skips every round.

    ``withhold_replies`` extends the hold to the reply direction — the
    :class:`WithholdFrom` counterpart: the objects still *receive and
    apply* the invocation, but the client never hears back (the "correct
    but slow forever" adversary).  Without it the rule matches invocations
    only.

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
    """A delivery policy enforcing plan-addressed :class:`PlannedSkip` rules.

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

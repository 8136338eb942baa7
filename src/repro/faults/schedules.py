"""Adversarial delivery schedules: reply withholding.

The proofs keep chosen messages "in transit" until a partial run ends; on
the event-loop simulator that is a delivery policy that holds the matching
messages.  The schedule explorer's
:class:`~repro.explore.controlled.ControlledDelivery` says which links a
searched schedule holds; :class:`WithholdFrom` is the hand-written
"correct but slow forever" adversary of the ablation benchmarks.
"""

from __future__ import annotations

from typing import Collection

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
    ) -> None:
        self.objects = frozenset(objects)
        self.clients = frozenset(clients) if clients is not None else None
        super().__init__(self._targets, base)

    def _targets(self, message: Message) -> bool:
        if not message.is_reply or message.src not in self.objects:
            return False
        return self.clients is None or message.dst in self.clients

"""Instruments several test modules share (``from helpers import …``).

Nothing under ``src/`` uses these: a randomized delivery fabric for shaking
out order dependence in protocols, and the smallest-``k`` scan over the
k-atomicity checker.
"""

from __future__ import annotations

import random

from repro.consistency import check_k_atomicity
from repro.errors import ChannelError
from repro.sim.network import DeliveryPolicy, Message
from repro.spec.history import History


class RandomDelivery(DeliveryPolicy):
    """Deliver after a seeded-random delay in ``[min_latency, max_latency]``.

    Determinism is preserved because the RNG is owned and seeded by the
    policy.  Delays vary, so it declares no shape and runs on the
    per-message path.
    """

    def __init__(self, seed: int = 0, min_latency: int = 1, max_latency: int = 10) -> None:
        if not 1 <= min_latency <= max_latency:
            raise ChannelError("need 1 <= min_latency <= max_latency")
        self._rng = random.Random(seed)
        self.min_latency = min_latency
        self.max_latency = max_latency

    def delay(self, message: Message, now: int) -> int | None:
        return self._rng.randint(self.min_latency, self.max_latency)


def atomicity_spectrum(history: History, max_k: int | None = None) -> int | None:
    """The smallest ``k`` for which ``history`` is k-atomic, or ``None``.

    Any history whose reads all return *some* written (or initial) value
    without reading from the future satisfies ``k = len(writes) + 1``, so
    the scan is bounded; ``None`` means validity itself is broken.
    """
    limit = max_k if max_k is not None else len(history.writes()) + 1
    for k in range(1, limit + 1):
        if check_k_atomicity(history, k).ok:
            return k
    return None


class ShapedHold(DeliveryPolicy):
    """Hold messages matching ``hold_if``; deliver the rest ``latency``
    ticks after their send — and declare exactly that shape.

    A test double for the network's fast path over a pure hold predicate,
    on either direction of a link (the explorer's ``ControlledDelivery``
    never holds a reply whose invocation it delivered).
    """

    def __init__(self, hold_if, latency: int = 1) -> None:
        self.hold_if = hold_if
        self.latency = latency

    @property
    def uniform_latency(self) -> int:
        return self.latency

    def hold_check(self, message: Message) -> bool:
        return self.hold_if(message)

    def delay(self, message: Message, now: int) -> int | None:
        return None if self.hold_if(message) else self.latency

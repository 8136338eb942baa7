"""Virtual-time scheduling: one FIFO bucket of work per tick.

Work carries an integral virtual time, and work due at the same instant runs
in scheduling order, so every simulation is fully deterministic for a fixed
seed.  That is the ``(time, seq)`` order of a min-heap keyed on time and a
global sequence number — but the sequence number is never stored: appends
to a tick's bucket are already in scheduling order, so a popped bucket (a
*wave*) is exactly the heap's segment for that tick.

Both engines run on :class:`WaveQueue` and differ only in how they drain it:
the reference :class:`~repro.sim.simulator.Simulator` walks each wave entry
by entry (:meth:`WaveQueue.run_all`, through :func:`run_wave`), the
production :class:`~repro.sim.batched.BatchedSimulator` walks it a
same-round run at a time and falls back to :func:`run_wave` only for the
wave an event budget cuts.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.errors import SimulationError
from repro.sim.network import Message


class WaveQueue:
    """Virtual-time buckets of scheduled work, popped one wave at a time.

    Entries are zero-argument callables (operation starts, test actions),
    in-transit :class:`~repro.sim.network.Message` deliveries
    (:meth:`push_message`), or whole same-round runs of them
    (:meth:`push_run`).
    """

    __slots__ = ("_buckets", "_times", "_now")

    def __init__(self) -> None:
        self._buckets: dict[int, list[Any]] = {}
        # Min-heap of bucket times: one push per bucket *creation*, one pop
        # per wave — scanning the bucket dict for its minimum key on every
        # wave would cost O(pending ticks) per pop and degrade linearly on
        # long schedules.  Times are unique while their bucket exists, so
        # no lazy-deletion bookkeeping is needed.
        self._times: list[int] = []
        self._now = 0

    @property
    def now(self) -> int:
        """Current virtual time (time of the last popped wave)."""
        return self._now

    def schedule(self, delay: int, action: Callable[[], Any]) -> None:
        """Schedule ``action`` to run ``delay`` ticks from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [action]
            heapq.heappush(self._times, time)
        else:
            bucket.append(action)

    def push_message(self, deliver_at: int, message: Message) -> None:
        """Park ``message`` for delivery in the wave at ``deliver_at``."""
        bucket = self._buckets.get(deliver_at)
        if bucket is None:
            self._buckets[deliver_at] = [message]
            heapq.heappush(self._times, deliver_at)
        else:
            bucket.append(message)

    def push_run(self, deliver_at: int, messages: list[Message]) -> None:
        """Park a whole same-round message run as *one* wave entry.

        The run stays a single list entry inside the bucket — the walk
        expands it in place, in order — so a broadcast costs one append at
        send time and zero run-boundary scanning at delivery time.
        """
        bucket = self._buckets.get(deliver_at)
        if bucket is None:
            self._buckets[deliver_at] = [messages]
            heapq.heappush(self._times, deliver_at)
        else:
            bucket.append(messages)

    def run_all(
        self, deliver: Callable[[Message], None], max_events: int | None = None
    ) -> int:
        """Run every wave entry by entry until no work is scheduled.

        Returns the number of entries executed, a run counting once per
        message.  ``max_events`` guards against runaway protocols: once that
        many entries ran with work still pending, the drain raises
        :class:`~repro.errors.SimulationError` — before popping the next
        wave, or inside the current one exactly at the budget.
        """
        buckets = self._buckets
        times = self._times
        executed = 0
        while times:
            if max_events is not None and executed >= max_events:
                raise SimulationError(f"event budget of {max_events} exhausted")
            now = heapq.heappop(times)
            self._now = now
            executed = run_wave(buckets.pop(now), deliver, executed, max_events)
        return executed

    def clear(self) -> None:
        """Drop every pending wave unrun."""
        self._buckets.clear()
        self._times.clear()


def run_wave(
    wave: list[Any],
    deliver: Callable[[Message], None],
    executed: int,
    max_events: int | None,
) -> int:
    """Run ``wave``'s entries in order, one at a time; returns ``executed``
    plus the entries run.

    A run is expanded in place, callables are called and messages are handed
    to ``deliver``.  Reaching ``max_events`` with an entry left raises
    :class:`~repro.errors.SimulationError` naming that budget, so entries
    past the cut never run their handlers.
    """
    for entry in wave:
        for item in entry if entry.__class__ is list else (entry,):
            if max_events is not None and executed >= max_events:
                raise SimulationError(f"event budget of {max_events} exhausted")
            if item.__class__ is Message:
                deliver(item)
            else:
                item()
            executed += 1
    return executed

"""Seeded random operation schedules.

A workload is a list of :class:`OperationPlan` entries — kind, client,
value, invocation time, and (for multi-register systems) a key — that a
harness replays against any register system.  Generation is deterministic
per seed, so failures shrink and reproduce.

Keyed workloads: pass ``keys`` (a count or explicit names) and every plan
draws a target register, optionally skewed toward low-ranked keys with
``key_skew`` (0.0 = uniform; larger values concentrate traffic on the first
keys, the classic hot-shard regime).  Keyless generation performs exactly
the same RNG draws as before ``keys`` existed, so single-register schedules
are byte-identical across versions for the same seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class OperationPlan:
    """One planned operation."""

    kind: str  # "read" | "write"
    client_index: int  # reader index for reads; writer index for writes
    value: str | None  # payload for writes, None for reads
    at: int  # invocation time (virtual ticks)
    key: str | None = None  # target register for multi-register backends


def normalize_keys(keys: int | Sequence[str] | None) -> tuple[str, ...] | None:
    """Canonical key layout: ``4`` → ``("k1", .., "k4")``; names pass through.

    Key names may not contain ``/`` (the multiplex machinery path-joins
    nested register names with it) and must be unique.
    """
    if keys is None:
        return None
    if isinstance(keys, int):
        if keys < 1:
            raise ConfigurationError("need at least one key")
        return tuple(f"k{i}" for i in range(1, keys + 1))
    names = tuple(str(key) for key in keys)
    if not names:
        raise ConfigurationError("need at least one key")
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate key names: {sorted(names)}")
    for name in names:
        if not name or "/" in name:
            raise ConfigurationError(f"invalid key name {name!r} (empty or contains '/')")
    return names


class WorkloadGenerator:
    """Generates schedules with tunable concurrency, mix, and key skew.

    Args:
        seed: RNG seed (determinism).
        n_readers: reader population to draw from.
        n_writers: writer population (1 for SWMR systems).
        read_fraction: probability an operation is a read.
        spacing: mean gap between invocation times; small values create
            heavy overlap (concurrency), large values serialize operations.
        keys: register keyspace — a count or explicit names (None: the
            single-register schedules of SWMR/MWMR systems).
        key_skew: Zipf-style exponent over key ranks; 0.0 draws keys
            uniformly, larger values make the first keys hot shards.
    """

    def __init__(
        self,
        seed: int = 0,
        n_readers: int = 2,
        n_writers: int = 1,
        read_fraction: float = 0.6,
        spacing: int = 25,
        keys: int | Sequence[str] | None = None,
        key_skew: float = 0.0,
    ) -> None:
        if not 0.0 <= read_fraction <= 1.0:
            raise ConfigurationError("read_fraction must be a probability")
        if n_readers < 1 or n_writers < 1:
            raise ConfigurationError("need at least one reader and one writer")
        if spacing < 0:
            raise ConfigurationError("spacing must be non-negative")
        if key_skew < 0:
            raise ConfigurationError("key_skew must be non-negative")
        self._rng = random.Random(seed)
        self.n_readers = n_readers
        self.n_writers = n_writers
        self.read_fraction = read_fraction
        self.spacing = spacing
        self.keys = normalize_keys(keys)
        self.key_skew = key_skew
        self._key_weights = (
            None
            if self.keys is None
            else [1.0 / (rank ** key_skew) for rank in range(1, len(self.keys) + 1)]
        )

    def _draw_key(self) -> str | None:
        if self.keys is None:
            return None
        return self._rng.choices(self.keys, weights=self._key_weights)[0]

    def plan(self, n_operations: int) -> list[OperationPlan]:
        """A schedule of ``n_operations`` operations."""
        plans: list[OperationPlan] = []
        clock = 0
        write_serial = 0
        busy_until: dict[tuple, int] = {}
        for _ in range(n_operations):
            clock += self._rng.randint(0, max(self.spacing, 0))
            if self._rng.random() < self.read_fraction:
                client = self._rng.randint(1, self.n_readers)
                key = self._draw_key()
                # Readers are shared across keys, so a reader's window spans
                # the whole keyspace.
                busy = ("read", client)
                at = max(clock, busy_until.get(busy, 0))
                plans.append(
                    OperationPlan(kind="read", client_index=client, value=None, at=at, key=key)
                )
            else:
                write_serial += 1
                client = self._rng.randint(1, self.n_writers)
                key = self._draw_key()
                # Sharded systems give each key its own writer, so write
                # windows are per (writer, key); keyless schedules keep the
                # historical per-writer window.
                busy = ("write", client) if key is None else ("write", client, key)
                at = max(clock, busy_until.get(busy, 0))
                plans.append(
                    OperationPlan(
                        kind="write",
                        client_index=client,
                        value=f"v{write_serial}",
                        at=at,
                        key=key,
                    )
                )
            # Clients are sequential: leave a generous window before the
            # same client invokes again (operations finish well within it
            # under unit-latency delivery).
            busy_until[busy] = at + 500
        return plans

    def streams(self, n_operations: int) -> Iterator[OperationPlan]:
        """Generator variant of :meth:`plan`."""
        yield from self.plan(n_operations)

    def key_streams(self, n_operations: int) -> dict[str, list[OperationPlan]]:
        """One operation stream per key, in schedule order.

        Requires a keyed generator; the streams partition :meth:`plan`'s
        output, so replaying every stream replays the whole schedule.
        """
        if self.keys is None:
            raise ConfigurationError("key_streams needs a generator built with keys=")
        streams: dict[str, list[OperationPlan]] = {key: [] for key in self.keys}
        for plan in self.plan(n_operations):
            streams[plan.key].append(plan)
        return streams


"""Keyspace-sharded clusters: many named registers on one set of objects.

The multiplex machinery of :mod:`repro.registers.multiplex` already lets any
number of logical registers share the same ``S`` physical storage objects —
the regular→atomic and SWMR→MWMR transformations rely on it.  This module
turns that capability into a *workload* dimension: a
:class:`ShardedRegisterSystem` hosts one independent SWMR register per key
("shard"), each with its own protocol instance and its own writer, all
flattened onto the shared physical objects through
:class:`~repro.registers.multiplex.MultiplexObjectHandler`.

Per-key semantics are exactly the underlying protocol's semantics: a fault
threshold ``t`` is a property of the *physical* objects, so one Byzantine
object is Byzantine for every shard at once — which is what makes sharded
runs interesting as robustness experiments, not just as throughput ones.
Consistency is therefore checked **per key** (each shard's history is an
ordinary SWMR history) and aggregated by the harness.

Round accounting is unchanged: each operation addresses one shard and uses
exactly the substrate protocol's advertised rounds; shards add capacity,
never latency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.registers.base import RegisterProtocol, SystemBackend, _assemble, resolve_reader
from repro.registers.multiplex import MultiplexObjectHandler, multiplex
from repro.sim.network import DeliveryPolicy
from repro.sim.process import FaultBehavior
from repro.sim.simulator import ClientOperation, ProtocolGenerator
from repro.spec.history import History
from repro.types import OperationId, ProcessId, reader_ids

if TYPE_CHECKING:
    from repro.workloads.generator import OperationPlan


class ShardedRegisterSystem(SystemBackend):
    """One SWMR register per key, multiplexed over shared physical objects.

    Args:
        protocol_factory: produces a fresh substrate protocol per key
            (protocols are stateful — never shared between shards).
        keys: shard names; each gets its own register and its own writer
            (``ProcessId("writer", i)`` for the i-th key).
        t: fault threshold of the *physical* objects (shared by all shards).
        S: object count (defaults to the protocol's minimum for ``t``).
        n_readers: reader population, shared across all shards.
        behaviors: fault behaviours keyed by object id (see
            :class:`~repro.registers.base.RegisterSystem`).
    """

    def __init__(
        self,
        protocol_factory: Callable[[], RegisterProtocol],
        keys: Sequence[str],
        t: int,
        S: int | None = None,
        n_readers: int = 2,
        behaviors: Mapping[ProcessId, FaultBehavior] | None = None,
        policy: DeliveryPolicy | None = None,
        allow_overfault: bool = False,
        durability: str = "none",
    ) -> None:
        keys = tuple(keys)
        if not keys:
            raise ConfigurationError("a sharded system needs at least one key")
        if len(set(keys)) != len(keys):
            raise ConfigurationError(f"duplicate shard keys: {sorted(keys)}")
        for key in keys:
            if not key or "/" in key:
                raise ConfigurationError(f"invalid shard key {key!r} (empty or contains '/')")
        self.keys = keys
        self._protocols: dict[str, RegisterProtocol] = {
            key: protocol_factory() for key in keys
        }
        sample = self._protocols[keys[0]]
        # Object state is per *flattened* register name, so the handler to
        # multiplex is the innermost one: composite substrates (the
        # regular→atomic transform) already wrap theirs in a
        # MultiplexObjectHandler, and the generator-side flattening
        # path-joins nested names — unwrap rather than double-wrap.
        inner = sample.object_handler()
        if isinstance(inner, MultiplexObjectHandler):
            inner = inner.inner
        _assemble(
            self, sample, lambda: MultiplexObjectHandler(inner),
            t=t, S=S, behaviors=behaviors, policy=policy,
            allow_overfault=allow_overfault, durability=durability,
        )
        self.protocol = sample  # the substrate face: name + advertised rounds
        self.writers: dict[str, ProcessId] = {
            key: ProcessId("writer", index) for index, key in enumerate(keys, start=1)
        }
        self.readers = reader_ids(n_readers)
        self._op_keys: dict[OperationId, str] = {}

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #

    def _protocol_for(self, key: str) -> RegisterProtocol:
        try:
            return self._protocols[key]
        except KeyError:
            raise ConfigurationError(
                f"unknown shard key {key!r}; configured keys: {', '.join(self.keys)}"
            ) from None

    def write(self, key: str, value: Any, at: int = 0) -> ClientOperation:
        """Schedule a write of ``value`` into shard ``key`` by its writer."""
        protocol = self._protocol_for(key)
        self._writable(value)
        inner = protocol.write_generator(self.ctx, value)

        def generator() -> ProtocolGenerator:
            results = yield from multiplex({key: inner})
            return results[key]

        operation = self.simulator.invoke(
            self.writers[key], "write", generator(), at=at, declared_value=value
        )
        self._op_keys[operation.op_id] = key
        return operation

    def read(self, key: str, reader_index: int = 1, at: int = 0) -> ClientOperation:
        """Schedule a read of shard ``key`` by reader ``r_{reader_index}``."""
        protocol = self._protocol_for(key)
        reader = resolve_reader(self.readers, reader_index)
        inner = protocol.read_generator(self.ctx, reader)

        def generator() -> ProtocolGenerator:
            results = yield from multiplex({key: inner})
            return results[key]

        operation = self.simulator.invoke(reader, "read", generator(), at=at)
        self._op_keys[operation.op_id] = key
        return operation

    def schedule(self, plan: OperationPlan) -> None:
        """Plans route by key: writes to the key's writer, reads to reader
        ``plan.client_index``."""
        if plan.key is None:
            raise ConfigurationError(
                "the sharded backend needs a key on every plan — generate the "
                "workload with keys= or give explicit plans a key"
            )
        if plan.kind == "write":
            self.write(plan.key, plan.value, at=plan.at)
        else:
            self.read(plan.key, plan.client_index, at=plan.at)

    def histories(self) -> dict[str, History]:
        """One per-key history; each is an ordinary SWMR history."""
        combined = self.recorder.freeze()
        per_key: dict[str, list] = {key: [] for key in self.keys}
        for record in combined.records:
            per_key[self._op_keys[record.op_id]].append(record)
        return {key: History(records) for key, records in per_key.items()}

"""SWMR → MWMR transformation (the paper's closing remark of Section 5).

The classical construction: each of the ``n`` writers owns one SWMR atomic
register (here: the regular→atomic transform of
:mod:`repro.registers.transform_atomic`, so the whole stack is built from
Byzantine-robust regular registers).  A multi-writer write first reads all
``n`` registers in parallel to learn the highest timestamp, then writes
``(max.seq + 1, writer_index, value)`` into its own register; a multi-writer
read reads all ``n`` registers in parallel and returns the maximum pair.

Round accounting over a substrate with ``r`` read rounds and ``w`` write
rounds: MWMR reads cost ``r + w`` rounds (all SWMR atomic reads share
physical rounds), MWMR writes cost ``(r + w) + w``.  With the GV06 substrate
that is 4-round reads and 6-round writes — the price of multi-writer
on top of the paper's time-optimal SWMR storage.

Because every logical register is flattened onto the same physical objects
by :mod:`repro.registers.multiplex`, the object side is a single
:class:`~repro.registers.multiplex.MultiplexObjectHandler` over the
substrate handler, regardless of nesting depth.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.api.registry import register_protocol
from repro.errors import ConfigurationError
from repro.registers.base import (
    RegisterProtocol,
    SystemBackend,
    _assemble,
    resolve_reader,
)
from repro.registers.multiplex import MultiplexObjectHandler, multiplex
from repro.registers.timestamps import max_candidate
from repro.registers.transform_atomic import RegularToAtomicProtocol
from repro.sim.network import DeliveryPolicy
from repro.sim.process import FaultBehavior
from repro.sim.simulator import ClientOperation, ProtocolGenerator
from repro.types import ProcessId, TaggedValue, Timestamp, reader_id, reader_ids

if TYPE_CHECKING:
    from repro.workloads.generator import OperationPlan


class _WriterFamily(SystemBackend):
    """What both multi-writer systems share: one register, many writers."""

    backend_name = "multi-writer"

    def schedule(self, plan: OperationPlan) -> None:
        """Writes route to writer ``plan.client_index``, reads to reader
        ``plan.client_index``."""
        self._one_register(plan)
        if plan.kind == "write":
            self.write(plan.client_index, plan.value, at=plan.at)
        else:
            self.read(plan.client_index, at=plan.at)

    def _writer_pid(self, writer_index: int) -> ProcessId:
        if not 1 <= writer_index <= self.n_writers:
            raise ConfigurationError(f"writer index {writer_index} out of range")
        return ProcessId("writer", writer_index)


class MultiWriterRegisterSystem(_WriterFamily):
    """A complete MWMR atomic storage system on simulated Byzantine objects.

    Unlike :class:`~repro.registers.base.RegisterSystem` (single writer),
    this harness owns the whole writer family.  Histories it produces have
    multiple writers and are checked with the general linearizability
    checker rather than the SWMR atomicity checker.

    Args:
        substrate_factory: produces fresh regular-register substrate
            instances (e.g. ``lambda: FastRegularProtocol()``).
        t: fault threshold; ``S`` defaults to the substrate's minimum for ``t``.
        n_writers / n_readers: the MWMR client population.
    """

    def __init__(
        self,
        substrate_factory: Callable[[], RegisterProtocol],
        t: int,
        S: int | None = None,
        n_writers: int = 2,
        n_readers: int = 2,
        behaviors: Mapping[ProcessId, FaultBehavior] | None = None,
        policy: DeliveryPolicy | None = None,
        allow_overfault: bool = False,
        durability: str = "none",
    ) -> None:
        if n_writers < 1:
            raise ConfigurationError("need at least one writer")
        probe = substrate_factory()
        _assemble(
            self, probe, lambda: MultiplexObjectHandler(probe.object_handler()),
            t=t, S=S, behaviors=behaviors, policy=policy,
            allow_overfault=allow_overfault, durability=durability,
        )
        self.n_writers = n_writers
        self.n_readers = n_readers
        total_personas = n_writers + n_readers
        # One SWMR atomic register per writer; every client is a potential
        # reader of every register, so each transform carries all personas.
        self._registers: dict[int, RegularToAtomicProtocol] = {
            j: RegularToAtomicProtocol(substrate_factory, n_readers=total_personas)
            for j in range(1, n_writers + 1)
        }

    @property
    def label(self) -> str:
        return f"mwmr[{self._registers[1].substrate_name}]"

    # ------------------------------------------------------------------ #
    # Personas
    # ------------------------------------------------------------------ #

    def _writer_persona(self, writer_index: int) -> ProcessId:
        """Reader persona a writer uses when scanning registers."""
        return reader_id(writer_index)

    def _reader_persona(self, reader_index: int) -> ProcessId:
        if not 1 <= reader_index <= self.n_readers:
            raise ConfigurationError(f"reader index {reader_index} out of range")
        return reader_id(self.n_writers + reader_index)

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #

    def _scan_generator(self, persona: ProcessId) -> ProtocolGenerator:
        """Read all writer registers in parallel; return the max pair."""
        reads = {
            f"w{j}": self._registers[j].read_tagged_generator(self.ctx, persona)
            for j in sorted(self._registers)
        }

        def generator() -> ProtocolGenerator:
            observed: Mapping[str, TaggedValue] = yield from multiplex(reads)
            return max_candidate(observed.values())

        return generator()

    def write(self, writer_index: int, value: Any, at: int = 0) -> ClientOperation:
        """Schedule a multi-writer write of ``value`` by writer ``writer_index``."""
        self._writable(value)
        writer_pid = self._writer_pid(writer_index)  # validates the index
        persona = self._writer_persona(writer_index)
        scan = self._scan_generator(persona)
        register = self._registers[writer_index]
        ctx = self.ctx

        def generator() -> ProtocolGenerator:
            best: TaggedValue = yield from scan
            ts = Timestamp(best.ts.seq + 1, writer_index)
            store = register.write_generator_tagged(ctx, TaggedValue(ts=ts, value=value))
            yield from multiplex({f"w{writer_index}": store})
            return value

        return self.simulator.invoke(
            writer_pid, "write", generator(), at=at, declared_value=value
        )

    def read(self, reader_index: int, at: int = 0) -> ClientOperation:
        """Schedule a multi-writer read by reader ``reader_index``."""
        persona = self._reader_persona(reader_index)
        scan = self._scan_generator(persona)

        def generator() -> ProtocolGenerator:
            best: TaggedValue = yield from scan
            return best.value

        return self.simulator.invoke(reader_id(1000 + reader_index), "read", generator(), at=at)


class NativeMultiWriterSystem(_WriterFamily):
    """Multi-writer harness over a *natively* MWMR register protocol.

    Some protocols (classical multi-writer ABD) are multi-writer by
    construction: one shared object state, per-writer operation generators
    exposed as ``write_generator_for(ctx, writer_index, value)``.  This
    harness gives them the same writer-family surface as
    :class:`MultiWriterRegisterSystem` so the multi-writer backend can run
    either kind interchangeably.
    """

    def __init__(
        self,
        protocol: RegisterProtocol,
        t: int,
        S: int | None = None,
        n_writers: int = 2,
        n_readers: int = 2,
        behaviors: Mapping[ProcessId, FaultBehavior] | None = None,
        policy: DeliveryPolicy | None = None,
        allow_overfault: bool = False,
        durability: str = "none",
    ) -> None:
        if n_writers < 1:
            raise ConfigurationError("need at least one writer")
        if not hasattr(protocol, "write_generator_for"):
            raise ConfigurationError(
                f"{protocol.name} is not a native multi-writer protocol "
                "(no write_generator_for)"
            )
        _assemble(
            self, protocol, protocol.object_handler,
            t=t, S=S, behaviors=behaviors, policy=policy,
            allow_overfault=allow_overfault, durability=durability,
        )
        self.protocol = protocol
        self.n_writers = n_writers
        self.n_readers = n_readers
        self.readers = reader_ids(n_readers)

    def write(self, writer_index: int, value: Any, at: int = 0) -> ClientOperation:
        """Schedule a write of ``value`` by writer ``writer_index``."""
        self._writable(value)
        writer_pid = self._writer_pid(writer_index)  # validates the index
        generator = self.protocol.write_generator_for(self.ctx, writer_index, value)
        return self.simulator.invoke(writer_pid, "write", generator, at=at, declared_value=value)

    def read(self, reader_index: int = 1, at: int = 0) -> ClientOperation:
        """Schedule a read by reader ``r_{reader_index}``."""
        reader = resolve_reader(self.readers, reader_index)
        generator = self.protocol.read_generator(self.ctx, reader)
        return self.simulator.invoke(reader, "read", generator, at=at)


# --------------------------------------------------------------------- #
# Registry face of the transformation
# --------------------------------------------------------------------- #


class MultiWriterStackProtocol(RegisterProtocol):
    """Registry entry for the SWMR→MWMR stack: metadata plus the substrate.

    The transformation is a whole *system* (one SWMR atomic register per
    writer, a shared writer family), not a drop-in
    :class:`~repro.registers.base.RegisterProtocol` — so this class carries
    the substrate factory and the round accounting for the registry and the
    multi-writer backend and defines no single-register generators: running
    it requires ``backend="multi-writer"`` (the other backends refuse a stack
    before building anything).
    """

    def __init__(self, name: str, substrate_factory: Callable[[], RegisterProtocol]) -> None:
        self.name = name
        self.substrate_factory = substrate_factory
        sample = RegularToAtomicProtocol(substrate_factory, n_readers=1)
        # Section 5 accounting over a substrate with r-round reads and
        # w-round writes: MWMR reads cost r + w, MWMR writes (r + w) + w.
        self.read_rounds = sample.read_rounds
        self.write_rounds = sample.read_rounds + sample.write_rounds

    def validate_configuration(self, S: int, t: int) -> None:
        self.substrate_factory().validate_configuration(S, t)


def _mwmr_over_fast_regular() -> MultiWriterStackProtocol:
    from repro.registers.fast_regular import FastRegularProtocol

    return MultiWriterStackProtocol(
        "mwmr-fast-regular", lambda: FastRegularProtocol("replay")
    )


def _mwmr_over_secret_token() -> MultiWriterStackProtocol:
    from repro.registers.secret_token import SecretTokenProtocol

    return MultiWriterStackProtocol("mwmr-secret-token", lambda: SecretTokenProtocol())


register_protocol(
    "mwmr-fast-regular",
    model="byzantine",
    semantics="atomic",
    resilience="S ≥ 3t + 1",
    min_size=lambda t: 3 * t + 1,
    write_rounds=6,  # (r + w) + w = (2 + 2) + 2 over the GV06 substrate
    read_rounds=4,  # r + w = 2 + 2
    scenarios=("fault-free", "crash", "silent", "replay"),
    backend="multi-writer",
    aliases=("mwmr(fast-regular)",),
    description=(
        "SWMR→MWMR over atomic-fast-regular — the paper's closing stack "
        "(4-round reads, 6-round writes)"
    ),
    factory=_mwmr_over_fast_regular,
)

register_protocol(
    "mwmr-secret-token",
    model="secret-token",
    semantics="atomic",
    resilience="S ≥ 3t + 1",
    min_size=lambda t: 3 * t + 1,
    write_rounds=5,  # (r + w) + w = (1 + 2) + 2 over the token substrate
    read_rounds=3,  # r + w = 1 + 2
    scenarios=("fault-free", "silent", "replay", "fabricate"),
    backend="multi-writer",
    aliases=("mwmr(secret-token)",),
    description="SWMR→MWMR over atomic-secret-token (3-round reads, 5-round writes)",
    factory=_mwmr_over_secret_token,
)

"""The SWMR regular → SWMR atomic transformation of [4, 20].

This is the construction the paper's Section 5 uses to *close the gap* its
lower bounds open: take a robust SWMR **regular** register with 2-round
writes and 2-round reads [GV06] and apply the classical transformation —
``R + 1`` regular registers, one owned by the writer and one per reader,
with every read writing its result back into the reader's own register —
to obtain robust SWMR **atomic** storage with 2-round writes and 4-round
reads.  Over the secret-token substrate (1-round regular reads) the same
transformation yields 3-round atomic reads, optimal in that model.

Round accounting (the paper's footnote 6): a read first reads *all* R + 1
regular registers **in parallel** (the logical operations share physical
rounds via :mod:`repro.registers.multiplex`), then writes the maximum back
into its own register — ``read_rounds(substrate) + write_rounds(substrate)``
in total.  A write is one substrate write into the writer's register.

Why it is atomic (sketch): validity and freshness are inherited from the
substrate's regularity on the writer's register; read monotonicity (the
paper's property 4) holds because a read returning a pair ``(ts, v)``
completes a substrate write of that pair into its own register before
responding, so every later read's parallel pass sees some register whose
last complete write has timestamp at least ``ts``.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.api.registry import register_protocol
from repro.errors import ConfigurationError
from repro.registers.base import ProtocolContext, RegisterProtocol
from repro.registers.multiplex import MultiplexObjectHandler, multiplex
from repro.registers.timestamps import max_candidate
from repro.sim.process import ObjectHandler
from repro.sim.simulator import ProtocolGenerator
from repro.types import ProcessId, TaggedValue, reader_ids

#: Name of the writer's logical register.
WRITER_REGISTER = "W"


def reader_register(reader: ProcessId) -> str:
    """Name of the logical register owned by ``reader``."""
    return f"R{reader.index}"


class RegularToAtomicProtocol(RegisterProtocol):
    """SWMR atomic register built from ``R + 1`` SWMR regular registers.

    Args:
        substrate_factory: zero-argument callable producing a fresh substrate
            protocol instance.  The substrate writes and reads through the
            register template's tagged pair — ``write_generator_tagged`` and
            ``read_tagged_generator`` — and mints the writer's pairs with
            its ``_next_pair``.  The transformation states the same two
            methods and inherits the untagged ones.
        n_readers: number of readers ``R`` (fixes the register family).
    """

    name = "atomic-from-regular"

    def __init__(
        self,
        substrate_factory: Callable[[], RegisterProtocol],
        n_readers: int,
    ) -> None:
        if n_readers < 1:
            raise ConfigurationError("the transformation needs at least one reader")
        self.n_readers = n_readers
        self._registers: dict[str, RegisterProtocol] = {WRITER_REGISTER: substrate_factory()}
        for reader in reader_ids(n_readers):
            self._registers[reader_register(reader)] = substrate_factory()
        sample = self._registers[WRITER_REGISTER]
        if sample.read_rounds is None:
            raise ConfigurationError("substrate must advertise a bounded read round count")
        self.substrate_name = sample.name
        self.write_rounds = sample.write_rounds
        self.read_rounds = sample.read_rounds + sample.write_rounds
        self.name = f"atomic-from[{sample.name}]"

    def validate_configuration(self, S: int, t: int) -> None:
        self._registers[WRITER_REGISTER].validate_configuration(S, t)

    def object_handler(self) -> ObjectHandler:
        return MultiplexObjectHandler(self._registers[WRITER_REGISTER].object_handler())

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #

    def write_generator(self, ctx: ProtocolContext, value: Any) -> ProtocolGenerator:
        substrate = self._registers[WRITER_REGISTER]

        def generator() -> ProtocolGenerator:
            # Minted when the write starts, not when it is scheduled: a
            # write dropped as a busy invocation consumes no timestamp.
            return (yield from self.write_generator_tagged(ctx, substrate._next_pair(value)))

        return generator()

    def write_generator_tagged(self, ctx: ProtocolContext, tv: TaggedValue) -> ProtocolGenerator:
        """Write an explicit pair into the writer's register."""
        substrate = self._registers[WRITER_REGISTER]

        def generator() -> ProtocolGenerator:
            inner = substrate.write_generator_tagged(ctx, tv)
            yield from multiplex({WRITER_REGISTER: inner})
            return tv.value

        return generator()

    def read_tagged_generator(self, ctx: ProtocolContext, reader: ProcessId) -> ProtocolGenerator:
        own = reader_register(reader)
        if own not in self._registers:
            raise ConfigurationError(f"{reader} has no register; configured R={self.n_readers}")

        def generator() -> ProtocolGenerator:
            # Phase one: read every register in parallel (shared rounds).
            reads = {
                name: protocol.read_tagged_generator(ctx, reader)
                for name, protocol in sorted(self._registers.items())
            }
            observed: Mapping[str, TaggedValue] = yield from multiplex(reads)
            best = max_candidate(observed.values())
            # Phase two: write the chosen pair back into the reader's own
            # register — the step that buys read monotonicity.
            write_back = self._registers[own].write_generator_tagged(ctx, best)
            yield from multiplex({own: write_back})
            return best

        return generator()


def _atomic_over_fast_regular(n_readers: int = 2) -> RegularToAtomicProtocol:
    from repro.registers.fast_regular import FastRegularProtocol

    return RegularToAtomicProtocol(lambda: FastRegularProtocol("replay"), n_readers=n_readers)


def _atomic_over_secret_token(n_readers: int = 2) -> RegularToAtomicProtocol:
    from repro.registers.secret_token import SecretTokenProtocol

    return RegularToAtomicProtocol(lambda: SecretTokenProtocol(), n_readers=n_readers)


register_protocol(
    "atomic-fast-regular",
    model="byzantine",
    semantics="atomic",
    resilience="S ≥ 3t + 1",
    min_size=lambda t: 3 * t + 1,
    write_rounds=2,
    read_rounds=4,
    scenarios=("fault-free", "crash", "silent", "replay"),
    needs_readers=True,
    aliases=("atomic(fast-regular)", "atomic-from[fast-regular]"),
    description=(
        "regular→atomic over the GV06-style substrate — "
        "the paper's time-optimal robust atomic storage (2W/4R)"
    ),
    factory=_atomic_over_fast_regular,
)

register_protocol(
    "atomic-secret-token",
    model="secret-token",
    semantics="atomic",
    resilience="S ≥ 3t + 1",
    min_size=lambda t: 3 * t + 1,
    write_rounds=2,
    read_rounds=3,
    scenarios=("fault-free", "silent", "replay", "fabricate"),
    needs_readers=True,
    aliases=("atomic(secret-token)", "atomic-from[secret-token]"),
    description="regular→atomic over secret tokens — optimal in that model (2W/3R)",
    factory=_atomic_over_secret_token,
)

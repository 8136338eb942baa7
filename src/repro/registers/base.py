"""Protocol and system plumbing shared by every register implementation.

A :class:`RegisterProtocol` is the one register template: a protocol states
its object-side handler (state layout + reply logic) and its rounds — the
writer's for a given ``(ts, value)`` pair, a reader's returning the pair it
selects — over the round abstraction of :mod:`repro.sim.rounds`, and
inherits the writer's timestamp counter and the untagged ``write`` /
``read`` generators.  The
:class:`RegisterSystem` convenience harness instantiates a protocol on a
simulator — objects, fault behaviours, history recording, tracing — so tests,
examples and benchmarks can say ``system.write(1); system.read(1);
system.run()`` and then check the resulting history.

Every register system — this module's :class:`RegisterSystem`, the
reconfigurable, multi-writer and sharded ones — is a :class:`SystemBackend`:
:func:`_assemble` builds its objects, recorder, trace and simulator, and the
base class holds the surface the harness drives (``schedule`` one operation
plan, ``run``, ``histories``, ``close``).  A built system *is* the backend
:mod:`repro.api.backends` hands to the trial engine.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Self, Sequence

from repro.errors import ConfigurationError
from repro.sim.batched import BatchedSimulator
from repro.sim.network import DeliveryPolicy
from repro.sim.process import FaultBehavior, ObjectHandler, ObjectServer
from repro.sim.simulator import ClientOperation, ProtocolGenerator
from repro.sim.tracing import MessageTrace
from repro.spec.history import History, HistoryRecorder
from repro.storage import StorageRuntime
from repro.types import (
    BOTTOM, ProcessId, TaggedValue, Timestamp, object_ids, reader_id, reader_ids, writer_id,
)

if TYPE_CHECKING:
    from repro.workloads.generator import OperationPlan

#: The key name single-register systems report their one history under.
DEFAULT_KEY = "default"


class SystemBackend(ABC):
    """A built storage system behind the harness API.

    The uniform surface the trial engine, the explorer, the CLI and the
    benchmarks drive: :meth:`schedule` routes one operation plan, :meth:`run`
    executes to quiescence, :meth:`histories` returns one recorded history
    per key, and ``simulator`` / ``trace`` (set by :func:`_assemble`) feed
    the shared round accounting
    (:func:`repro.analysis.metrics.measure_backend_latency`).  Built systems
    are caller-owned: :meth:`close` releases them, and ``with`` a system
    closes it on the way out.
    """

    #: Logical register names this system hosts (one entry for
    #: single-register systems).
    keys: tuple[str, ...] = (DEFAULT_KEY,)
    #: The registered backend a single-register system serves, as its
    #: keyed-plan rejection names it.
    backend_name = "single"

    @property
    def system(self) -> SystemBackend:
        """The register harness: the system itself (a view over a system
        answers the system it wraps)."""
        return self

    @property
    def S(self) -> int:
        """Object count (one epoch's, on a reconfigurable system)."""
        return self.ctx.S

    @property
    def label(self) -> str:
        """Protocol label for latency reports."""
        return self.protocol.name

    @abstractmethod
    def schedule(self, plan: OperationPlan) -> None:
        """Route one operation plan into this system."""

    def _one_register(self, plan: OperationPlan) -> None:
        """Refuse a keyed plan: this system holds one register."""
        if plan.key is not None:
            raise ConfigurationError(
                f"the {self.backend_name} backend holds one register — keyed plans "
                "need backend='sharded'"
            )

    @staticmethod
    def _writable(value: Any) -> None:
        """The initial value ⊥ is reserved (paper §2.2: "not a valid input
        value for a write")."""
        if value == BOTTOM:
            raise ConfigurationError("⊥ is reserved for the initial value and cannot be written")

    def run(self, max_events: int | None = 1_000_000) -> int:
        """Run the simulation to its quiescent fixed point.

        Returns the number of simulator events executed.  ``max_events``
        bounds the run (``None``: unbounded); exhausting the budget raises
        :class:`~repro.errors.SimulationError`.
        """
        return self.simulator.run(max_events=max_events)

    def history(self) -> History:
        """The operation history recorded so far (all keys combined)."""
        return self.recorder.freeze()

    def histories(self) -> dict[str, History]:
        """One recorded history per key, for per-key consistency checks."""
        return {DEFAULT_KEY: self.history()}

    def server(self, pid: ProcessId) -> ObjectServer:
        """The object server with identifier ``pid``."""
        return self.simulator.objects[pid]

    def max_rounds(self, kind: str) -> int:
        """Worst-case rounds used by completed operations of ``kind``."""
        return self.simulator.max_rounds_used(kind)

    def close(self) -> None:
        """Release the stable stores (journal files, the temporary directory
        of ``durability="dir"``), then the engine's operation table and
        process wiring; called by whoever built the system, once done
        reading it.  A closed system is not run again."""
        if self.storage is not None:
            self.storage.close()
        self.simulator.close()

    def __enter__(self) -> Self:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _default_size(protocol: RegisterProtocol, t: int) -> int:
    """Smallest standard threshold configuration ``protocol`` accepts:
    2t+1 for crash protocols, 3t+1 Byzantine, 4t+1 masking."""
    for size in sorted({1, t + 1, 2 * t + 1, 3 * t + 1, 4 * t + 1}):
        try:
            protocol.validate_configuration(size, t)
            return size
        except ConfigurationError:
            continue
    raise ConfigurationError(f"no default size found for {protocol.name} with t={t}")


#: ``(protocol class, protocol name, S, t)`` → the validated object count.
_SIZES: dict[tuple[type, str, int | None, int], int] = {}


def _sized(protocol: RegisterProtocol, S: int | None, t: int) -> int:
    """``S`` (``None``: the protocol's default size for ``t``), validated.

    Derived once per configuration: a protocol's resilience rule is fixed
    by its class and its name (which names the variant, as in
    ``fast-regular[replay]``), and a schedule search builds one
    configuration thousands of times.  A rejected configuration is not
    remembered — it raises on every build.
    """
    key = (protocol.__class__, protocol.name, S, t)
    size = _SIZES.get(key)
    if size is None:
        if S is None:
            size = _default_size(protocol, t)
        else:
            protocol.validate_configuration(S, t)
            size = S
        _SIZES[key] = size
    return size


def _assemble(
    system: SystemBackend,
    sample: "RegisterProtocol",
    handler_factory: Callable[[], ObjectHandler],
    *,
    t: int,
    S: int | None,
    behaviors: Mapping[ProcessId, FaultBehavior] | None,
    policy: DeliveryPolicy | None,
    allow_overfault: bool,
    durability: str,
    spares: int = 0,
) -> tuple[ProcessId, ...]:
    """The constructor path every register system shares.

    Sizes and validates the configuration against ``sample``, checks the
    fault budget and that every behaviour addresses a pool object, then
    builds the durability runtime, one (durably wrapped) handler per pool
    object, the recorder, the wire trace and the simulator onto ``system``.
    The systems differ only in ``handler_factory`` and in the pool —
    ``spares`` objects beyond the ``S`` epoch members (reconfiguration);
    the pool's object ids are returned.
    """
    S = _sized(sample, S, t)
    behaviors = dict(behaviors or {})
    if len(behaviors) > t and not allow_overfault:
        raise ConfigurationError(
            f"{len(behaviors)} faulty objects exceed the threshold t={t}"
        )
    # The whole pool exists up front: the simulator's object set is fixed.
    pool = object_ids(S + spares)
    system.ctx = ProtocolContext(S=S, t=t, objects=pool[:S])
    unknown = set(behaviors) - set(pool)
    if unknown:
        raise ConfigurationError(f"behaviours for unknown objects: {sorted(unknown)}")
    system.storage = storage = StorageRuntime.create(durability)
    system.durability = durability
    system.servers = [
        ObjectServer(
            pid=pid,
            handler=(
                handler_factory() if storage is None
                else storage.wrap(pid, handler_factory())
            ),
            behavior=behaviors.get(pid),
        )
        for pid in pool
    ]
    system.recorder = HistoryRecorder()
    system.trace = MessageTrace()
    system.simulator = BatchedSimulator(
        system.servers, policy=policy, history=system.recorder, trace=system.trace
    )
    return pool


def resolve_reader(readers: Sequence[ProcessId], reader_index: int) -> ProcessId:
    """The reader ``r_{reader_index}`` from ``readers``, or raise.

    Shared by :meth:`RegisterSystem.read` and the :mod:`repro.api` facade so
    reader-index validation stays in one place.
    """
    reader = reader_id(reader_index)
    if reader not in readers:
        raise ConfigurationError(f"{reader} is not one of the {len(readers)} readers")
    return reader


@dataclass(frozen=True, slots=True)
class ProtocolContext:
    """Static parameters every generator needs: sizes and identities."""

    S: int
    t: int
    objects: tuple[ProcessId, ...]

    @property
    def wait_quorum(self) -> int:
        """Replies a round can always safely wait for: ``S − t``."""
        return self.S - self.t

    @property
    def certify(self) -> int:
        """Reports guaranteeing at least one correct voucher: ``t + 1``."""
        return self.t + 1


class RegisterProtocol:
    """Abstract SWMR register protocol: the one register template.

    Every protocol here has one writer that tags each value with the next
    timestamp, then runs rounds of quorum queries over ``(ts, value)``
    pairs.  A protocol states only its rounds:

    * :meth:`validate_configuration` — its resilience requirement;
    * :meth:`object_handler` — the object-side state and replies;
    * :meth:`write_generator_tagged` — the writer's rounds for a given pair;
    * :meth:`read_tagged_generator` — a reader's rounds, returning the pair
      the read selects.

    It inherits :meth:`write_generator`, which mints the writer's next pair
    (:meth:`_next_pair`) when called and writes it, and
    :meth:`read_generator`, which returns the tagged read's value — the
    tagged methods are what the Section 5 transformations compose.
    :attr:`write_rounds` / :attr:`read_rounds` are the advertised worst-case
    round counts (used by the latency benchmarks and by the lower-bound
    engine to select applicable victims).
    """

    #: Human-readable protocol name for tables and traces.
    name: str = "abstract"
    #: Advertised worst-case communication rounds for a write.
    write_rounds: int = 0
    #: Advertised worst-case communication rounds for a read, or None when
    #: unbounded / configuration-dependent.
    read_rounds: int | None = None
    #: The writer's last timestamp.  ``Timestamp`` is immutable, so the
    #: first write rebinds it on the instance: each instance counts its own.
    _write_ts: Timestamp = Timestamp.zero()

    def __init__(self) -> None:
        pass  # declared so that a stray keyword is named in the TypeError

    def validate_configuration(self, S: int, t: int) -> None:
        """Raise :class:`~repro.errors.ConfigurationError` if ``(S, t)`` is unsupported."""
        raise NotImplementedError

    def object_handler(self) -> ObjectHandler:
        """Fresh object-side handler (one per storage object)."""
        raise NotImplementedError

    def write_generator_tagged(self, ctx: ProtocolContext, tv: TaggedValue) -> ProtocolGenerator:
        """Generator writing the explicit pair ``tv``; returns ``tv.value``."""
        raise NotImplementedError

    def read_tagged_generator(self, ctx: ProtocolContext, reader: ProcessId) -> ProtocolGenerator:
        """Generator implementing ``read()`` for ``reader``; returns the
        selected ``(ts, value)`` pair."""
        raise NotImplementedError

    def _next_pair(self, value: Any) -> TaggedValue:
        """The writer's next pair: ``value`` under the next timestamp."""
        self._write_ts = ts = self._write_ts.next_for()
        return TaggedValue(ts=ts, value=value)

    def write_generator(self, ctx: ProtocolContext, value: Any) -> ProtocolGenerator:
        """Generator implementing ``write(value)`` for the single writer."""
        return self.write_generator_tagged(ctx, self._next_pair(value))

    def read_generator(self, ctx: ProtocolContext, reader: ProcessId) -> ProtocolGenerator:
        """Generator implementing ``read()`` for ``reader``."""
        tagged = self.read_tagged_generator(ctx, reader)

        def generator() -> ProtocolGenerator:
            result = yield from tagged
            return result.value

        return generator()


class RegisterSystem(SystemBackend):
    """A protocol instantiated on a simulated storage system.

    Args:
        protocol: the register protocol to run.
        t: declared fault threshold.
        S: number of objects (defaults to the protocol's minimum for ``t``,
           i.e. ``3t + 1`` for Byzantine protocols, ``2t + 1`` for ABD).
        n_readers: how many reader clients exist.
        behaviors: fault behaviours keyed by object id; at most ``t`` entries
           unless ``allow_overfault`` is set (some experiments deliberately
           exceed the threshold to show where protocols break).
        policy: delivery policy (default unit-latency FIFO).
        durability: the run axis of the same name — see
           :class:`repro.axes.RunAxes`.
    """

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
    ) -> None:
        _assemble(
            self, protocol, protocol.object_handler,
            t=t, S=S, behaviors=behaviors, policy=policy,
            allow_overfault=allow_overfault, durability=durability,
        )
        self.protocol = protocol
        self.writer = writer_id()
        self.readers = reader_ids(n_readers)

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #

    def write(self, value: Any, at: int = 0) -> ClientOperation:
        """Schedule a write of ``value`` at relative virtual time ``at``."""
        self._writable(value)
        generator = self.protocol.write_generator(self.ctx, value)
        return self.simulator.invoke(self.writer, "write", generator, at=at, declared_value=value)

    def read(self, reader_index: int = 1, at: int = 0) -> ClientOperation:
        """Schedule a read by reader ``r_{reader_index}`` at time ``at``."""
        reader = resolve_reader(self.readers, reader_index)
        generator = self.protocol.read_generator(self.ctx, reader)
        return self.simulator.invoke(reader, "read", generator, at=at)

    def schedule(self, plan: OperationPlan) -> None:
        """Writes go to the writer, reads to reader ``plan.client_index``."""
        self._one_register(plan)
        if plan.kind == "write":
            self.write(plan.value, at=plan.at)
        else:
            self.read(plan.client_index, at=plan.at)

"""System backends: one harness API over single, multi-writer and sharded clusters.

A **backend** is the piece of the facade that turns a protocol registry
entry into a *running storage system* and back into histories and round
accounting.  The :class:`Cluster` builder, the trial engine, the CLI and
the benchmarks all talk to systems exclusively through this interface, so
a new cluster shape (a batched simulator, a k-atomic store, …) slots in by
registering one :class:`BackendSpec` — no consumer changes.

Three backends ship built in:

* ``single`` — today's :class:`~repro.registers.base.RegisterSystem`
  (one SWMR register, one writer).  The default; behaviour and structured
  results are byte-identical to the pre-backend facade.
* ``multi-writer`` — the SWMR→MWMR transformation
  (:class:`~repro.registers.transform_mwmr.MultiWriterRegisterSystem`) for
  registered :class:`MultiWriterStackProtocol` stacks, or
  :class:`~repro.registers.transform_mwmr.NativeMultiWriterSystem` for
  natively multi-writer protocols such as ``mw-abd``.
* ``sharded`` — a keyspace-sharding composite
  (:class:`~repro.registers.sharded.ShardedRegisterSystem`): one register
  per key, one protocol instance each, every shard multiplexed onto the
  same physical objects; consistency is checked per key.

The lifecycle is build → :meth:`SystemBackend.schedule` (one call per
:class:`~repro.workloads.generator.OperationPlan`) → :meth:`run` →
:meth:`histories` (one per key) with rounds accounted by
:func:`repro.analysis.metrics.measure_backend_latency` against the shared
simulator and wire trace.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.api.registry import ProtocolSpec
from repro.axes import RunAxes
from repro.errors import ConfigurationError
from repro.sim.network import DeliveryPolicy
from repro.spec.history import History
from repro.types import ProcessId
from repro.workloads.generator import OperationPlan

#: The key name single-register backends report their one history under.
DEFAULT_KEY = "default"

#: Key layout a sharded cluster gets when none is configured.
DEFAULT_SHARD_KEYS = ("k1", "k2")


@dataclass(frozen=True, slots=True, kw_only=True)
class BackendRequest(RunAxes):
    """Picklable description of the system one trial needs.

    Everything here is plain data so it crosses process boundaries; the
    stateful pieces (fault behaviours, protocol instances, delivery
    policies) are created fresh per build.  Protocols, backends and
    scenarios are referenced by *registry name*.  The run axes (durability,
    consistency, observe, repairs, spares, xfer_quorum) are
    inherited from :class:`~repro.axes.RunAxes` — see there for what each
    one means.  :class:`~repro.api.cluster.TrialSpec` and
    :class:`~repro.explore.engine.ScheduleProbe` extend this class, so a
    spec *is* the request its backend is built from.
    """

    protocol: str
    protocol_kwargs: tuple[tuple[str, Any], ...] = ()
    t: int = 1
    S: int | None = None
    n_readers: int = 2
    n_writers: int = 1
    keys: tuple[str, ...] = ()
    backend: str = "single"
    allow_overfault: bool = False
    #: Named scenario (its fault plan and delivery fabric), or ``None`` for
    #: the explicit ``fault_groups`` below.
    scenario: str | None = None
    fault_groups: tuple[Any, ...] = ()  # cluster._FaultGroup entries
    #: Plan-addressed adversarial skip rules
    #: (:class:`~repro.faults.schedules.PlannedSkip`), compiled to a
    #: delivery policy only inside the trial.
    schedule: tuple[Any, ...] = ()


class SystemBackend(ABC):
    """A built storage system behind the harness API.

    Concrete backends wrap one simulated system and expose the uniform
    surface the trial engine drives: ``schedule`` routes one operation
    plan, ``run`` executes to quiescence, ``histories`` returns one
    recorded history per key, and ``simulator``/``trace`` feed the shared
    round accounting.  ``system`` is the wrapped harness — the low-level
    escape hatch ``Cluster.build_system()`` hands out.
    """

    #: Logical register names this backend hosts (one entry for
    #: single-register backends).
    keys: tuple[str, ...] = (DEFAULT_KEY,)

    def __init__(self, system: Any) -> None:
        self.system = system
        self.simulator = system.simulator
        self.trace = system.trace
        self.ctx = system.ctx

    @property
    def S(self) -> int:
        """Physical object count of the wrapped system."""
        return self.ctx.S

    @property
    def label(self) -> str:
        """Protocol label for latency reports."""
        return self.system.protocol.name

    @abstractmethod
    def schedule(self, plan: OperationPlan) -> None:
        """Route one operation plan into the wrapped system."""

    def run(self, max_events: int | None = 1_000_000) -> int:
        """Run to quiescence; returns the simulator event count.

        ``max_events`` bounds the run (the schedule explorer's per-schedule
        budget); an exhausted budget raises
        :class:`~repro.errors.SimulationError`.
        """
        return self.system.run(max_events=max_events)

    def history(self) -> History:
        """The combined history across all keys (drill-down view)."""
        return self.system.history()

    @abstractmethod
    def histories(self) -> dict[str, History]:
        """One recorded history per key, for per-key consistency checks."""

    def close(self) -> None:
        """Release the wrapped system's stable stores (journal files, the
        temporary directory of ``durability="dir"``); called by whoever
        built the backend, once done reading it."""
        if self.system.storage is not None:
            self.system.storage.close()


class SingleRegisterBackend(SystemBackend):
    """One SWMR register: the default ``single`` backend on a
    ``RegisterSystem``, and ``reconfig`` on a membership that advances
    through epochs (the repair steps carried by the build request are armed
    by the wrapped system at ``run`` time, so they ride behind the client
    plans in serial order).  ``name`` is the registered backend's.
    """

    def __init__(self, system: Any, name: str = "single") -> None:
        super().__init__(system)
        self.name = name

    def schedule(self, plan: OperationPlan) -> None:
        if plan.key is not None:
            raise ConfigurationError(
                f"the {self.name} backend holds one register — keyed plans "
                "need backend='sharded'"
            )
        if plan.kind == "write":
            self.system.write(plan.value, at=plan.at)
        else:
            self.system.read(plan.client_index, at=plan.at)

    def histories(self) -> dict[str, History]:
        return {DEFAULT_KEY: self.system.history()}


class MultiWriterBackend(SystemBackend):
    """One MWMR register; write plans route by writer index."""

    @property
    def label(self) -> str:
        return self._label

    def __init__(self, system: Any, label: str) -> None:
        super().__init__(system)
        self._label = label

    def schedule(self, plan: OperationPlan) -> None:
        if plan.key is not None:
            raise ConfigurationError(
                "the multi-writer backend holds one register — keyed plans "
                "need backend='sharded'"
            )
        if plan.kind == "write":
            self.system.write(plan.client_index, plan.value, at=plan.at)
        else:
            self.system.read(plan.client_index, at=plan.at)

    def histories(self) -> dict[str, History]:
        return {DEFAULT_KEY: self.system.history()}


class ShardedBackend(SystemBackend):
    """Many named registers; plans route by key."""

    def __init__(self, system: Any) -> None:
        super().__init__(system)
        self.keys = system.keys

    def schedule(self, plan: OperationPlan) -> None:
        if plan.key is None:
            raise ConfigurationError(
                "the sharded backend needs a key on every plan — generate the "
                "workload with keys= or give explicit plans a key"
            )
        if plan.kind == "write":
            self.system.write(plan.key, plan.value, at=plan.at)
        else:
            self.system.read(plan.key, plan.client_index, at=plan.at)

    def histories(self) -> dict[str, History]:
        return self.system.histories()


class KAtomicBackend(SystemBackend):
    """Bounded-stale reads: an atomic inner system behind a k-lag view.

    Wraps the single or sharded backend (chosen by the key layout) and
    serves its recorded histories through
    :func:`repro.consistency.bounded.bounded_stale_view`: every complete
    read is rewritten to the value ``bound − 1`` writes older than the one
    the inner register returned — the observable behaviour of a replica
    lagging the primary by a fixed window.  The view is a pure function of
    the inner history, so rounds, traces, and transformed histories are
    byte-identical across simulation engines and serial/parallel execution
    exactly like the inner backend's.
    """

    def __init__(self, inner: SystemBackend, bound: int) -> None:
        super().__init__(inner.system)
        self.inner = inner
        self.bound = bound
        self.keys = inner.keys

    @property
    def label(self) -> str:
        return self.inner.label

    def schedule(self, plan: OperationPlan) -> None:
        self.inner.schedule(plan)

    def history(self) -> History:
        from repro.consistency.bounded import bounded_stale_view

        if len(self.keys) <= 1:
            return bounded_stale_view(self.inner.history(), self.bound)
        # Keyed layouts lag each key's register independently; the combined
        # drill-down view merges the per-key transforms back in step order.
        records = [r for h in self.histories().values() for r in h.records]
        records.sort(key=lambda record: record.invocation_step)
        return History(records)

    def histories(self) -> dict[str, History]:
        from repro.consistency.bounded import bounded_stale_view

        return {
            key: bounded_stale_view(history, self.bound)
            for key, history in self.inner.histories().items()
        }


# --------------------------------------------------------------------- #
# Backend registry
# --------------------------------------------------------------------- #


@dataclass(frozen=True, slots=True)
class BackendSpec:
    """Registry entry: a backend builder plus the metadata the facade reports.

    ``keyed`` backends accept multi-key layouts (``Cluster(keys=...)``);
    ``multi_writer`` backends drive a writer family (``n_writers``).
    Builders take ``(protocol_spec, request, behaviors, policy)`` — the
    trailing delivery policy is ``None`` for the default FIFO fabric and an
    adversarial :class:`~repro.sim.network.DeliveryPolicy` when the trial
    carries a schedule (``Cluster.with_schedule``, scenario policies, the
    schedule explorer's :class:`~repro.explore.controlled.ControlledDelivery`).
    """

    name: str
    builder: Callable[
        [ProtocolSpec, BackendRequest, Mapping[ProcessId, Any], DeliveryPolicy | None],
        SystemBackend,
    ]
    description: str
    keyed: bool = False
    multi_writer: bool = False
    aliases: tuple[str, ...] = ()

    def build(
        self,
        protocol_spec: ProtocolSpec,
        request: BackendRequest,
        behaviors: Mapping[ProcessId, Any],
        policy: DeliveryPolicy | None = None,
    ) -> SystemBackend:
        """A fresh backend system for one trial (systems are stateful)."""
        backend = self.builder(protocol_spec, request, behaviors, policy)
        if request.observe:
            _arm_observability(backend)
        return backend

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly metadata (the builder callable omitted)."""
        return {
            "name": self.name,
            "description": self.description,
            "keyed": self.keyed,
            "multi_writer": self.multi_writer,
            "aliases": list(self.aliases),
        }


def _arm_observability(backend: SystemBackend) -> None:
    """Arm the virtual clock on every behaviour and store of ``backend``.

    Both engines keep ``queue.now`` current while dispatching (the batched
    engine pins it per delivery wave), so the same closure reads identical
    virtual times on either — the byte-parity the span layer relies on.
    """
    simulator = backend.simulator
    queue = simulator.queue

    def clock(_queue: Any = queue) -> int:
        return _queue.now

    for server in simulator.objects.values():
        behavior = server.behavior
        if behavior is not None:
            # Wrapper chains (timed faults) share one log per server, so
            # the wrapper's "fired" marker and the inner behaviour's own
            # phases interleave on a single timeline.
            shared_log: list[tuple[int, str]] = []
            link = behavior
            while link is not None:
                link.clock = clock
                link.phase_log = shared_log
                link = getattr(link, "inner", None)
        store = getattr(server.handler, "store", None)
        if store is not None:
            store.clock = clock


_BACKENDS: dict[str, BackendSpec] = {}
_ALIASES: dict[str, str] = {}


def register_backend(spec: BackendSpec) -> BackendSpec:
    """Register ``spec`` under its name and aliases."""
    for key in (spec.name, *spec.aliases):
        if key in _BACKENDS or key in _ALIASES:
            raise ConfigurationError(f"backend name {key!r} registered twice")
    _BACKENDS[spec.name] = spec
    for alias in spec.aliases:
        _ALIASES[alias] = spec.name
    return spec


def get_backend_spec(name: str) -> BackendSpec:
    """The :class:`BackendSpec` registered under ``name`` (or an alias)."""
    canonical = _ALIASES.get(name, name)
    try:
        return _BACKENDS[canonical]
    except KeyError:
        raise ConfigurationError(
            f"unknown backend {name!r}; available: {', '.join(available_backends())}"
        ) from None


def available_backends() -> tuple[str, ...]:
    """All registered backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def backend_specs() -> tuple[BackendSpec, ...]:
    """All registered specs, sorted by name."""
    return tuple(_BACKENDS[name] for name in sorted(_BACKENDS))


# --------------------------------------------------------------------- #
# Built-in builders
# --------------------------------------------------------------------- #


def _build_protocol(protocol_spec: ProtocolSpec, request: BackendRequest) -> Any:
    return protocol_spec.build(
        n_readers=request.n_readers, **dict(request.protocol_kwargs)
    )


def _system_kwargs(
    request: BackendRequest,
    behaviors: Mapping[ProcessId, Any],
    policy: DeliveryPolicy | None,
) -> dict[str, Any]:
    """The keywords every register-system constructor takes."""
    return dict(
        t=request.t,
        S=request.S,
        n_readers=request.n_readers,
        behaviors=behaviors,
        policy=policy,
        allow_overfault=request.allow_overfault,
        durability=request.durability,
    )


def _reject_stack(protocol: Any, protocol_spec: ProtocolSpec, backend: str) -> None:
    from repro.registers.transform_mwmr import MultiWriterStackProtocol

    if isinstance(protocol, MultiWriterStackProtocol):
        raise ConfigurationError(
            f"protocol {protocol_spec.name!r} is a multi-writer stack and cannot "
            f"run on the {backend!r} backend; use backend='multi-writer'"
        )


def _build_single(
    protocol_spec: ProtocolSpec,
    request: BackendRequest,
    behaviors: Mapping[ProcessId, Any],
    policy: DeliveryPolicy | None = None,
) -> SystemBackend:
    from repro.registers.base import RegisterSystem

    protocol = _build_protocol(protocol_spec, request)
    _reject_stack(protocol, protocol_spec, "single")
    return SingleRegisterBackend(
        RegisterSystem(protocol, **_system_kwargs(request, behaviors, policy))
    )


def _build_multi_writer(
    protocol_spec: ProtocolSpec,
    request: BackendRequest,
    behaviors: Mapping[ProcessId, Any],
    policy: DeliveryPolicy | None = None,
) -> SystemBackend:
    from repro.registers.transform_mwmr import (
        MultiWriterRegisterSystem,
        MultiWriterStackProtocol,
        NativeMultiWriterSystem,
    )

    protocol = _build_protocol(protocol_spec, request)
    keywords = _system_kwargs(request, behaviors, policy)
    if isinstance(protocol, MultiWriterStackProtocol):
        system: Any = MultiWriterRegisterSystem(
            protocol.substrate_factory, n_writers=request.n_writers, **keywords
        )
    elif hasattr(protocol, "write_generator_for"):
        system = NativeMultiWriterSystem(
            protocol, n_writers=request.n_writers, **keywords
        )
    else:
        raise ConfigurationError(
            f"protocol {protocol_spec.name!r} is single-writer only; the "
            "multi-writer backend needs an MWMR stack (mwmr-*) or a native "
            "multi-writer protocol (write_generator_for)"
        )
    return MultiWriterBackend(system, label=protocol.name)


def _build_sharded(
    protocol_spec: ProtocolSpec,
    request: BackendRequest,
    behaviors: Mapping[ProcessId, Any],
    policy: DeliveryPolicy | None = None,
) -> SystemBackend:
    from repro.registers.sharded import ShardedRegisterSystem

    probe = _build_protocol(protocol_spec, request)
    _reject_stack(probe, protocol_spec, "sharded")
    system = ShardedRegisterSystem(
        lambda: _build_protocol(protocol_spec, request),
        keys=request.keys or DEFAULT_SHARD_KEYS,
        **_system_kwargs(request, behaviors, policy),
    )
    return ShardedBackend(system)


def _build_reconfig(
    protocol_spec: ProtocolSpec,
    request: BackendRequest,
    behaviors: Mapping[ProcessId, Any],
    policy: DeliveryPolicy | None = None,
) -> SystemBackend:
    from repro.registers.reconfig import ReconfigRegisterSystem

    protocol = _build_protocol(protocol_spec, request)
    _reject_stack(protocol, protocol_spec, "reconfig")
    system = ReconfigRegisterSystem(
        protocol,
        repairs=request.repairs,
        spares=request.spares,
        xfer_quorum=request.xfer_quorum,
        **_system_kwargs(request, behaviors, policy),
    )
    return SingleRegisterBackend(system, "reconfig")


def _build_k_atomic(
    protocol_spec: ProtocolSpec,
    request: BackendRequest,
    behaviors: Mapping[ProcessId, Any],
    policy: DeliveryPolicy | None = None,
) -> SystemBackend:
    from repro.consistency.models import DEFAULT_K, consistency_bound

    bound = (
        # Backend selected directly without a model string: default lag window.
        DEFAULT_K
        if request.consistency == "atomic"
        else consistency_bound(request.consistency)
    )
    inner_builder = _build_sharded if request.keys else _build_single
    return KAtomicBackend(inner_builder(protocol_spec, request, behaviors, policy), bound)


register_backend(BackendSpec(
    name="single",
    builder=_build_single,
    description="one SWMR register on a RegisterSystem (the default)",
    aliases=("swmr",),
))

register_backend(BackendSpec(
    name="multi-writer",
    builder=_build_multi_writer,
    description="one MWMR register: the SWMR→MWMR stack or a native MWMR protocol",
    multi_writer=True,
    aliases=("mwmr", "mw"),
))

register_backend(BackendSpec(
    name="sharded",
    builder=_build_sharded,
    description="keyspace-sharded cluster: one register per key on shared objects",
    keyed=True,
))

register_backend(BackendSpec(
    name="reconfig",
    builder=_build_reconfig,
    description="reconfigurable register: membership epochs, online state-transfer repair",
    aliases=("epoch",),
))

register_backend(BackendSpec(
    name="k-atomic",
    builder=_build_k_atomic,
    description="bounded-stale reads: an atomic inner register behind a k-lag view",
    keyed=True,
    aliases=("bounded-stale",),
))

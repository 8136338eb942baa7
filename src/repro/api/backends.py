"""System backends: the registry that turns a protocol into a running system.

A **backend** is the piece of the facade that turns a protocol registry
entry into a *running storage system*.  The :class:`Cluster` builder, the
trial engine, the explorer, the CLI and the benchmarks all build systems
through this registry, so a new cluster shape slots in by registering one
:class:`BackendSpec` — no consumer changes.

A built system *is* its backend: every register system derives from
:class:`~repro.registers.base.SystemBackend`, which holds the lifecycle —
build → :meth:`~repro.registers.base.SystemBackend.schedule` (one call per
:class:`~repro.workloads.generator.OperationPlan`) → ``run`` →
``histories`` (one per key), with rounds accounted by
:func:`repro.analysis.metrics.measure_backend_latency` against the system's
simulator and wire trace, and ``close`` releasing its stable stores.

Five backends ship built in:

* ``single`` — :class:`~repro.registers.base.RegisterSystem` (one SWMR
  register, one writer).  The default.
* ``multi-writer`` — the SWMR→MWMR transformation
  (:class:`~repro.registers.transform_mwmr.MultiWriterRegisterSystem`) for
  registered :class:`MultiWriterStackProtocol` stacks, or
  :class:`~repro.registers.transform_mwmr.NativeMultiWriterSystem` for
  natively multi-writer protocols such as ``mw-abd``.
* ``sharded`` — a keyspace-sharding composite
  (:class:`~repro.registers.sharded.ShardedRegisterSystem`): one register
  per key, one protocol instance each, every shard multiplexed onto the
  same physical objects; consistency is checked per key.
* ``reconfig`` — :class:`~repro.registers.reconfig.ReconfigRegisterSystem`,
  a membership advancing through epochs by online repair.
* ``k-atomic`` — :class:`KAtomicBackend`, a bounded-stale view over a
  single or sharded system; the one backend that is not itself a system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.api.registry import ProtocolSpec
from repro.axes import RunAxes
from repro.errors import ConfigurationError
from repro.registers.base import RegisterSystem, SystemBackend
from repro.sim.network import DeliveryPolicy
from repro.spec.history import History
from repro.types import ProcessId

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
    #: Named scenario (its declared faults), or ``None`` for the explicit
    #: ``fault_groups`` below.
    scenario: str | None = None
    fault_groups: tuple[Any, ...] = ()  # cluster._FaultGroup entries


def _forward(name: str) -> property:
    """A read-only attribute of :class:`KAtomicBackend` answering its
    system's ``name``."""
    return property(lambda view: getattr(view.system, name))


class KAtomicBackend:
    """Bounded-stale reads: a k-lag view over an atomic system.

    Wraps the single or sharded system (chosen by the key layout) and serves
    its recorded histories through
    :func:`repro.consistency.bounded.bounded_stale_view`: every complete
    read is rewritten to the value ``bound − 1`` writes older than the one
    the wrapped register returned — the observable behaviour of a replica
    lagging the primary by a fixed window.  The nine forwarded names below
    are the wrapped system's own, so rounds and traces are byte-identical
    across serial/parallel execution exactly like the system's; the view is
    a pure function of its histories and shares that identity.  Any other
    name is an :class:`AttributeError` — reach the system through
    ``system``.
    """

    schedule = _forward("schedule")
    run = _forward("run")
    close = _forward("close")
    simulator = _forward("simulator")
    trace = _forward("trace")
    storage = _forward("storage")
    keys = _forward("keys")
    label = _forward("label")
    S = _forward("S")
    # ``with`` the view closes the system, as ``with`` the system does.
    __enter__ = SystemBackend.__enter__
    __exit__ = SystemBackend.__exit__

    def __init__(self, system: SystemBackend, bound: int) -> None:
        self.system = system
        self.bound = bound

    def history(self) -> History:
        from repro.consistency.bounded import bounded_stale_view

        if len(self.keys) <= 1:
            return bounded_stale_view(self.system.history(), self.bound)
        # Keyed layouts lag each key's register independently; the combined
        # drill-down view merges the per-key transforms back in step order.
        records = [r for h in self.histories().values() for r in h.records]
        records.sort(key=lambda record: record.invocation_step)
        return History(records)

    def histories(self) -> dict[str, History]:
        from repro.consistency.bounded import bounded_stale_view

        return {
            key: bounded_stale_view(history, self.bound)
            for key, history in self.system.histories().items()
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
    trailing delivery policy is ``None`` for the default FIFO fabric and
    the schedule explorer's
    :class:`~repro.explore.controlled.ControlledDelivery` when a searched
    schedule holds links.
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
    protocol = _build_protocol(protocol_spec, request)
    _reject_stack(protocol, protocol_spec, "single")
    return RegisterSystem(protocol, **_system_kwargs(request, behaviors, policy))


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
        return MultiWriterRegisterSystem(
            protocol.substrate_factory, n_writers=request.n_writers, **keywords
        )
    if hasattr(protocol, "write_generator_for"):
        return NativeMultiWriterSystem(protocol, n_writers=request.n_writers, **keywords)
    raise ConfigurationError(
        f"protocol {protocol_spec.name!r} is single-writer only; the "
        "multi-writer backend needs an MWMR stack (mwmr-*) or a native "
        "multi-writer protocol (write_generator_for)"
    )


def _build_sharded(
    protocol_spec: ProtocolSpec,
    request: BackendRequest,
    behaviors: Mapping[ProcessId, Any],
    policy: DeliveryPolicy | None = None,
) -> SystemBackend:
    from repro.registers.sharded import ShardedRegisterSystem

    probe = _build_protocol(protocol_spec, request)
    _reject_stack(probe, protocol_spec, "sharded")
    return ShardedRegisterSystem(
        lambda: _build_protocol(protocol_spec, request),
        keys=request.keys or DEFAULT_SHARD_KEYS,
        **_system_kwargs(request, behaviors, policy),
    )


def _build_reconfig(
    protocol_spec: ProtocolSpec,
    request: BackendRequest,
    behaviors: Mapping[ProcessId, Any],
    policy: DeliveryPolicy | None = None,
) -> SystemBackend:
    from repro.registers.reconfig import ReconfigRegisterSystem

    protocol = _build_protocol(protocol_spec, request)
    _reject_stack(protocol, protocol_spec, "reconfig")
    return ReconfigRegisterSystem(
        protocol,
        repairs=request.repairs,
        spares=request.spares,
        xfer_quorum=request.xfer_quorum,
        **_system_kwargs(request, behaviors, policy),
    )


def _build_k_atomic(
    protocol_spec: ProtocolSpec,
    request: BackendRequest,
    behaviors: Mapping[ProcessId, Any],
    policy: DeliveryPolicy | None = None,
) -> KAtomicBackend:
    from repro.consistency.models import DEFAULT_K, consistency_bound

    bound = (
        # Backend selected directly without a model string: default lag window.
        DEFAULT_K
        if request.consistency == "atomic"
        else consistency_bound(request.consistency)
    )
    builder = _build_sharded if request.keys else _build_single
    return KAtomicBackend(builder(protocol_spec, request, behaviors, policy), bound)


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

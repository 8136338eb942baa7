"""Declarative experiment builder: protocol × adversary × workload × checks.

:class:`Cluster` is the facade every entry point (CLI, benchmarks, examples,
tests) composes experiments through::

    from repro.api import Cluster

    result = (
        Cluster("fast-regular", t=2)
        .with_faults("stale-echo", count=2)
        .with_workload(reads=0.6, spacing=25, operations=12)
        .check("atomicity", "regularity")
        .run(trials=20, seed=7)
    )
    assert result.trials[0].checks["regularity"].ok
    print(result.render())

Builder methods return **new** ``Cluster`` instances (fluent, immutable), so
partial configurations can be reused as templates across sweeps.  ``run``
builds one fresh system per trial through a named **backend**
(:mod:`repro.api.backends`: ``single`` SWMR registers, ``multi-writer``
MWMR systems, ``sharded`` keyspace composites — protocols advertise their
default, so ``Cluster("mwmr-fast-regular")`` just works), replays a seeded
workload through :func:`repro.analysis.metrics.measure_backend_latency`,
runs the requested spec checkers per key on the recorded histories, and
returns a structured :class:`RunResult` — per-trial latencies, round
counts, check verdicts and the materialized fault inventory.

Execution is factored through a picklable :class:`TrialSpec` and the pure
module-level :func:`run_trial` function, so trials can run either in-process
or on a :class:`concurrent.futures.ProcessPoolExecutor`: pass
``parallel=True`` (and optionally ``max_workers=``) to :meth:`Cluster.run`
or :func:`sweep`.  Both paths execute the *same* ``run_trial`` code on the
same specs, so for identical seeds the serial and parallel results are
byte-identical under :meth:`RunResult.to_dict` — configurations that cannot
cross a process boundary (explicit schedules closing over live objects,
protocols not resolvable through the registry) fall back to serial with a
:class:`RuntimeWarning`.

:func:`sweep` fans a protocol × scenario grid into a :class:`SweepResult`
(the shape the latency-matrix benchmark renders); with ``parallel=True`` the
whole grid's trials are flattened into one process pool.
"""

from __future__ import annotations

import copy
import pickle
import statistics
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.analysis.metrics import measure_backend_latency
from repro.analysis.tables import format_table
from repro.api.backends import (
    DEFAULT_SHARD_KEYS,
    BackendRequest,
    BackendSpec,
    SystemBackend,
    get_backend_spec,
)
from repro.api.faults import fault_spec
from repro.api.registry import ProtocolSpec, available_protocols, get_spec
from repro.axes import AxesView, RunAxes, SearchBounds
from repro.consistency.models import (  # re-exported: the registry moved to repro.consistency
    CHECKS,
    CheckVerdict,
    available_checks,
    canonical_check_name,
    parse_consistency,
    run_check,
)
from repro.consistency.staleness import read_staleness, staleness_distribution
from repro.errors import ConfigurationError
from repro.registers.base import resolve_reader
from repro.sim.network import DeliveryPolicy
from repro.spec.history import History
from repro.sim.process import FaultBehavior
from repro.storage import SpaceMeter
from repro.types import ProcessId, object_id, reader_ids, scoped_operation_serials
from repro.workloads.generator import OperationPlan, WorkloadGenerator, normalize_keys
from repro.workloads.scenarios import Scenario, get_scenario


# --------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------- #


@dataclass(frozen=True, slots=True)
class FaultInventory:
    """What the adversary actually got: requested vs effective faults.

    ``effective`` may be below ``requested`` when a non-strict plan clamps
    to the threshold ``t`` (the clamp is always recorded here so sweeps
    cannot silently under-fault).
    """

    requested: int
    effective: int
    assignments: Mapping[str, str]  # object id → behaviour description

    def to_dict(self) -> dict[str, Any]:
        return {
            "requested": self.requested,
            "effective": self.effective,
            "assignments": dict(self.assignments),
        }

    def describe(self) -> str:
        if not self.assignments:
            return "fault-free"
        parts = [f"{pid}:{how}" for pid, how in sorted(self.assignments.items())]
        note = "" if self.effective == self.requested else f" (requested {self.requested})"
        return ", ".join(parts) + note


@dataclass(slots=True)
class TrialResult:
    """One trial: latencies, completion and check verdicts.

    ``history`` keeps the recorded operation history for drill-down (not
    serialized by :meth:`to_dict` — it is a live object graph).
    """

    trial: int
    seed: int | None
    write_rounds: list[int]
    read_rounds: list[int]
    incomplete: int
    checks: dict[str, CheckVerdict]
    history: History | None = None
    #: The trial's wire trace when the spec asked for it (``--trace``);
    #: like ``history`` it is a live object graph, excluded from to_dict.
    trace: Any | None = None
    #: Space-meter report of the trial's durable journals (``None`` when
    #: the trial ran with ``durability="none"``) — plain data, serialized.
    storage: dict[str, Any] | None = None
    #: Rounds used by membership-repair steps (reconfig backend only;
    #: empty elsewhere, and omitted from to_dict when empty so existing
    #: stored payloads stay byte-stable).
    repair_rounds: list[int] = field(default_factory=list)
    #: Measured staleness distribution of the trial's served reads
    #: (``None`` unless the trial ran under a non-atomic consistency
    #: model) — plain data, serialized when present.
    staleness: dict[str, Any] | None = None
    #: Observability payload (``None`` unless the trial ran with
    #: ``observe=True``): ``spans``/``metrics`` are deterministic plain
    #: data (see :mod:`repro.obs`), ``events``/``elapsed_s`` surface the
    #: executed-event count and wall-clock drain duration in to_dict, and
    #: ``phases_s`` maps each fixed layer of the trial (build, plan,
    #: schedule, drain, account, freeze, check, meter, derive) to its
    #: wall-clock seconds — host time, kept out of to_dict and every dump.
    obs: dict[str, Any] | None = None

    @property
    def worst_write(self) -> int:
        return max(self.write_rounds, default=0)

    @property
    def worst_read(self) -> int:
        return max(self.read_rounds, default=0)

    @property
    def mean_write(self) -> float:
        return statistics.fmean(self.write_rounds) if self.write_rounds else 0.0

    @property
    def mean_read(self) -> float:
        return statistics.fmean(self.read_rounds) if self.read_rounds else 0.0

    @property
    def ok(self) -> bool:
        """All requested checks passed and every operation completed."""
        return self.incomplete == 0 and all(v.ok for v in self.checks.values())

    def to_dict(self) -> dict[str, Any]:
        payload = {
            "trial": self.trial,
            "seed": self.seed,
            "write_rounds": list(self.write_rounds),
            "read_rounds": list(self.read_rounds),
            "incomplete": self.incomplete,
            "checks": {name: verdict.to_dict() for name, verdict in self.checks.items()},
        }
        if self.storage is not None:
            payload["storage"] = self.storage
        if self.repair_rounds:
            payload["repair_rounds"] = list(self.repair_rounds)
        if self.staleness is not None:
            payload["staleness"] = self.staleness
        if self.obs is not None:
            # New keys, only present for observed runs: old JSONL files
            # (and every unobserved run) keep the exact pre-observability
            # payload, and `repro compare` ignores unknown trial keys.
            payload["events"] = self.obs["events"]
            payload["elapsed_s"] = self.obs["elapsed_s"]
        return payload


@dataclass(slots=True)
class RunResult(AxesView):
    """Structured outcome of :meth:`Cluster.run` across all trials."""

    protocol: str
    semantics: str
    t: int
    S: int
    n_readers: int
    scenario: str
    faults: FaultInventory
    checks: tuple[str, ...]
    trials: list[TrialResult] = field(default_factory=list)
    backend: str = "single"
    key_count: int = 1
    n_writers: int = 1
    #: The run axes every trial executed under (:class:`~repro.axes.RunAxes`).
    axes: RunAxes = RunAxes()
    #: Robustness-frontier payload (``None`` unless a frontier was
    #: attached, e.g. by ``sweep(frontier=True)``): the
    #: :meth:`~repro.robustness.FrontierResult.to_dict` of the
    #: configuration's certified model spectrum.
    robustness: dict[str, Any] | None = None

    @property
    def worst_write(self) -> int:
        return max((trial.worst_write for trial in self.trials), default=0)

    @property
    def worst_read(self) -> int:
        return max((trial.worst_read for trial in self.trials), default=0)

    @property
    def incomplete(self) -> int:
        return sum(trial.incomplete for trial in self.trials)

    @property
    def ok(self) -> bool:
        """Every trial completed all operations and passed all checks."""
        return all(trial.ok for trial in self.trials)

    def failures(self) -> list[tuple[int, CheckVerdict]]:
        """Every failed (trial index, verdict) pair, for diagnostics."""
        return [
            (trial.trial, verdict)
            for trial in self.trials
            for verdict in trial.checks.values()
            if not verdict.ok
        ]

    def to_dict(self) -> dict[str, Any]:
        payload = {
            "protocol": self.protocol,
            "semantics": self.semantics,
            "t": self.t,
            "S": self.S,
            "n_readers": self.n_readers,
            "scenario": self.scenario,
            "faults": self.faults.to_dict(),
            "checks": list(self.checks),
            "trials": [trial.to_dict() for trial in self.trials],
            "worst_write": self.worst_write,
            "worst_read": self.worst_read,
            "incomplete": self.incomplete,
            "ok": self.ok,
        }
        if self.backend != "single":
            # Backend + key layout metadata so stored rows from different
            # backends are never compared as like-for-like (`repro compare`
            # keys on these; absent fields mean the default single backend,
            # keeping old JSONL files comparable).
            payload["backend"] = self.backend
            payload["keys"] = self.key_count
            payload["writers"] = self.n_writers
        # Tagged axes away from their default; absent means default, so
        # files written before an axis existed stay comparable.
        payload.update(self.axes.non_default())
        if self.robustness is not None:
            # New key, only when a frontier was computed for this run:
            # frontier-free payloads stay byte-identical.
            payload["robustness"] = self.robustness
        return payload

    def render(self) -> str:
        """Per-trial table plus the fault inventory, ready to print."""
        rows = []
        for trial in self.trials:
            rows.append({
                "trial": str(trial.trial),
                "seed": "-" if trial.seed is None else str(trial.seed),
                "writes (worst/mean)": f"{trial.worst_write}/{trial.mean_write:.2f}",
                "reads (worst/mean)": f"{trial.worst_read}/{trial.mean_read:.2f}",
                "incomplete": str(trial.incomplete),
                "checks": ",".join(
                    f"{name}:{'ok' if verdict.ok else 'FAIL'}"
                    for name, verdict in trial.checks.items()
                ) or "-",
            })
        shape = ""
        if self.backend != "single":
            shape = f", backend={self.backend} ({self.key_count} key(s), {self.n_writers} writer(s))"
        shape += self.axes.tags()
        title = (
            f"{self.protocol} [{self.semantics}] — t={self.t}, S={self.S}, "
            f"{self.n_readers} readers{shape}, faults: {self.faults.describe()}"
        )
        return format_table(
            title,
            ("trial", "seed", "writes (worst/mean)", "reads (worst/mean)", "incomplete", "checks"),
            rows,
        )


@dataclass(slots=True)
class SweepResult:
    """Results of a protocol × scenario sweep."""

    runs: list[RunResult] = field(default_factory=list)

    def protocols(self) -> tuple[str, ...]:
        """Protocol names in first-seen order."""
        seen: dict[str, None] = {}
        for run in self.runs:
            seen.setdefault(run.protocol, None)
        return tuple(seen)

    def for_protocol(self, name: str) -> list[RunResult]:
        return [run for run in self.runs if run.protocol == name]

    def worst_rounds(self, name: str) -> tuple[int, int]:
        """(worst write, worst read) for ``name`` across its scenarios."""
        runs = self.for_protocol(name)
        if not runs:
            raise ConfigurationError(f"no runs recorded for protocol {name!r}")
        return (max(r.worst_write for r in runs), max(r.worst_read for r in runs))

    def to_dict(self) -> dict[str, Any]:
        return {"runs": [run.to_dict() for run in self.runs]}


# --------------------------------------------------------------------- #
# The builder
# --------------------------------------------------------------------- #


@dataclass(frozen=True, slots=True)
class _FaultGroup:
    """One ``with_faults`` request before materialization."""

    fault: str
    count: int
    strict: bool
    kwargs: tuple[tuple[str, Any], ...]


def _group_label(group: _FaultGroup) -> str:
    """Scenario-label fragment for one fault group.

    Timed groups carry their inner fault and trigger point in the label
    (``timed(stale-echo@2)×1``) — the timing *is* the configuration.
    Every other group keeps the historical ``fault×count`` form, so stored
    scenario labels stay byte-stable.
    """
    if group.fault == "timed":
        kwargs = dict(group.kwargs)
        inner = kwargs.pop("inner", "?")
        at = kwargs.pop("at", 0)
        return f"timed({inner}@{at})×{group.count}"
    return f"{group.fault}×{group.count}"


# --------------------------------------------------------------------- #
# Trial execution engine
# --------------------------------------------------------------------- #


@dataclass(frozen=True, slots=True, kw_only=True)
class TrialSpec(BackendRequest):
    """Everything one trial needs, as plain data.

    A spec is the picklable boundary between configuration and execution:
    :meth:`Cluster.run` compiles one spec per trial and hands them to
    :func:`run_trial` — in-process for serial runs, on a process pool for
    ``parallel=True``.  It *is* the
    :class:`~repro.api.backends.BackendRequest` its system is built from
    (protocol, backend, sizes, key layout, fault configuration and the run
    axes are inherited); on top it carries the workload shape, the
    checks and the trial's identity.

    ``workload_seed`` is the seed the generator actually uses for this trial
    (``seed + trial``); ``recorded_seed`` is what lands in
    :attr:`TrialResult.seed` (None for explicit schedules, which replay the
    same plan every trial).
    """

    scenario_label: str
    read_fraction: float
    spacing: int
    operations: int
    explicit_plans: tuple[OperationPlan, ...] | None
    checks: tuple[str, ...]
    trial: int
    workload_seed: int
    recorded_seed: int | None
    keep_history: bool
    key_skew: float = 0.0
    keep_trace: bool = False

    def plans(self) -> list[OperationPlan]:
        """The operation schedule this trial replays."""
        if self.explicit_plans is not None:
            return list(self.explicit_plans)
        generator = WorkloadGenerator(
            seed=self.workload_seed,
            n_readers=self.n_readers,
            n_writers=self.n_writers,
            read_fraction=self.read_fraction,
            spacing=self.spacing,
            keys=self.keys or None,
            key_skew=self.key_skew,
        )
        return generator.plan(self.operations)


def _effective_groups(
    scenario: str | None, fault_groups: tuple[_FaultGroup, ...], t: int
) -> tuple[_FaultGroup, ...]:
    """The groups a request materializes: its scenario's declared faults
    (``(name, count[, kwargs])`` entries), or else its own."""
    if scenario is None:
        return fault_groups
    return tuple(
        _FaultGroup(fault=fault, count=count, strict=False,
                    kwargs=tuple(sorted(rest[0].items())) if rest else ())
        for fault, count, *rest in get_scenario(scenario, t).faults
    )


def _materialize_behaviors(
    scenario: str | None,
    fault_groups: tuple[_FaultGroup, ...],
    t: int,
    allow_overfault: bool,
) -> dict[ProcessId, FaultBehavior]:
    """Fresh fault behaviours for one trial (behaviours are stateful).

    The one place faults are assigned and clamped, for scenarios and
    ``with_faults`` alike: objects ``s1, s2, …`` in group order, the total
    cut to ``t`` unless ``allow_overfault``, a strict group raising instead.
    """
    fault_groups = _effective_groups(scenario, fault_groups, t)
    requested = sum(group.count for group in fault_groups)
    budget = requested if allow_overfault else t
    if requested > budget and any(g.strict for g in fault_groups):
        raise ConfigurationError(
            f"strict fault plan requests {requested} faulty objects "
            f"but the threshold is t={t}"
        )
    behaviors: dict[ProcessId, FaultBehavior] = {}
    index = 1
    remaining = min(requested, budget)
    for group in fault_groups:
        spec = fault_spec(group.fault)
        for _ in range(min(group.count, remaining)):
            behaviors[object_id(index)] = spec.build(**dict(group.kwargs))
            index += 1
        remaining -= min(group.count, remaining)
    return behaviors


def build_backend(
    request: BackendRequest,
    protocol_spec: ProtocolSpec | None = None,
    adversary: Callable[[dict[ProcessId, FaultBehavior]], DeliveryPolicy] | None = None,
) -> SystemBackend:
    """The live system ``request`` describes — the one place a spec is built.

    Materialises fresh fault behaviours and hands them to the named backend,
    on the default unit-latency fabric.  ``adversary`` lets the schedule
    explorer step in between: it may rewrite ``behaviors`` in place (fault
    triggers) and returns the delivery policy to build with (its controlled
    delivery).  ``protocol_spec`` defaults to the registry entry
    ``request.protocol`` names.
    """
    behaviors = _materialize_behaviors(
        request.scenario, request.fault_groups, request.t, request.allow_overfault
    )
    policy = adversary(behaviors) if adversary is not None else None
    return get_backend_spec(request.backend).build(
        protocol_spec or get_spec(request.protocol), request, behaviors, policy
    )


def _run_trial_with(spec: TrialSpec, protocol_spec: ProtocolSpec) -> TrialResult:
    """Execute one trial against an already-resolved protocol spec."""
    # Wall-clock marks around the trial's fixed layers; they surface only in
    # an observed trial's ``obs["phases_s"]``.
    tick = time.perf_counter
    started = tick()
    # Operation serials restart at 1 inside the scope, so the recorded
    # history — including the operation ids surfaced in check explanations —
    # is a pure function of the spec, identical in-process and on a worker;
    # on exit the outer count resumes past its watermark, so any system live
    # outside the trial keeps allocating fresh ids.  The backend is closed on
    # the way out, once the result is built.
    with scoped_operation_serials(), closing(
        build_backend(spec, protocol_spec)
    ) as backend:
        if not (spec.keep_trace or spec.observe):
            # Nothing will read this trial's wire log: accounting reads the
            # round fold the sends raise, so only a kept trace or the obs
            # derivations need the log.
            backend.trace.drop_log()
        built = tick()
        plans = spec.plans()
        planned = tick()
        report = measure_backend_latency(backend, plans, scenario=spec.scenario_label)
        accounted = tick()
        histories = backend.histories()
        frozen = tick()
        verdicts = {name: run_check(name, histories) for name in spec.checks}
        checked = tick()
        storage = None
        if spec.durability != "none":
            # Meter the durable journals once the trial is quiescent; the
            # report is plain data, a pure function of the delivered message
            # sequence, so it is byte-identical across engines and across
            # serial/parallel execution like everything else in the result.
            storage = SpaceMeter(backend.storage).measure()
        staleness = None
        if spec.consistency != "atomic":
            # Measure the lag the served reads actually exhibited.  A pure
            # function of the recorded histories, so it shares their
            # engine/parallel byte-identity.
            staleness = staleness_distribution(histories)
        metered = tick()
        obs = None
        if spec.observe:
            # Derive spans and metrics from the engine's bookkeeping, after
            # the run.  Everything except elapsed_s and phases_s is a pure
            # function of the spec — byte-identical across engines and
            # serial/parallel execution — and neither of the two enters
            # span/metric dumps; phases_s stays out of to_dict() as well.
            from repro.obs import derive_metrics, derive_spans

            spans = derive_spans(backend.simulator, backend.trace)
            lag_samples: list[int] = []
            if spec.consistency != "atomic":
                lag_samples = [
                    s for s in read_staleness(backend.history()) if s is not None
                ]
            metrics = derive_metrics(
                spans,
                backend.trace,
                events=report.events,
                staleness=lag_samples,
            )
            phases = {
                "build": built - started,
                "plan": planned - built,
                **report.phases_s,
                "freeze": frozen - accounted,
                "check": checked - frozen,
                "meter": metered - checked,
                "derive": tick() - metered,
            }
            obs = {
                "spans": spans,
                "metrics": metrics,
                "events": report.events,
                "elapsed_s": round(report.elapsed_s, 6),
                "phases_s": {name: round(s, 6) for name, s in phases.items()},
            }
        return TrialResult(
            trial=spec.trial,
            seed=spec.recorded_seed,
            write_rounds=list(report.write_rounds),
            read_rounds=list(report.read_rounds),
            incomplete=report.incomplete,
            checks=verdicts,
            history=backend.history() if spec.keep_history else None,
            trace=backend.trace if spec.keep_trace else None,
            storage=storage,
            repair_rounds=list(report.repair_rounds),
            staleness=staleness,
            obs=obs,
        )


def run_trial(spec: TrialSpec) -> TrialResult:
    """Execute one trial described by ``spec`` and return its result.

    Pure with respect to the spec: same spec ⇒ same result, whether called
    in-process or by a pool worker.  The protocol is resolved through the
    registry, so the function itself is picklable by reference.
    """
    return _run_trial_with(spec, get_spec(spec.protocol))


def _parallel_obstacle(specs: Sequence[TrialSpec], protocol_spec: ProtocolSpec) -> str | None:
    """Why ``specs`` cannot run on a process pool, or None if they can."""
    if get_spec(specs[0].protocol) is not protocol_spec:
        return (
            f"protocol {specs[0].protocol!r} does not resolve to this spec "
            "through the registry"
        )
    try:
        pickle.dumps(tuple(specs))
    except Exception as error:  # noqa: BLE001 — any pickling failure disqualifies
        return f"trial specs are not picklable ({error})"
    return None


def _pool_map(
    specs: Sequence[Any],
    max_workers: int | None,
    fn: Callable[[Any], Any] = None,  # default run_trial, bound below
) -> list[Any] | None:
    """Run ``fn`` over ``specs`` on a process pool, preserving order.

    Returns ``None`` (after a :class:`RuntimeWarning`) when the pool cannot
    do the job, so the caller reruns serially.  Two known causes, both
    specific to the ``spawn``/``forkserver`` start methods: a worker's
    freshly imported registry lacks protocols/scenarios that were only
    registered at runtime in this process (a :class:`ConfigurationError`
    the parent already ruled out during :meth:`Cluster._prepare_run`), and
    a ``__main__`` that cannot be re-imported at all (interactive sessions
    — :class:`BrokenProcessPool`).
    """
    if fn is None:
        fn = run_trial
    try:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            chunksize = max(1, len(specs) // (pool._max_workers * 4))
            return list(pool.map(fn, specs, chunksize=chunksize))
    except (ConfigurationError, BrokenProcessPool) as error:
        warnings.warn(
            f"parallel workers could not run the trials ({error}); "
            "rerunning serially — register custom protocols/scenarios at "
            "import time (and run from an importable script) to use a pool",
            RuntimeWarning,
            stacklevel=4,
        )
        return None


def _execute_trials(
    specs: Sequence[TrialSpec],
    protocol_spec: ProtocolSpec,
    parallel: bool,
    max_workers: int | None,
) -> list[TrialResult]:
    """Run every spec, in-process or on a process pool, preserving order."""
    if parallel and len(specs) > 1:
        obstacle = _parallel_obstacle(specs, protocol_spec)
        if obstacle is None:
            results = _pool_map(specs, max_workers)
            if results is not None:
                return results
        else:
            warnings.warn(
                f"parallel execution unavailable, falling back to serial: {obstacle}",
                RuntimeWarning,
                stacklevel=3,
            )
    return [_run_trial_with(spec, protocol_spec) for spec in specs]


class Cluster:
    """Fluent experiment builder over a registered protocol name.

    Args:
        protocol: a registry name/alias (see :func:`available_protocols`)
            or a :class:`~repro.api.registry.ProtocolSpec`.
        t: declared fault threshold.
        S: object count (defaults to the protocol's minimum for ``t``).
        n_readers: reader population.
        allow_overfault: permit more than ``t`` faulty objects (demolition
            experiments).
        backend: system backend name (see
            :func:`repro.api.backends.available_backends`); defaults to the
            protocol's own advertised backend, so single-register protocols
            run exactly as before and ``mwmr-*`` stacks resolve to the
            multi-writer backend automatically.
        keys: key layout for keyed backends — a count or explicit names.
        n_writers: writer family size for multi-writer backends.
        durability / consistency / observe: the run axes of the
            same name — see :class:`repro.axes.RunAxes` for what each one
            means.  A non-atomic ``consistency`` routes single/sharded
            layouts onto the ``k-atomic`` backend automatically; conversely
            ``backend="k-atomic"`` without a model defaults to
            ``"k-atomic(2)"``.  The repair axes are set through
            :meth:`with_repairs`; :attr:`axes` reads all six back.
        protocol_kwargs: forwarded to the protocol factory per trial.
    """

    def __init__(
        self,
        protocol: str | ProtocolSpec,
        t: int = 1,
        S: int | None = None,
        n_readers: int = 2,
        allow_overfault: bool = False,
        backend: str | None = None,
        keys: int | Sequence[str] | None = None,
        n_writers: int | None = None,
        durability: str = "none",
        consistency: str = "atomic",
        observe: bool = False,
        **protocol_kwargs: Any,
    ) -> None:
        self._spec = protocol if isinstance(protocol, ProtocolSpec) else get_spec(protocol)
        if t < 0:
            raise ConfigurationError("t must be non-negative")
        if n_readers < 1:
            raise ConfigurationError("need at least one reader")
        self._t = t
        self._S = S
        self._n_readers = n_readers
        self._allow_overfault = allow_overfault
        self._protocol_kwargs = dict(protocol_kwargs)
        self._fault_groups: tuple[_FaultGroup, ...] = ()
        self._scenario: Scenario | None = None
        self._read_fraction = 0.6
        self._spacing = 25
        self._operations = 10
        self._explicit_plans: tuple[OperationPlan, ...] | None = None
        self._checks: tuple[str, ...] = ()
        self._backend: str | None = None
        self._keys: tuple[str, ...] | None = None
        self._n_writers: int | None = None
        self._key_skew = 0.0
        self._axes = RunAxes(
            durability=durability, consistency=consistency, observe=observe
        ).validated()
        if backend is None and self._axes.consistency != "atomic":
            # A bound implies the bounded-stale wrapper whenever the
            # protocol's own backend is one it can wrap; anything else
            # (multi-writer stacks, reconfig) fails in _apply_consistency.
            if self._spec.backend in ("single", "sharded"):
                backend = "k-atomic"
        self._configure_backend(backend, keys, n_writers)
        self._apply_consistency()

    @property
    def spec(self) -> ProtocolSpec:
        """The protocol registry entry this cluster is built on."""
        return self._spec

    @property
    def axes(self) -> RunAxes:
        """The run axes this configuration executes under."""
        return self._axes

    def _clone(self) -> "Cluster":
        return copy.copy(self)

    # ------------------------------------------------------------------ #
    # Backend resolution
    # ------------------------------------------------------------------ #

    def _configure_backend(
        self,
        backend: str | None,
        keys: int | Sequence[str] | None,
        n_writers: int | None,
    ) -> None:
        if backend is not None:
            self._backend = get_backend_spec(backend).name  # canonical, validated
        spec = self.backend_spec
        if keys is not None:
            if not spec.keyed:
                raise ConfigurationError(
                    f"backend {spec.name!r} holds a single register and takes no "
                    "key layout; use backend='sharded' for keyed workloads"
                )
            self._keys = normalize_keys(keys)
        if n_writers is not None:
            if not spec.multi_writer:
                raise ConfigurationError(
                    f"backend {spec.name!r} drives a single writer; "
                    "n_writers needs backend='multi-writer'"
                )
            if n_writers < 1:
                raise ConfigurationError("need at least one writer")
            self._n_writers = n_writers

    def _apply_consistency(self) -> None:
        """Reconcile the consistency model with the resolved backend.

        A non-atomic model needs the ``k-atomic`` backend: single/sharded
        layouts route onto it (the wrapper builds the same inner system),
        other backends reject the combination.  The ``k-atomic`` backend
        without a model adopts the default bound, so results always name
        the model they were served under.
        """
        name = self.backend_spec.name
        consistency = self._axes.consistency
        if consistency == "atomic":
            if name == "k-atomic":
                self._axes = replace(self._axes, consistency="k-atomic").validated()
            return
        if name in ("single", "sharded"):
            self._backend = "k-atomic"
            return
        if name != "k-atomic":
            raise ConfigurationError(
                f"consistency {consistency!r} needs the k-atomic backend "
                f"(or a single/sharded layout it can wrap); backend {name!r} "
                "serves atomic reads only"
            )

    @property
    def backend_spec(self) -> BackendSpec:
        """The backend registry entry this cluster resolves to."""
        return get_backend_spec(self._backend or self._spec.backend)

    def _key_names(self) -> tuple[str, ...]:
        """The key layout handed to the backend ('' tuple: single register)."""
        if not self.backend_spec.keyed:
            return ()
        if self._keys is not None:
            return self._keys
        # The k-atomic wrapper accepts keys but defaults to one register
        # (its inner system is the single backend unless keys are given);
        # only the sharded backend defaults to a multi-key layout.
        return DEFAULT_SHARD_KEYS if self.backend_spec.name == "sharded" else ()

    def _writer_count(self) -> int:
        """Writer family size (1 for single-writer backends)."""
        if not self.backend_spec.multi_writer:
            return 1
        return self._n_writers if self._n_writers is not None else 2

    # ------------------------------------------------------------------ #
    # Fluent configuration
    # ------------------------------------------------------------------ #

    def with_faults(
        self, fault: str, count: int = 1, strict: bool = False, **kwargs: Any
    ) -> "Cluster":
        """Give ``count`` objects the registered behaviour ``fault``.

        Multiple calls stack (objects are assigned in order).  The total is
        clamped to ``t`` unless ``allow_overfault`` was set; with
        ``strict=True`` the clamp raises instead, so sweeps cannot silently
        under-fault.  ``kwargs`` go to the behaviour maker (e.g.
        ``with_faults("crash", survive_messages=5)``).
        """
        spec = fault_spec(fault)  # validates the name early
        if count < 0:
            raise ConfigurationError("fault count must be non-negative")
        # Reject unknown maker arguments here, parent-side, so a typo'd
        # --fault-arg fails with the accepted names instead of a TypeError
        # inside a pool worker.
        spec.validate_kwargs(kwargs)
        clone = self._clone()
        clone._scenario = None
        clone._fault_groups = self._fault_groups + (
            _FaultGroup(fault=spec.name, count=count, strict=strict,
                        kwargs=tuple(sorted(kwargs.items()))),
        )
        return clone

    def with_axes(self, axes: RunAxes) -> "Cluster":
        """This configuration under ``axes`` — all six run axes at once.

        The one setter path: the axes are validated
        (:meth:`~repro.axes.RunAxes.validated`), repair settings are
        rejected off the reconfig backend, and a changed consistency model
        is reconciled with the backend.  ``with_repairs`` is this with the
        repair fields replaced.
        """
        axes = axes.validated()
        if (
            (axes.repairs or axes.spares is not None or axes.xfer_quorum is not None)
            and self.backend_spec.name != "reconfig"
        ):
            raise ConfigurationError(
                f"repairs need the reconfig backend, not {self.backend_spec.name!r}; "
                "build the cluster with backend='reconfig'"
            )
        clone = self._clone()
        clone._axes = axes
        if axes.consistency != self._axes.consistency:
            clone._apply_consistency()
        return clone

    def with_scenario(self, name: str) -> "Cluster":
        """Adopt a named scenario: its declared faults *and* workload shape."""
        scenario = get_scenario(name, self._t)
        clone = self._clone()
        clone._scenario = scenario
        clone._fault_groups = ()
        clone._read_fraction = scenario.read_fraction
        clone._spacing = scenario.spacing
        if scenario.overfault:
            # Fleet-wide scenarios (rolling restarts) deliberately exceed t —
            # the scenario opts in so the behaviour budget isn't clamped.
            clone._allow_overfault = True
        return clone

    def with_repairs(
        self,
        *steps: tuple[int, int],
        spares: int | None = None,
        xfer_quorum: int | None = None,
    ) -> "Cluster":
        """Schedule membership-repair steps (reconfig backend only).

        Steps are ``(member_index, at)`` pairs and stack across calls;
        ``spares`` / ``xfer_quorum`` override the spare-pool size and the
        state-transfer read quorum when given — see the axes of the same
        names on :class:`repro.axes.RunAxes`.
        """
        axes = self._axes
        return self.with_axes(replace(
            axes,
            repairs=axes.repairs + steps,
            spares=axes.spares if spares is None else spares,
            xfer_quorum=axes.xfer_quorum if xfer_quorum is None else xfer_quorum,
        ))

    def with_workload(
        self,
        reads: float | None = None,
        spacing: int | None = None,
        operations: int | None = None,
        key_skew: float | None = None,
    ) -> "Cluster":
        """Shape the generated workload (read fraction, spacing, length, skew).

        ``key_skew`` only matters for keyed backends: 0.0 spreads
        operations uniformly over the keys, larger values concentrate them
        on the first keys (hot shards).
        """
        clone = self._clone()
        if reads is not None:
            if not 0.0 <= reads <= 1.0:
                raise ConfigurationError("reads must be a probability")
            clone._read_fraction = reads
        if spacing is not None:
            if spacing < 0:
                raise ConfigurationError("spacing must be non-negative")
            clone._spacing = spacing
        if operations is not None:
            if operations < 1:
                raise ConfigurationError("need at least one operation")
            clone._operations = operations
        if key_skew is not None:
            if key_skew < 0:
                raise ConfigurationError("key_skew must be non-negative")
            clone._key_skew = key_skew
        clone._explicit_plans = None
        return clone

    def with_operations(
        self, operations: Iterable[OperationPlan | tuple[Any, ...]]
    ) -> "Cluster":
        """Use an explicit schedule instead of a generated workload.

        Accepts :class:`OperationPlan` entries or shorthand tuples:
        ``("write", value, at)`` and ``("read", reader_index, at)``, each
        with an optional trailing key for keyed backends —
        ``("write", value, at, "k3")``.  The same schedule is replayed in
        every trial.
        """
        plans: list[OperationPlan] = []
        readers = reader_ids(self._n_readers)
        for entry in operations:
            if not isinstance(entry, OperationPlan):
                kind, arg, at, *rest = entry
                if len(rest) > 1:
                    raise ConfigurationError(
                        f"operation shorthand takes at most 4 elements, got {entry!r}"
                    )
                key = rest[0] if rest else None
                if kind == "write":
                    entry = OperationPlan(kind="write", client_index=1, value=arg, at=at, key=key)
                elif kind == "read":
                    entry = OperationPlan(kind="read", client_index=arg, value=None, at=at, key=key)
                else:
                    raise ConfigurationError(f"operation kind must be read/write, got {kind!r}")
            if entry.kind == "read":
                resolve_reader(readers, entry.client_index)
            plans.append(entry)
        clone = self._clone()
        clone._explicit_plans = tuple(plans)
        return clone

    def check(self, *names: str, k: int | None = None) -> "Cluster":
        """Run the named consistency checks on every trial's history.

        Names resolve through the checker registry
        (:mod:`repro.consistency.models`): canonical names
        (``"atomicity"``), model shorthands (``"atomic"``), and the
        parametric family — ``check("k-atomic", k=2)`` or the inline
        ``check("k-atomic(2)")`` both record a ``k-atomic(2)`` verdict.
        """
        canonical = tuple(canonical_check_name(name, k=k) for name in names)
        if k is not None and not any(name.startswith("k-atomic") for name in canonical):
            raise ConfigurationError(
                "k= only parameterizes the k-atomic check; "
                f"none of {list(names)} takes a bound"
            )
        clone = self._clone()
        clone._checks = self._checks + canonical
        return clone

    def with_checks(self, *names: str, k: int | None = None) -> "Cluster":
        """Like :meth:`check`, but *replacing* any checks added so far.

        The robustness frontier walks one configuration down the model
        ladder, re-probing it under each checker in turn — appending (what
        :meth:`check` does) would accumulate the whole ladder onto every
        probe.
        """
        clone = self._clone()
        clone._checks = ()
        return clone.check(*names, k=k) if names else clone

    # ------------------------------------------------------------------ #
    # Materialization
    # ------------------------------------------------------------------ #

    def _materialize_faults(self) -> tuple[dict[ProcessId, Any], FaultInventory]:
        scenario = self._scenario.name if self._scenario is not None else None
        behaviors = _materialize_behaviors(
            scenario, self._fault_groups, self._t, self._allow_overfault
        )
        groups = _effective_groups(scenario, self._fault_groups, self._t)
        inventory = FaultInventory(
            requested=sum(group.count for group in groups),
            effective=len(behaviors),
            assignments={str(pid): b.describe() for pid, b in sorted(behaviors.items())},
        )
        return behaviors, inventory

    def _scenario_label(self) -> str:
        if self._scenario is not None:
            return self._scenario.name
        if not self._fault_groups:
            return "fault-free"
        return "+".join(_group_label(g) for g in self._fault_groups)

    def _plans(self, seed: int) -> list[OperationPlan]:
        (spec,) = self._trial_specs(1, seed, keep_history=False)
        return spec.plans()

    def _request_fields(self) -> dict[str, Any]:
        """The :class:`BackendRequest` fields of this configuration — the one
        mapping run, explore, frontier and :meth:`build_backend` compile from."""
        return dict(
            protocol=self._spec.name,
            protocol_kwargs=tuple(sorted(self._protocol_kwargs.items())),
            t=self._t,
            S=self._S,
            n_readers=self._n_readers,
            n_writers=self._writer_count(),
            keys=self._key_names(),
            backend=self.backend_spec.name,
            allow_overfault=self._allow_overfault,
            scenario=self._scenario.name if self._scenario is not None else None,
            fault_groups=self._fault_groups,
            **self._axes.axis_values(),
        )

    def _require_scenario_durability(self) -> None:
        """Fail parent-side when a scenario needs the durability seam.

        Recovery scenarios (rolling-restart, crash-storm) replay journals
        on rejoin; without a store the fault behaviour would raise
        StorageError on first delivery *inside* a trial — possibly inside a
        pool worker.  Surface the configuration error here instead.
        """
        if (
            self._scenario is not None
            and self._scenario.requires_durability
            and self._axes.durability == "none"
        ):
            raise ConfigurationError(
                f"scenario {self._scenario.name!r} replays durable journals "
                "and needs durability='mem' or durability='dir' "
                "(CLI: --durability mem)"
            )

    def build_backend(self) -> SystemBackend:
        """The configured system, owned by the caller: ``close()`` it once
        done with its journals.

        A :class:`~repro.registers.base.RegisterSystem` for the default
        backend, the multi-writer, sharded or reconfigurable system
        otherwise — or, for ``k-atomic``, the view whose ``.system`` is one.
        """
        return build_backend(BackendRequest(**self._request_fields()), self._spec)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def _trial_specs(
        self, trials: int, seed: int, keep_history: bool, keep_trace: bool = False
    ) -> list[TrialSpec]:
        """Compile one picklable :class:`TrialSpec` per trial."""
        explicit = self._explicit_plans is not None
        shared = dict(
            self._request_fields(),
            scenario_label=self._scenario_label(),
            read_fraction=self._read_fraction,
            spacing=self._spacing,
            operations=self._operations,
            explicit_plans=self._explicit_plans,
            checks=self._checks,
            keep_history=keep_history,
            key_skew=self._key_skew,
            keep_trace=keep_trace,
        )
        return [
            TrialSpec(
                **shared,
                trial=index,
                workload_seed=seed + index,
                recorded_seed=None if explicit else seed + index,
            )
            for index in range(trials)
        ]

    def _prepare_run(
        self, trials: int, seed: int, keep_history: bool, keep_trace: bool = False
    ) -> tuple[RunResult, list[TrialSpec]]:
        """Validate the configuration and build the result shell + specs.

        Configuration errors (bad sizes, strict over-faulting) surface here,
        in the calling process, before any worker pool spins up — so serial
        and parallel runs fail identically.
        """
        if trials < 1:
            raise ConfigurationError("need at least one trial")
        self._require_scenario_durability()
        behaviors, inventory = self._materialize_faults()
        specs = self._trial_specs(trials, seed, keep_history, keep_trace)
        with closing(self.backend_spec.build(self._spec, specs[0], behaviors)) as probe:
            result = RunResult(
                protocol=self._spec.name,
                semantics=self._spec.semantics,
                t=self._t,
                S=probe.S,
                n_readers=self._n_readers,
                scenario=specs[0].scenario_label,
                faults=inventory,
                checks=self._checks,
                backend=specs[0].backend,
                key_count=len(probe.keys),
                n_writers=specs[0].n_writers,
                axes=self._axes,
            )
        return result, specs

    def run(
        self,
        trials: int = 1,
        seed: int = 0,
        keep_history: bool = True,
        keep_trace: bool = False,
        parallel: bool = False,
        max_workers: int | None = None,
    ) -> RunResult:
        """Run ``trials`` independent executions and collect the results.

        Trial ``i`` uses workload seed ``seed + i`` (explicit schedules are
        replayed verbatim each trial).  Check failures are *recorded*, not
        raised — inspect :attr:`RunResult.ok` / :meth:`RunResult.failures`.
        ``keep_history=False`` drops each trial's recorded history after
        the checks run (large sweeps don't need the live object graphs).

        ``parallel=True`` fans the trials over a
        :class:`~concurrent.futures.ProcessPoolExecutor` with ``max_workers``
        processes (default: one per CPU).  Serial and parallel execution run
        the same :func:`run_trial` function on the same specs, so for
        identical seeds :meth:`RunResult.to_dict` is byte-identical either
        way; specs that cannot cross a process boundary (e.g. explicit
        schedules closing over live objects) fall back to serial with a
        :class:`RuntimeWarning`.
        """
        result, specs = self._prepare_run(trials, seed, keep_history, keep_trace)
        result.trials.extend(
            _execute_trials(specs, self._spec, parallel=parallel, max_workers=max_workers)
        )
        return result

    def _schedule_probe(
        self, bounds: SearchBounds = SearchBounds(), *, seed: int = 0
    ) -> "Any":
        """The :class:`~repro.explore.engine.ScheduleProbe` this
        configuration explores — the shared boundary between
        :meth:`explore`, :meth:`frontier` and the CLI."""
        from repro.explore.engine import ScheduleProbe

        self._require_scenario_durability()
        return ScheduleProbe(
            **self._request_fields(),
            plans=tuple(self._plans(seed)),
            checks=self._checks or (self._spec.default_check(),),
            granularity=bounds.granularity,
            max_events=bounds.max_events,
        )

    def explore(
        self,
        *,
        seed: int = 0,
        parallel: bool = False,
        max_workers: int | None = None,
        **bounds: Any,
    ) -> "Any":
        """Bounded model check: sweep held-message schedules for violations.

        Where :meth:`run` simulates *one* schedule per trial, ``explore``
        searches the schedule space: it enumerates which client↔object
        links the adversary keeps in transit, runs every schedule through
        the configured workload/fault setup, and checks the requested
        consistency properties on each recorded history.  Violating
        schedules are delta-debugged to minimal hold sets and returned as
        replayable :class:`~repro.explore.witness.ScheduleWitness` JSON;
        a clean sweep of the exhausted bounded space *certifies* the
        configuration (see
        :attr:`~repro.explore.engine.ExploreResult.certified`).

        ``bounds`` are the keywords :class:`~repro.axes.SearchBounds`
        declares and documents, checked before the first schedule runs.

        The workload is materialized once (explicit plans, or the
        generated plan for ``seed``) so every schedule replays the same
        operations.  Checks default to the protocol's advertised
        consistency level.  ``parallel=True`` fans each frontier wave over
        the trial engine's process pool with byte-identical results.
        """
        from repro.explore.engine import Explorer

        search = SearchBounds.of(bounds)
        explorer = Explorer(self._schedule_probe(search, seed=seed), search)
        return explorer.run(parallel=parallel, max_workers=max_workers)

    def frontier(
        self,
        *,
        max_k: int = 4,
        seed: int = 0,
        parallel: bool = False,
        max_workers: int | None = None,
        **bounds: Any,
    ) -> "Any":
        """The certified robustness frontier of this configuration.

        Walks the consistency-model ladder — atomic, ``k-atomic(2..max_k)``,
        and (for single-writer stacks) regular and safe — searching the
        bounded schedule space under each checker, and reports the
        strongest model the configuration *certifies* together with a
        minimized witness refuting the next-stronger one.  Every rung
        reports what ``with_checks(model).explore(...)`` would, but a
        schedule two rungs reach is simulated once and judged twice.  See
        :func:`repro.robustness.robustness_frontier`, which also says what
        ``bounds`` may hold.
        """
        from repro.robustness import robustness_frontier

        return robustness_frontier(
            self, max_k=max_k, seed=seed,
            parallel=parallel, max_workers=max_workers, **bounds,
        )


# --------------------------------------------------------------------- #
# Sweeps
# --------------------------------------------------------------------- #


def sweep(
    protocols: Sequence[str] | None = None,
    *,
    t: int = 1,
    n_readers: int = 2,
    scenarios: Sequence[str] | None = None,
    operations: int = 10,
    spacing: int = 150,
    trials: int = 1,
    seed: int = 17,
    checks: Sequence[str] = (),
    backend: str | None = None,
    keys: int | Sequence[str] | None = None,
    n_writers: int | None = None,
    key_skew: float = 0.0,
    durability: str = "none",
    consistency: str = "atomic",
    observe: bool = False,
    frontier: bool = False,
    frontier_bounds: Mapping[str, Any] | None = None,
    parallel: bool = False,
    max_workers: int | None = None,
) -> SweepResult:
    """Run every protocol under every scenario its guarantees cover.

    ``protocols`` defaults to the whole registry; ``scenarios`` defaults to
    each protocol's own advertised coverage (its ``scenarios`` metadata).
    The same seed is used for every grid cell so rows are comparable.

    ``backend`` (with ``keys``/``n_writers``/``key_skew``) pins every cell
    to one system backend; by default each protocol runs on its own
    advertised backend, so mixed grids — SWMR registers next to MWMR
    stacks — sweep side by side.

    With ``parallel=True`` the *entire grid's* trials — every protocol ×
    scenario × trial — are flattened into one process pool, so small cells
    don't leave workers idle.  Results are reassembled in grid order and are
    byte-identical to a serial sweep with the same seed.

    ``frontier=True`` additionally computes each cell's certified
    robustness frontier (see :meth:`Cluster.frontier`) and attaches its
    payload as :attr:`RunResult.robustness`; ``frontier_bounds`` are that
    call's keywords, over deliberately modest default bounds.
    """
    walk = {"max_holds": 1, "max_schedules": 200, "seed": seed, **(frontier_bounds or {})}
    if frontier:
        # What the walk would reject is rejected now, before the grid's
        # first trial is built; the walk's own keywords are not bounds.
        SearchBounds.of(
            {name: value for name, value in walk.items()
             if name not in ("max_k", "seed", "parallel", "max_workers")},
            stored_only=True,
        )
    result = SweepResult()
    cells: list[tuple[Cluster, RunResult, list[TrialSpec]]] = []
    for name in protocols if protocols is not None else available_protocols():
        spec = get_spec(name)
        for scenario_name in scenarios if scenarios is not None else spec.scenarios:
            cluster = (
                Cluster(name, t=t, n_readers=n_readers,
                        backend=backend, keys=keys, n_writers=n_writers,
                        durability=durability, consistency=consistency,
                        observe=observe)
                .with_scenario(scenario_name)
                .with_workload(spacing=spacing, operations=operations, key_skew=key_skew)
                .check(*checks)
            )
            shell, specs = cluster._prepare_run(trials, seed, keep_history=False)
            cells.append((cluster, shell, specs))
    flat = [spec for _, _, specs in cells for spec in specs]
    executed = None
    if parallel and len(flat) > 1:
        # Sweep specs reference protocols/scenarios by registry name and
        # carry no explicit plans, so they are always picklable; run the
        # whole grid through one executor (falling back to serial if the
        # workers' registries lack runtime registrations).
        executed = _pool_map(flat, max_workers)
    if executed is None:
        executed = [run_trial(spec) for spec in flat]
    cursor = 0
    for cluster, run_result, specs in cells:
        run_result.trials.extend(executed[cursor:cursor + len(specs)])
        if frontier:
            run_result.robustness = cluster.frontier(**walk).to_dict()
        result.runs.append(run_result)
        cursor += len(specs)
    return result

"""Bounded schedule exploration: certify or refute a protocol over schedules.

The paper's lower bounds are adversarial *schedule* arguments — the
adversary picks which messages stay in transit.  This engine turns that
argument executable in the other direction: given a protocol, workload and
fault configuration (one :class:`ScheduleProbe`), it systematically
enumerates held-link schedules (:class:`~repro.explore.controlled.HoldLink`
sets), runs every schedule through the existing simulator via
:class:`~repro.explore.controlled.ControlledDelivery`, and checks each
recorded history with the registered consistency checkers.  The result is a
*bounded model check*: within the configured bounds either every schedule
passes (the configuration is **certified**) or a violating schedule is
found, minimized, and emitted as a replayable
:class:`~repro.explore.witness.ScheduleWitness`.

Search space and reductions
---------------------------

A schedule is a set of held links; the frontier explores supersets
breadth- or depth-first up to ``max_holds`` links.  Two reductions keep the
space small:

* **sleep-set pruning** — a link that carried no delivered message in the
  parent run cannot change the run when held, so only *delivered* links are
  branched on (commutative "hold a silent link" moves are never explored);
* **duplicate traces** — a schedule whose wire trace equals an earlier
  one's is a duplicate (its extra decisions matched no messages), so it is
  neither re-checked nor expanded — any continuation is reachable from the
  earlier twin.  Traces are compared by a key decided at the source
  (:attr:`~repro.explore.controlled.ControlledDelivery.trace_key`): the
  ordinals of the held messages plus a digest of the faulted objects'
  replies.  The engine is deterministic and judges every message once, in
  send order, so these fix the run; both are on the trace, so equal
  traces give equal keys;
* **symmetry reduction** (opt-in) — fault-free objects of one protocol are
  interchangeable, so hold sets that differ only by a permutation of those
  objects are explored once, through a canonical representative.

With ``fault_timing=True`` the decision vocabulary grows beyond held
links: for every faulted object the explorer also sweeps *when* that
object's behaviour fires (:class:`~repro.explore.controlled.FaultTrigger`,
realized by rebuilding the behaviour as a
:class:`~repro.faults.timing.TimedFault`).  Trigger points are per-object
handled-message counts discovered from each parent run's
:attr:`ScheduleOutcome.fault_counts`, so the swept range grows exactly
with the traffic the schedule actually produced — the same discovery rule
held links use.

Violating schedules are not expanded either: a superset of a violating
hold set wires the same witness with more noise.

Simulate, then judge
--------------------

A schedule is evaluated in two steps.  :func:`simulate` builds the system,
schedules the plans, drains the engine, freezes the histories and takes the
policy's trace key; it never reads ``probe.checks`` and returns a
:class:`SimulatedSchedule` — plain picklable data with no system behind it.
:func:`judge` runs the requested checkers over that record's histories and
fills in ``failures`` / ``passed``.  Searches that differ only in their
checks can therefore share a :class:`SimulationStore` (described there); an
explorer without one simulates every schedule it judges.
:func:`run_schedule` adds the sha256
:func:`~repro.sim.tracing.trace_fingerprint` of the wire trace: the replay
path of witnesses and the engine-equivalence tests, never a search's.

Determinism: probes are evaluated in *waves* (the whole frontier for BFS,
single nodes for DFS) and every wave is mapped either in-process or over
the PR-2 process pool, so ``parallel=True`` yields byte-identical
:meth:`ExploreResult.to_dict` output.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import InitVar, dataclass, field, replace
from typing import Any, Callable, Sequence

from repro.api.backends import BackendRequest, get_backend_spec
from repro.api.cluster import _materialize_behaviors, _pool_map, build_backend, run_check
from repro.api.registry import get_spec
from repro.axes import AxesView, RunAxes, SearchBounds
from repro.errors import ConfigurationError, SimulationError
from repro.explore.controlled import (
    ControlledDelivery,
    Decision,
    FaultTrigger,
    HoldLink,
    canonical_decisions,
)
from repro.sim.simulator import OperationStatus
from repro.sim.tracing import trace_fingerprint
from repro.spec.history import History
from repro.types import scoped_operation_serials
from repro.workloads.generator import OperationPlan


# --------------------------------------------------------------------- #
# Probes: one schedule execution as plain data
# --------------------------------------------------------------------- #


@dataclass(frozen=True, slots=True, kw_only=True)
class ScheduleProbe(BackendRequest):
    """Everything one schedule run needs, as picklable plain data.

    A probe is to the explorer what :class:`~repro.api.cluster.TrialSpec`
    is to the trial engine: the pure-data boundary that lets schedule
    evaluations fan out over a process pool with byte-identical results.
    Like a trial spec it *is* the
    :class:`~repro.api.backends.BackendRequest` its system is built from —
    the configuration under test and the run axes are inherited.  Every
    axis is an ordinary explorer dimension: with a crash-recover fault
    (``durability``) or repair steps configured, each held link shifts
    which operation's messages land in the dark window or which epoch a
    round observes, so recovery and epoch-transition *timing* are choice
    points like any other.  ``decisions`` is the only field the frontier
    varies.  Of the :class:`~repro.axes.SearchBounds` a probe carries the
    two a single schedule needs, ``granularity`` and ``max_events``.
    """

    plans: tuple[OperationPlan, ...]
    checks: tuple[str, ...]
    granularity: str = SearchBounds().granularity
    #: The schedule under test: held links plus fault triggers, in the
    #: canonical decision order (holds first).  Triggers are applied to the
    #: object behaviours, holds to the delivery policy.
    decisions: tuple[Decision, ...] = ()
    max_events: int = SearchBounds().max_events
    #: Retired plan-addressed skips (held links replaced them).  Accepted
    #: empty, so a caller spelling out the old empty default — as a witness
    #: file's ``"schedule": []`` does — still builds a probe; never stored.
    schedule: InitVar[Sequence[Any]] = ()

    def __post_init__(self, schedule: Sequence[Any]) -> None:
        if schedule:
            raise ConfigurationError(
                "plan-addressed skips were retired in favour of held-link "
                "decisions; a probe or witness that carries them cannot replay"
            )

    def with_decisions(self, decisions: Sequence[Decision]) -> "ScheduleProbe":
        return replace(self, decisions=canonical_decisions(decisions))


@dataclass(frozen=True, slots=True)
class ScheduleOutcome:
    """What one explored schedule produced (picklable, deterministic).

    ``failures`` are the failed consistency checks as ``(check,
    explanation)`` pairs; ``expansions`` are the links that carried
    delivered traffic (the frontier's branching alphabet); ``trace_key``
    is the duplicate-trace key (:attr:`ControlledDelivery.trace_key`);
    ``trace_hash`` is the wire trace's sha256 fingerprint, which only
    :func:`run_schedule` renders (witnesses, replay, the engine-equivalence
    tests) — ``None``, never a value a witness could match, elsewhere.
    """

    decisions: tuple[Decision, ...]
    failures: tuple[tuple[str, str], ...]
    passed: tuple[str, ...]
    completed: int
    incomplete: int
    dropped: int
    held_messages: int
    events: int
    truncated: bool
    trace_key: tuple
    expansions: tuple[HoldLink, ...]
    #: Per faulted object, how many messages it handled this run — the
    #: discovery set for fault-timing choice points: a trigger at any
    #: ``0..seen`` is a distinct adversary within this schedule's traffic.
    #: Empty for probes with no fault groups (fault-free, scenario-driven).
    fault_counts: tuple[tuple[int, int], ...] = ()
    trace_hash: str | None = None

    @property
    def violating(self) -> bool:
        return bool(self.failures)


@dataclass(frozen=True, slots=True)
class SimulatedSchedule:
    """One executed schedule before any checker has looked at it.

    ``outcome`` is the schedule's outcome under *no* checks — every field
    that does not depend on the checker, ``failures`` and ``passed`` empty,
    ``trace_hash`` unrendered unless :func:`run_schedule` asked for it —
    and ``histories`` are the frozen per-key histories the checks read.
    Plain picklable data: no backend, simulator, trace or message.  A pool
    worker returns it and a :class:`SimulationStore` keeps it so that
    :func:`judge` can be run on it again under another model.
    """

    outcome: ScheduleOutcome
    histories: dict[str, History]


def _apply_fault_triggers(
    probe: ScheduleProbe,
    behaviors: dict[Any, Any],
    triggers: Sequence[FaultTrigger],
) -> None:
    """Rebuild each triggered object's behaviour as a timed variant.

    Triggers address faulted objects by index; the behaviour is rebuilt
    from its fault group with the group's own timing knobs dropped — the
    trigger is the single source of truth for *when* (an explicit
    ``timed`` group's facade-scheduled ``at`` is overridden the same way).
    """
    if not triggers:
        return
    from repro.api.faults import fault_spec
    from repro.faults.timing import timed_fault

    if probe.scenario is not None:
        raise ConfigurationError(
            "fault triggers address named fault groups; scenario-driven "
            "fault plans schedule their own timing"
        )
    # _materialize_behaviors assigns group members to objects s1, s2, …
    # sequentially (clamping the tail), so faulted index i belongs to the
    # i-th expanded group entry.
    expansion = [group for group in probe.fault_groups for _ in range(group.count)]
    by_index = {pid.index: pid for pid in behaviors}
    for trigger in triggers:
        pid = by_index.get(trigger.obj)
        if pid is None:
            raise ConfigurationError(
                f"{trigger.describe()} addresses s{trigger.obj}, which "
                "carries no fault behaviour"
            )
        group = expansion[trigger.obj - 1]
        spec = fault_spec(group.fault)
        kwargs = dict(group.kwargs)
        if spec.name == "timed":
            inner = kwargs.pop("inner")
            kwargs.pop("at", None)
            behaviors[pid] = timed_fault(inner, trigger.at, **kwargs)
        else:
            for knob in spec.timing:
                kwargs.pop(knob, None)
            behaviors[pid] = timed_fault(spec.name, trigger.at, **kwargs)


def simulate(probe: ScheduleProbe) -> SimulatedSchedule:
    """Execute the schedule ``probe`` describes: build, schedule, drain,
    freeze the histories, take the trace key.

    Pure with respect to the probe minus its ``checks``, which are never
    read (same probe ⇒ same record, in-process or on a pool worker): the
    system is built fresh, operation serials are scoped, and the fault
    behaviours are materialized per run.
    """
    return _simulate(probe, fingerprint=False)


def _simulate(probe: ScheduleProbe, fingerprint: bool) -> SimulatedSchedule:
    holds = tuple(d for d in probe.decisions if isinstance(d, HoldLink))
    triggers = tuple(d for d in probe.decisions if isinstance(d, FaultTrigger))
    policy: ControlledDelivery

    def adversary(behaviors: dict[Any, Any]) -> ControlledDelivery:
        # The explorer's holds steer delivery; triggers retime the faults.
        nonlocal policy
        _apply_fault_triggers(probe, behaviors, triggers)
        policy = ControlledDelivery(
            holds=holds, granularity=probe.granularity, faulted=behaviors,
        )
        return policy

    with scoped_operation_serials(), build_backend(probe, adversary=adversary) as backend:
        if not fingerprint:
            # A search schedule is compared by its trace key and accounted
            # by nothing, so only the fingerprint reads the wire log.
            backend.trace.drop_log()
        # A held schedule may block a client forever; that client's later
        # planned invocations are then dropped (a legal partial run), not a
        # sequential-client model violation.
        backend.simulator.skip_busy_invocations = True
        for plan in probe.plans:
            backend.schedule(plan)
        truncated = False
        try:
            events = backend.run(max_events=probe.max_events)
        except SimulationError:
            # Budget exhausted: the prefix executed so far is still a legal
            # partial run (undelivered messages are "in transit"), so the
            # checks stay meaningful — but certification must not claim
            # coverage of the truncated continuations.
            events = probe.max_events
            truncated = True
        histories = backend.histories()
        operations = backend.simulator.operations
        completed = sum(
            1 for op in operations if op.status is OperationStatus.COMPLETE
        )
        dropped = sum(
            1 for op in operations if op.status is OperationStatus.ABORTED
        )
        fault_counts: tuple[tuple[int, int], ...] = ()
        if probe.fault_groups:
            fault_counts = tuple(sorted(
                (server.pid.index, server.messages_seen)
                for server in backend.simulator.objects.values()
                if server.behavior is not None
            ))
        return SimulatedSchedule(ScheduleOutcome(
            decisions=probe.decisions,
            failures=(),
            passed=(),
            completed=completed,
            incomplete=len(operations) - completed - dropped,
            dropped=dropped,
            held_messages=policy.held_messages,
            events=events,
            truncated=truncated,
            trace_key=policy.trace_key,
            expansions=policy.delivered_links,
            fault_counts=fault_counts,
            trace_hash=trace_fingerprint(backend.trace) if fingerprint else None,
        ), histories)


def judge(simulated: SimulatedSchedule, checks: Sequence[str]) -> ScheduleOutcome:
    """The outcome of a simulated schedule under ``checks``.

    Reads the record's histories and nothing else, so one record can be
    judged any number of times, under any models, in any order.
    """
    failures: list[tuple[str, str]] = []
    passed: list[str] = []
    for name in checks:
        verdict = run_check(name, simulated.histories)
        if verdict.ok:
            passed.append(name)
        else:
            failures.append((name, verdict.explanation or "check failed"))
    # Positionally, in field order, rather than ``dataclasses.replace``
    # (which walks the field list): a search judges every schedule it runs.
    o = simulated.outcome
    return ScheduleOutcome(
        o.decisions, tuple(failures), tuple(passed), o.completed, o.incomplete,
        o.dropped, o.held_messages, o.events, o.truncated, o.trace_key,
        o.expansions, o.fault_counts, o.trace_hash,
    )


class SimulationStore:
    """What one configuration's schedules simulated to, kept for re-judging.

    Searches that differ only in their checks — the rungs of
    :func:`repro.robustness.robustness_frontier` run one stack over one
    workload under several checkers — simulate the same schedules.  The
    store maps each canonical decision tuple to its
    :class:`SimulatedSchedule` (the checker-independent outcome fields and
    the frozen histories, plain picklable data with no system, trace or
    message behind it), so whoever holds it simulates a decision set once
    and after that only runs :func:`judge` on it; on a process pool only
    the sets nobody simulated yet go to workers.  It is bound to the probe it
    was created for — everything except ``checks`` and ``decisions`` — and
    refuses any other.  It lives as long as its holder keeps it (the
    frontier: one call).  A store changes how often :func:`simulate` runs,
    never a result: each search still expands what *its* checker lets
    through, so what is shared is the simulations, not the statistics.
    """

    def __init__(self, probe: ScheduleProbe) -> None:
        self._configuration = replace(probe, checks=(), decisions=())
        self._records: dict[tuple[Decision, ...], SimulatedSchedule] = {}

    def __len__(self) -> int:
        """Distinct decision sets simulated so far."""
        return len(self._records)

    def require(self, probe: ScheduleProbe) -> None:
        """Raise unless ``probe`` is the configuration this store serves."""
        if replace(probe, checks=(), decisions=()) != self._configuration:
            raise ConfigurationError(
                "this simulation store belongs to another configuration: "
                "probes sharing a store may differ in checks and decisions only"
            )

    def missing(self, probes: Sequence[ScheduleProbe]) -> list[ScheduleProbe]:
        """The probes whose decision sets have not been simulated yet."""
        return [probe for probe in probes if probe.decisions not in self._records]

    def add(self, simulated: SimulatedSchedule) -> None:
        self._records[simulated.outcome.decisions] = simulated

    def simulated(self, probe: ScheduleProbe) -> SimulatedSchedule:
        """``probe``'s record, simulating it now if nobody has."""
        record = self._records.get(probe.decisions)
        if record is None:
            record = self._records[probe.decisions] = simulate(probe)
        return record

    def run_schedule(self, probe: ScheduleProbe) -> ScheduleOutcome:
        """:func:`run_schedule`, simulating only what the store lacks."""
        return judge(self.simulated(probe), probe.checks)


def run_schedule(probe: ScheduleProbe) -> ScheduleOutcome:
    """Execute one schedule described by ``probe`` and return its outcome:
    :func:`simulate` it, fingerprint its wire trace (``trace_hash``), then
    :func:`judge` the record under ``probe.checks`` — the path witnesses are
    made and replayed through; a search never pays for the fingerprint.
    """
    return judge(_simulate(probe, fingerprint=True), probe.checks)


def _search_schedule(probe: ScheduleProbe) -> ScheduleOutcome:
    """:func:`run_schedule` without the fingerprint: one schedule of a search."""
    return judge(simulate(probe), probe.checks)


def schedule_runner(
    probe: ScheduleProbe, store: SimulationStore | None
) -> Callable[[ScheduleProbe], ScheduleOutcome]:
    """What runs ``probe``'s schedules in a search: :func:`simulate` then
    :func:`judge`, or ``store``'s version of it once the store has accepted
    the configuration."""
    if store is None:
        return _search_schedule
    store.require(probe)
    return store.run_schedule


# --------------------------------------------------------------------- #
# Exploration results
# --------------------------------------------------------------------- #


@dataclass(slots=True)
class ExploreStats:
    """Counters describing how the frontier was traversed and pruned."""

    explored: int = 0
    violating: int = 0
    pruned_duplicate: int = 0  # duplicate-trace twins (PoR)
    pruned_seen: int = 0       # child decision sets already enqueued
    pruned_inactive: int = 0   # sleep-set: known links with no traffic here
    pruned_symmetry: int = 0   # children folded onto a canonical relabeling
    truncated_runs: int = 0
    deepest: int = 0
    minimization_runs: int = 0

    def to_dict(self) -> dict[str, int]:
        payload = {
            "explored": self.explored,
            "violating": self.violating,
            "pruned_duplicate": self.pruned_duplicate,
            "pruned_seen": self.pruned_seen,
            "pruned_inactive": self.pruned_inactive,
            "truncated_runs": self.truncated_runs,
            "deepest": self.deepest,
            "minimization_runs": self.minimization_runs,
        }
        if self.pruned_symmetry:
            # Only symmetry-reduced explorations carry the key, so every
            # pre-existing payload stays byte-identical.
            payload["pruned_symmetry"] = self.pruned_symmetry
        return payload


@dataclass(slots=True)
class ExploreResult(AxesView):
    """Outcome of a bounded exploration: verdict, witnesses, pruning stats.

    ``certified`` is True only when the frontier was *exhausted* within the
    bounds, no run was truncated by the event budget, and no schedule
    violated — i.e. every reachable schedule with at most ``max_holds``
    held links passed every requested check.
    """

    protocol: str
    backend: str
    t: int
    S: int
    n_readers: int
    faults: str
    checks: tuple[str, ...]
    #: The search bounds, resolved against the probe (with fault timing on,
    #: the ``alphabet`` counts held links *and* trigger points).
    bounds: SearchBounds
    #: The run axes every schedule was evaluated under.
    axes: RunAxes = RunAxes()
    alphabet: int = 0
    exhausted: bool = False
    stats: ExploreStats = field(default_factory=ExploreStats)
    witnesses: list[Any] = field(default_factory=list)  # ScheduleWitness

    @property
    def violations(self) -> int:
        return len(self.witnesses)

    @property
    def certified(self) -> bool:
        return (
            self.exhausted
            and not self.witnesses
            and self.stats.truncated_runs == 0
        )

    def to_dict(self) -> dict[str, Any]:
        bounds = self.bounds
        payload = {
            "protocol": self.protocol,
            "backend": self.backend,
            # Always written, unlike the other tagged axes (the stored format).
            "durability": self.axes.durability,
            **self.axes.non_default(),
            "t": self.t,
            "S": self.S,
            "n_readers": self.n_readers,
            "faults": self.faults,
            "checks": list(self.checks),
            "granularity": bounds.granularity,
            "strategy": bounds.strategy,
            "bounds": {
                "max_holds": bounds.max_holds,
                "max_schedules": bounds.max_schedules,
                "max_events": bounds.max_events,
            },
            "alphabet": self.alphabet,
            "exhausted": self.exhausted,
            "certified": self.certified,
            "stats": self.stats.to_dict(),
            "witnesses": [witness.to_dict() for witness in self.witnesses],
        }
        # New keys only when the new machinery was on: default-off payloads
        # stay byte-identical to the pre-timing schema.
        if bounds.fault_timing:
            payload["fault_timing"] = True
        if bounds.symmetry:
            payload["symmetry"] = True
        return payload

    def render(self) -> str:
        """Human-readable summary, ready to print."""
        bounds = self.bounds
        mode_tag = ""
        if bounds.fault_timing:
            mode_tag += ", fault-timing"
        if bounds.symmetry:
            mode_tag += ", symmetry"
        unit = "decision(s)" if bounds.fault_timing else "link(s)"
        lines = [
            f"explore {self.protocol} [{', '.join(self.checks)}] — "
            f"t={self.t}, S={self.S}, {self.n_readers} readers{self.axes.tags()}, "
            f"faults: {self.faults}",
            f"  strategy={bounds.strategy}, granularity={bounds.granularity}"
            f"{mode_tag}, bounds: max_holds={bounds.max_holds}, "
            f"max_schedules={bounds.max_schedules}, max_events={bounds.max_events}",
            f"  explored {self.stats.explored} schedule(s) over "
            f"{self.alphabet} {unit}, deepest hold set: {self.stats.deepest}",
            f"  pruning: {self.stats.pruned_duplicate} duplicate trace(s), "
            f"{self.stats.pruned_seen} re-enqueued set(s), "
            f"{self.stats.pruned_inactive} inactive link(s)"
            + (f", {self.stats.pruned_symmetry} symmetric set(s)"
               if self.stats.pruned_symmetry else "")
            + (f", {self.stats.truncated_runs} truncated run(s)"
               if self.stats.truncated_runs else ""),
        ]
        if self.witnesses:
            lines.append(f"  VIOLATIONS: {len(self.witnesses)} "
                         f"(from {self.stats.violating} violating schedule(s), "
                         f"{self.stats.minimization_runs} minimization run(s))")
            for index, witness in enumerate(self.witnesses, start=1):
                holds = ", ".join(link.describe() for link in witness.decisions)
                check, explanation = witness.failures[0]
                lines.append(f"   [{index}] hold {{{holds}}} ⇒ {check}: {explanation}")
        else:
            if self.certified:
                verdict = "CERTIFIED"
            elif self.stats.truncated_runs:
                verdict = (
                    f"no violation found ({self.stats.truncated_runs} run(s) "
                    "truncated by max_events — raise it to certify)"
                )
            else:
                verdict = "no violation found (bounds not exhausted)"
            lines.append(f"  {verdict}: every explored schedule passed "
                         f"{', '.join(self.checks)}")
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# The explorer
# --------------------------------------------------------------------- #


class Explorer:
    """Frontier search over held-link schedules for one probe configuration.

    Args:
        probe: the configuration under test (its ``decisions`` must be
            empty — the explorer owns that field).
        bounds: how far to search — a *validated*
            :class:`~repro.axes.SearchBounds`, which documents every bound.
            :attr:`bounds` is that record resolved against ``probe``.
        store: a :class:`SimulationStore` of ``probe``'s configuration to
            simulate through — what it already holds is judged, not run
            again, and what this search simulates is left in it.  Only the
            robustness frontier passes one; the result is the same either
            way.
    """

    def __init__(
        self,
        probe: ScheduleProbe,
        bounds: SearchBounds = SearchBounds(),
        store: SimulationStore | None = None,
    ) -> None:
        if probe.decisions:
            raise ConfigurationError("the explorer starts from the empty schedule")
        self.probe = probe
        self.store = store
        self._run_schedule = schedule_runner(probe, store)
        self.bounds = replace(
            bounds,
            granularity=probe.granularity,
            max_events=probe.max_events,
            fault_timing=bool(bounds.fault_timing and probe.fault_groups),
            symmetry=bool(
                bounds.symmetry
                and probe.scenario is None
                and not probe.repairs
                and probe.spares is None
            ),
        )
        self._relabel_from = 1
        if self.bounds.symmetry:
            behaviors = _materialize_behaviors(
                probe.scenario, probe.fault_groups, probe.t, probe.allow_overfault
            )
            # Faulted objects occupy s1..s_f (consecutive by construction);
            # everything above is interchangeable.
            self._relabel_from = len(behaviors) + 1

    # ------------------------------------------------------------------ #
    # Symmetry reduction
    # ------------------------------------------------------------------ #

    def _canonicalize(self, decisions: tuple[Decision, ...]) -> tuple[Decision, ...]:
        """The canonical representative of ``decisions`` under permutations
        of the interchangeable (fault-free) objects.

        Per-object hold patterns on those objects are sorted and relabeled
        onto the smallest interchangeable indices; holds on faulted objects
        and fault triggers (which only ever address faulted objects) are
        left untouched.
        """
        fixed: list[Decision] = []
        movable: dict[int, list[HoldLink]] = {}
        for decision in decisions:
            if (
                isinstance(decision, HoldLink)
                and decision.obj >= self._relabel_from
            ):
                movable.setdefault(decision.obj, []).append(decision)
            else:
                fixed.append(decision)
        if not movable:
            return decisions
        patterns = sorted(
            tuple(sorted((hold.op, hold.round_no or 0) for hold in holds))
            for holds in movable.values()
        )
        relabeled: list[Decision] = []
        for slot, pattern in enumerate(patterns, start=self._relabel_from):
            for op, rnd in pattern:
                relabeled.append(
                    HoldLink(op=op, obj=slot, round_no=rnd or None)
                )
        return canonical_decisions(fixed + relabeled)

    # ------------------------------------------------------------------ #
    # Wave evaluation
    # ------------------------------------------------------------------ #

    def _evaluate(
        self,
        batch: list[tuple[Decision, ...]],
        parallel: bool,
        max_workers: int | None,
    ) -> list[ScheduleOutcome]:
        probes = [self.probe.with_decisions(decisions) for decisions in batch]
        store = self.store
        if parallel and len(probes) > 1:
            if store is None:
                outcomes = _pool_map(probes, max_workers, fn=_search_schedule)
                if outcomes is not None:
                    return outcomes
            else:
                # Only what nobody simulated yet is worth a worker; the
                # records come back and every probe is judged here.
                misses = store.missing(probes)
                if len(misses) > 1:
                    for record in _pool_map(misses, max_workers, fn=simulate) or ():
                        store.add(record)
        return [self._run_schedule(probe) for probe in probes]

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #

    def run(self, parallel: bool = False, max_workers: int | None = None) -> ExploreResult:
        """Sweep the bounded schedule space; returns the structured result."""
        if parallel:
            import pickle

            try:
                pickle.dumps(self.probe)
            except Exception as error:  # noqa: BLE001 — any failure disqualifies
                warnings.warn(
                    f"parallel exploration unavailable, falling back to serial: "
                    f"probe is not picklable ({error})",
                    RuntimeWarning,
                    stacklevel=2,
                )
                parallel = False

        # The root runs first, alone and in-process: configuration errors
        # surface immediately, and its outcome seeds S (for reporting) and
        # the expansion alphabet.
        bounds = self.bounds
        root_outcome = self._run_schedule(self.probe)
        result = self._result_shell()
        stats = result.stats
        violations: list[tuple[tuple[Decision, ...], ScheduleOutcome]] = []

        frontier: deque[tuple[Decision, ...]] = deque()
        seen: set[tuple[Decision, ...]] = {()}
        trace_seen: set[tuple] = set()
        alphabet: set[HoldLink] = set()
        # Triggers live in their own alphabet: mixing them into the link
        # set would corrupt the sleep-set arithmetic below, which only
        # reasons about delivered traffic.
        trigger_alphabet: set[FaultTrigger] = set()
        stop = False

        def enqueue(decisions: tuple[Decision, ...], extra: Decision) -> None:
            child = canonical_decisions(decisions + (extra,))
            if bounds.symmetry:
                canonical = self._canonicalize(child)
                if canonical != child:
                    stats.pruned_symmetry += 1
                    child = canonical
            if child in seen:
                stats.pruned_seen += 1
                return
            seen.add(child)
            frontier.append(child)

        def absorb(decisions: tuple[Decision, ...], outcome: ScheduleOutcome) -> None:
            nonlocal stop
            stats.explored += 1
            stats.deepest = max(stats.deepest, len(decisions))
            if outcome.truncated:
                stats.truncated_runs += 1
            if outcome.trace_key in trace_seen:
                # Duplicate-trace PoR: an identical wire trace means the
                # extra decisions matched no messages — the run, its
                # verdicts, and all its continuations were already covered.
                stats.pruned_duplicate += 1
                return
            trace_seen.add(outcome.trace_key)
            if outcome.violating:
                stats.violating += 1
                violations.append((decisions, outcome))
                if bounds.stop_on_violation:
                    stop = True
                return  # supersets of a violating hold set add only noise
            if len(decisions) >= bounds.max_holds:
                return
            active = set(outcome.expansions)
            stats.pruned_inactive += len(alphabet - active - set(decisions))
            alphabet.update(active)
            for link in outcome.expansions:
                if link in decisions:
                    continue
                enqueue(decisions, link)
            if bounds.fault_timing:
                # One trigger per object; the swept range is discovered
                # from this run's own traffic — ``at == seen`` is the
                # "fires after everything observed" representative.
                triggered = {
                    d.obj for d in decisions if isinstance(d, FaultTrigger)
                }
                for obj, seen_count in outcome.fault_counts:
                    if obj in triggered:
                        continue
                    for at in range(seen_count + 1):
                        trigger = FaultTrigger(obj=obj, at=at)
                        trigger_alphabet.add(trigger)
                        enqueue(decisions, trigger)

        absorb((), root_outcome)

        while frontier and not stop and stats.explored < bounds.max_schedules:
            if bounds.strategy == "dfs":
                batch = [frontier.pop()]
            else:
                budget = bounds.max_schedules - stats.explored
                batch = [frontier.popleft() for _ in range(min(budget, len(frontier)))]
            if parallel and len(batch) > 1:
                pairs = zip(batch, self._evaluate(batch, parallel, max_workers))
            else:
                # Serial: evaluate lazily so stop_on_violation (and the
                # schedule budget) cut the wave short without paying for
                # the unabsorbed tail.  Absorption order is identical to
                # the parallel path, so results stay byte-identical.
                pairs = (
                    (decisions, self._run_schedule(self.probe.with_decisions(decisions)))
                    for decisions in batch
                )
            for decisions, outcome in pairs:
                absorb(decisions, outcome)
                if stop:
                    break

        result.exhausted = not frontier and not stop and stats.explored <= bounds.max_schedules
        result.alphabet = len(alphabet) + len(trigger_alphabet)
        self._attach_witnesses(result, violations)
        return result

    # ------------------------------------------------------------------ #
    # Finalization
    # ------------------------------------------------------------------ #

    def _result_shell(self) -> ExploreResult:
        behaviors = _materialize_behaviors(
            self.probe.scenario, self.probe.fault_groups,
            self.probe.t, self.probe.allow_overfault,
        )
        if behaviors:
            faults = ", ".join(
                f"{pid}:{behavior.describe()}"
                for pid, behavior in sorted(behaviors.items())
            )
        else:
            faults = "fault-free"
        backend = get_backend_spec(self.probe.backend)
        if self.probe.S is not None:
            size = self.probe.S
        else:
            # The protocol's resilience class gives the default object
            # count; no need to build (and discard) a whole live system
            # just to report it.
            size = get_spec(self.probe.protocol).min_size(self.probe.t)
        return ExploreResult(
            protocol=self.probe.protocol,
            backend=backend.name,
            axes=RunAxes.of(self.probe),
            t=self.probe.t,
            S=size,
            n_readers=self.probe.n_readers,
            faults=faults,
            checks=self.probe.checks,
            bounds=self.bounds,
        )

    def _attach_witnesses(
        self,
        result: ExploreResult,
        violations: list[tuple[tuple[Decision, ...], ScheduleOutcome]],
    ) -> None:
        from repro.explore.witness import ScheduleWitness, minimize_decisions

        emitted: set[tuple[tuple[Decision, ...], tuple[str, ...]]] = set()
        for decisions, outcome in violations:
            minimal, final_outcome = outcome.decisions, outcome
            if self.bounds.minimize:
                minimal, final_outcome, runs = minimize_decisions(
                    self.probe, decisions, outcome, store=self.store
                )
                result.stats.minimization_runs += runs
            key = (minimal, tuple(name for name, _ in final_outcome.failures))
            if key in emitted:
                continue  # two discoveries shrank to the same root cause
            emitted.add(key)
            result.witnesses.append(ScheduleWitness.from_exploration(
                self.probe, decisions=minimal, discovered=decisions,
            ))


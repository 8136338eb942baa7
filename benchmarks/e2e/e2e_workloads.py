"""The five workloads: what one call is, how it is judged, how it is traced.

End-to-end calls go through the public facade only (``Cluster.run`` /
``sweep`` / ``explore`` / ``frontier``), serially, in one thread.  The
traced pass *decomposes* the same calls into the public functions of each
``repro`` layer and times those from here; nothing under ``src/`` is
instrumented.

A workload hands out its work in *cycles*: cycle ``i`` is a fixed list of
calls whose inputs depend only on ``(seed, i)``.  A pass runs as many
cycles as its time budget holds; the deterministic counts and the result
digest come from cycle 0, which every run completes.
"""

from __future__ import annotations

import json
import pickle
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Callable

from repro.analysis.metrics import measure_backend_latency
from repro.api import Cluster, available_protocols, get_spec, run_check, sweep
from repro.explore import FaultTrigger, ScheduleProbe, run_schedule
from repro.obs import derive_metrics, derive_spans
from repro.sim.tracing import TraceKind, trace_fingerprint
from repro.storage import DirStorage, MemJournal, SpaceMeter
from repro.types import scoped_operation_serials
from repro.workloads.generator import OperationPlan, WorkloadGenerator

from e2e_trace import SpanRecorder, loglog_slope

try:
    from repro.api import available_engines
except ImportError:  # ROADMAP item 3 may remove the engine axis
    ENGINES: tuple[str, ...] = ()
else:
    ENGINES = tuple(available_engines())

#: trial_long and explore_certify run on the batched engine while the axis
#: exists; without it they run whatever engine remains.
BATCHED: dict[str, str] = {"engine": "batched"} if "batched" in ENGINES else {}


def engine_of(kwargs: dict[str, str]) -> str:
    return kwargs.get("engine", ENGINES[0] if ENGINES else "default")


def other_engine(kwargs: dict[str, str]) -> str | None:
    others = [name for name in ENGINES if name != engine_of(kwargs)]
    return others[0] if others else None


def explicit_plans(operations: list[tuple[str, Any, int]]) -> tuple[OperationPlan, ...]:
    """The plans ``Cluster.with_operations`` makes of its shorthand tuples."""
    return tuple(
        OperationPlan(
            kind=kind,
            client_index=1 if kind == "write" else arg,
            value=arg if kind == "write" else None,
            at=at,
        )
        for kind, arg, at in operations
    )


# --------------------------------------------------------------------- #
# Calls and their outcomes
# --------------------------------------------------------------------- #


@dataclass
class Outcome:
    """What one call produced, as the gates judged it."""

    label: str
    attempted: int  # in the workload's unit (operations or schedules)
    failed: int
    operations: int  # planned client operations of the simulated schedules
    schedules: int  # schedules simulated (a trial is one schedule)
    problems: list[str] = field(default_factory=list)
    payload: Any = None  # to_dict() of the result, for the digest
    result: Any = None  # the live result, for the traced pass
    seconds: float = 0.0  # wall time of the call alone, gates excluded
    kind: str = ""  # calls of one kind differ only by seed


@dataclass
class TrialShape:
    """What the traced pass needs to rebuild a ``run``/``sweep`` call."""

    cluster: Cluster
    generator: dict[str, Any]  # WorkloadGenerator arguments besides the seed
    operations: int
    checks: tuple[str, ...]
    trials: int
    seed: int
    observe: bool = False
    #: The other registered engine, for the engine-choice drain (None: none).
    other_engine: str | None = None
    unwrap: Callable[[Any], Any] = lambda result: result  # → RunResult


@dataclass
class Call:
    label: str
    run: Callable[[], Any]
    judge: Callable[[Any], Outcome]
    attempted: int  # units charged as failed when the call itself raises
    shape: TrialShape | None = None
    #: Calls of one kind differ only by seed; ``call_p50_ms`` is the median
    #: over kinds of each kind's median, so a two-kind workload does not
    #: report the gap between its two modes.
    kind: str = ""


def execute(call: Call, rec: SpanRecorder | None = None, call_id: int = 0) -> Outcome:
    """Run, time and judge one call; an exception is a failed call, not a crash.

    Only the call itself is timed: the gates (witness replay, ``to_dict``)
    are the benchmark's work, not what a user of the facade waits for.
    The traced pass hands in its recorder and gets a ``facade.call`` span.
    """
    started = time.perf_counter()
    elapsed = None
    try:
        with rec.span("facade.call", call_id) if rec is not None else nullcontext():
            result = call.run()
        elapsed = time.perf_counter() - started
        outcome = call.judge(result)
        outcome.result = result
    except Exception:  # noqa: BLE001 — the runner must finish and report
        outcome = Outcome(
            call.label, call.attempted, call.attempted, 0, 0,
            [f"raised: {traceback.format_exc(limit=3)}"],
        )
    outcome.seconds = elapsed if elapsed is not None else time.perf_counter() - started
    outcome.kind = call.kind
    return outcome


def judge_run(label: str, result: Any, operations: int, payload: Any = None) -> Outcome:
    """Gates of one ``RunResult``: checks, completion, advertised rounds."""
    spec = get_spec(result.protocol)
    problems = []
    if not result.ok:
        problems.append(
            f"{result.incomplete} incomplete operation(s), failed checks: "
            f"{[(trial, verdict.check) for trial, verdict in result.failures()]}"
        )
    if spec.read_rounds is not None and result.worst_read > spec.read_rounds:
        problems.append(f"worst read {result.worst_read} > advertised {spec.read_rounds}")
    if result.worst_write > spec.write_rounds:
        problems.append(f"worst write {result.worst_write} > advertised {spec.write_rounds}")
    attempted = len(result.trials) * operations
    return Outcome(
        label, attempted, attempted if problems else 0, attempted,
        len(result.trials), problems,
        payload if payload is not None else result.to_dict(),
    )


# --------------------------------------------------------------------- #
# Traced decomposition of trial calls
# --------------------------------------------------------------------- #

#: Spans that lie inside one facade call; their sum over the untraced call
#: time is ``trace_coverage`` and the rest is ``api.facade_self_s``.
TRIAL_LAYERS = (
    "workloads.plan", "api.build", "api.schedule", "sim.drain",
    "analysis.account", "spec.freeze", "spec.check", "storage.meter",
    "obs.spans", "obs.metrics",
)
SCHEDULE_LAYERS = (
    "api.build", "api.schedule", "sim.drain", "spec.freeze", "spec.check",
    "sim.fingerprint",
)


class Tally:
    """Counts and sums the traced pass gathers beside its spans."""

    def __init__(self) -> None:
        self.counts: dict[str, float] = {}  # cycle 0 only: must repeat exactly
        self.events = 0  # all cycles, for events per drain second
        self.scaling: dict[int, list[tuple[float, float]]] = {}
        self.empty_schedule_s: list[float] = []
        self.schedules_per_call: list[int] = []
        self.search_self_s: list[float] = []

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)


def decompose_trial(
    rec: SpanRecorder, call_id: int, shape: TrialShape, index: int,
    tally: Tally, count: bool,
) -> tuple[dict[str, Any], list[OperationPlan]]:
    """One trial of ``shape`` as the public steps ``run_trial`` takes.

    Returns what the facade's ``TrialResult`` must agree with, and the
    plans.  ``count`` adds the trial's deterministic counts to the tally
    (cycle 0 only).
    """
    cluster = shape.cluster
    with rec.span("call.decomposed", call_id), scoped_operation_serials():
        with rec.span("workloads.plan", call_id):
            plans = WorkloadGenerator(
                seed=shape.seed + index, **shape.generator
            ).plan(shape.operations)
        with rec.span("api.build", call_id):
            backend = cluster.build_backend()
        storage = getattr(backend.system, "storage", None)
        try:
            with rec.span("api.schedule", call_id):
                for plan in plans:
                    backend.schedule(plan)
            # measure_backend_latency drains, then accounts; it times the
            # drain itself, so the accounting is this span's self time.
            with rec.span("analysis.account", call_id) as span:
                report = measure_backend_latency(backend, [])
            rec.child("sim.drain", span, report.elapsed_s)
            with rec.span("spec.freeze", call_id):
                histories = backend.histories()
            with rec.span("spec.check", call_id):
                verdicts = {name: run_check(name, histories) for name in shape.checks}
            journals = {}
            meter = None
            if storage is not None:
                journals = {name: store.records() for name, store in storage.stores.items()}
                with rec.span("storage.meter", call_id):
                    meter = SpaceMeter(storage).measure()
            derived = None
            if shape.observe:
                with rec.span("obs.spans", call_id):
                    derived = derive_spans(backend.simulator, backend.trace)
                with rec.span("obs.metrics", call_id):
                    derive_metrics(derived, backend.trace, events=report.events)
        finally:
            if storage is not None:
                storage.close()
    if journals:
        replay_journals(rec, call_id, storage.durability, journals)
    tally.events += report.events
    if count:
        entries = backend.trace.entries
        tally.add("sim.events", report.events)
        tally.add("sim.trace_events", len(entries))
        tally.add("messages", sum(1 for _, kind, _ in entries if kind is TraceKind.SEND))
        tally.add("completed", len(report.write_rounds) + len(report.read_rounds))
        tally.add("writes", len(report.write_rounds))
        tally.peak("registers.rounds_read_worst", max(report.read_rounds, default=0))
        tally.peak("registers.rounds_write_worst", max(report.write_rounds, default=0))
        if meter is not None:
            tally.add("storage.records", meter["retained_records"])
            tally.add("storage.bytes", meter["retained_bytes"])
            tally.add("storage.writes", len(report.write_rounds))
        if derived is not None:
            tally.add("obs.spans", len(derived))
    return {
        "write_rounds": list(report.write_rounds),
        "read_rounds": list(report.read_rounds),
        "incomplete": report.incomplete,
        "checks": {name: verdict.to_dict() for name, verdict in verdicts.items()},
    }, plans


def replay_journals(
    rec: SpanRecorder, call_id: int, durability: str,
    journals: dict[str, tuple[tuple[str, bytes], ...]],
) -> None:
    """The trial's journal records through fresh stores of the same medium."""
    with tempfile.TemporaryDirectory(prefix="e2e-replay-") as tmp:
        stores = [
            MemJournal() if durability == "mem" else DirStorage(Path(tmp) / f"{name}.log")
            for name in journals
        ]
        try:
            with rec.span("storage.replay", call_id):
                for store, records in zip(stores, journals.values()):
                    for key, value in records:
                        store.put(key, value)
                        store.sync()
            with rec.span("storage.recover", call_id):
                for store in stores:
                    store.crash()
                    store.recover()
        finally:
            for store in stores:
                store.close()


def drain_on_other_engine(
    rec: SpanRecorder, call_id: int, shape: TrialShape, plans: list[OperationPlan]
) -> None:
    """Engine-choice evidence: the same plans drained on the other engine."""
    if shape.other_engine is None:
        return
    with scoped_operation_serials():
        backend = shape.cluster.with_engine(shape.other_engine).build_backend()
        storage = getattr(backend.system, "storage", None)
        try:
            for plan in plans:
                backend.schedule(plan)
            with rec.span("sim.drain_alt", call_id):
                backend.run()
        finally:
            if storage is not None:
                storage.close()


def trace_trial_call(
    rec: SpanRecorder, call_id: int, call: Call, tally: Tally, count: bool
) -> Outcome:
    """The facade call for reference, then the same call decomposed."""
    shape = call.shape
    outcome = execute(call, rec, call_id)
    if outcome.result is None:
        return outcome
    result = shape.unwrap(outcome.result)
    with rec.span("api.serialize", call_id):
        json.dumps(result.to_dict())
    with rec.span("api.pickle", call_id):
        pickle.loads(pickle.dumps(result.trials))
    for index, trial in enumerate(result.trials):
        rebuilt, plans = decompose_trial(rec, call_id, shape, index, tally, count)
        reference = {
            "write_rounds": list(trial.write_rounds),
            "read_rounds": list(trial.read_rounds),
            "incomplete": trial.incomplete,
            "checks": {name: verdict.to_dict() for name, verdict in trial.checks.items()},
        }
        if rebuilt != reference:
            outcome.problems.append(f"trial {index}: decomposition disagrees with the facade")
            outcome.failed = outcome.attempted
        drain_on_other_engine(rec, call_id, shape, plans)
    return outcome


# --------------------------------------------------------------------- #
# Traced decomposition of explorer calls
# --------------------------------------------------------------------- #


def decompose_schedule(
    rec: SpanRecorder, call_id: int, cluster: Cluster,
    plans: tuple[OperationPlan, ...], checks: tuple[str, ...],
    tally: Tally, count: bool,
) -> dict[str, Any]:
    """The empty schedule as the public steps ``run_schedule`` takes."""
    with rec.span("schedule.decomposed", call_id), scoped_operation_serials():
        with rec.span("api.build", call_id):
            backend = cluster.build_backend()
        with rec.span("api.schedule", call_id):
            for plan in plans:
                backend.schedule(plan)
        with rec.span("sim.drain", call_id):
            events = backend.run()
        with rec.span("spec.freeze", call_id):
            histories = backend.histories()
        with rec.span("spec.check", call_id):
            for name in checks:
                run_check(name, histories)
        with rec.span("sim.fingerprint", call_id):
            trace_fingerprint(backend.trace)
    tally.events += events
    if count:
        tally.add("sim.events", events)
        tally.add("sim.trace_events", len(backend.trace.entries))
    return histories


def probe_schedules(
    rec: SpanRecorder, call_id: int, probe: ScheduleProbe, tally: Tally
) -> float:
    """Mean seconds of ``run_schedule`` over the empty and every single-decision schedule."""
    spans = []
    with rec.span("explore.run_schedule", call_id) as span:
        outcome = run_schedule(probe.with_decisions(()))
    spans.append(span)
    singles: list[Any] = list(outcome.expansions)
    singles.extend(
        FaultTrigger(obj=obj, at=at)
        for obj, seen in outcome.fault_counts
        for at in range(seen + 1)
    )
    for decision in singles:
        with rec.span("explore.run_schedule", call_id) as span:
            run_schedule(probe.with_decisions((decision,)))
        spans.append(span)
    seconds = [span["end"] - span["start"] for span in spans]
    tally.empty_schedule_s.append(seconds[0])
    return sum(seconds) / len(seconds)


def add_explore_counts(tally: Tally, results: list[Any]) -> None:
    for result in results:
        stats = result.stats
        tally.add("explore.schedules", stats.explored)
        tally.add("explore.duplicates", stats.pruned_duplicate)
        tally.add(
            "explore.pruned",
            stats.pruned_duplicate + stats.pruned_seen
            + stats.pruned_inactive + stats.pruned_symmetry,
        )
        tally.add("explore.minimize_runs", stats.minimization_runs)


# --------------------------------------------------------------------- #
# The workloads
# --------------------------------------------------------------------- #


class Workload:
    """One named workload: its clusters, its cycles, its traced cycle."""

    name = ""
    unit = "operations"
    why = ""
    engine = "default"

    def __init__(self, seed: int, smoke: bool) -> None:
        """``smoke`` selects the reduced sizes the tier-1 test runs."""
        self.seed = seed

    def warmup(self) -> None:
        """One call before the clock starts; by default the whole of cycle 0."""
        for call in self.calls(0):
            call.run()

    def calls(self, cycle: int) -> list[Call]:
        raise NotImplementedError

    def trace_cycle(self, cycle: int, rec: SpanRecorder, tally: Tally) -> list[Outcome]:
        """Trial workloads: every call of the cycle, facade then decomposed."""
        return [
            trace_trial_call(rec, cycle * 1000 + index, call, tally, cycle == 0)
            for index, call in enumerate(self.calls(cycle))
        ]


class TrialLong(Workload):
    name = "trial_long"
    why = (
        "The paper's 4-round-read/2-round-write construction under one Byzantine "
        "object, 320 operations: round accounting, engine drain and checker dominate."
    )
    engine = engine_of(BATCHED)
    generator = {"n_readers": 2, "n_writers": 1, "read_fraction": 0.5, "spacing": 40}

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.operations = 40 if smoke else 320
        self.cluster = self._cluster(self.operations)

    def _cluster(self, operations: int) -> Cluster:
        return (
            Cluster("atomic-fast-regular", t=1, n_readers=2, **BATCHED)
            .with_faults("stale-echo", count=1)
            .with_workload(reads=0.5, spacing=40, operations=operations)
            .check("atomicity")
        )

    def warmup(self) -> None:
        self._cluster(self.operations // 8).run(trials=1, seed=self.seed, keep_history=False)

    def _call(self, seed: int, operations: int) -> Call:
        cluster = self.cluster if operations == self.operations else self._cluster(operations)
        label = f"trial_long[seed={seed},ops={operations}]"
        return Call(
            label,
            lambda: cluster.run(trials=1, seed=seed, keep_history=False),
            lambda result: judge_run(label, result, operations),
            operations,
            TrialShape(cluster, self.generator, operations, ("atomicity",), 1, seed,
                       other_engine=other_engine(BATCHED)),
        )

    def calls(self, cycle: int) -> list[Call]:
        return [self._call(self.seed + cycle, self.operations)]

    def trace_cycle(self, cycle: int, rec: SpanRecorder, tally: Tally) -> list[Outcome]:
        outcomes = super().trace_cycle(cycle, rec, tally)
        # The same configuration at a quarter and a half of the length, on a
        # scratch recorder, so a quadratic cannot hide behind one run length.
        for operations in (self.operations // 4, self.operations // 2):
            scratch = SpanRecorder()
            shape = self._call(self.seed + cycle, operations).shape
            decompose_trial(scratch, 0, shape, 0, Tally(), False)
            self._scaling_point(tally, operations, scratch)
        self._scaling_point(tally, self.operations, rec, call=cycle * 1000)
        return outcomes

    @staticmethod
    def _scaling_point(tally: Tally, operations: int, rec: SpanRecorder, call: int = 0) -> None:
        own = [r for r in rec.spans if r["call"] == call]
        account = next(r for r in own if r["name"] == "analysis.account")
        drain = next(r for r in own if r["name"] == "sim.drain")
        whole = next(r for r in own if r["name"] == "call.decomposed")
        tally.scaling.setdefault(operations, []).append((
            (account["end"] - account["start"]) - (drain["end"] - drain["start"]),
            whole["end"] - whole["start"],
        ))


class SweepGrid(Workload):
    name = "sweep_grid"
    why = (
        "Every registered protocol x its advertised scenarios at 10 operations: "
        "plan, build, schedule, serialize and facade overhead dominate; accounting is small."
    )
    engine = engine_of({})

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.cells = [
            (name, scenario)
            for name in available_protocols()
            for scenario in (get_spec(name).scenarios[:1] if smoke else get_spec(name).scenarios)
        ]

    def _call(self, name: str, scenario: str, seed: int) -> Call:
        check = get_spec(name).default_check()
        label = f"sweep_grid[{name}/{scenario},seed={seed}]"
        # The cluster sweep() builds for this cell, for the traced pass.
        cluster = (
            Cluster(name, t=1, n_readers=2)
            .with_scenario(scenario)
            .with_workload(spacing=150, operations=10)
            .check(check)
        )
        generator = {
            "n_readers": 2,
            "n_writers": 2 if cluster.backend_spec.multi_writer else 1,
            "read_fraction": 0.6,
            "spacing": 150,
        }
        return Call(
            label,
            lambda: sweep([name], scenarios=[scenario], operations=10, trials=1,
                          seed=seed, checks=(check,)),
            lambda result: judge_run(label, result.runs[0], 10, result.to_dict()),
            10,
            TrialShape(cluster, generator, 10, (check,), 1, seed,
                       other_engine=other_engine({}),
                       unwrap=lambda result: result.runs[0]),
            kind=f"{name}/{scenario}",
        )

    def calls(self, cycle: int) -> list[Call]:
        return [self._call(name, scenario, self.seed + cycle) for name, scenario in self.cells]


class DurableChurn(Workload):
    name = "durable_churn"
    why = (
        "Write-heavy ABD on real journal files with crash-recover, rolling replacement, "
        "repairs and repro.obs: the only workload a storage or obs change should move."
    )
    engine = engine_of({})

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.operations = 8 if smoke else 24
        self.trials = 1 if smoke else 4
        shape = {"operations": self.operations, "reads": 0.2, "spacing": 30}
        self.recovering = (
            Cluster("abd", t=1, n_readers=3, durability="dir", observe=True)
            .with_faults("crash-recover", count=1)
            .with_workload(**shape)
            .check("atomicity")
        )
        self.churning = (
            Cluster("abd", t=1, S=3, backend="reconfig", allow_overfault=True, durability="mem")
            .with_faults("rolling-replace", count=3, base=4, stagger=8)
            .with_repairs((1, 40), (2, 110), (3, 180))
            .with_workload(**shape)
            .check("atomicity")
        )

    def _call(
        self, kind: str, cluster: Cluster, n_readers: int, observe: bool, seed: int
    ) -> Call:
        label = f"durable_churn[{kind},seed={seed}]"
        generator = {
            "n_readers": n_readers, "n_writers": 1, "read_fraction": 0.2, "spacing": 30,
        }
        return Call(
            label,
            lambda: cluster.run(trials=self.trials, seed=seed, keep_history=False),
            lambda result: judge_run(label, result, self.operations),
            self.trials * self.operations,
            TrialShape(cluster, generator, self.operations, ("atomicity",), self.trials, seed,
                       observe=observe, other_engine=other_engine({})),
            kind=kind,
        )

    def calls(self, cycle: int) -> list[Call]:
        seed = self.seed + cycle * self.trials  # trial i uses seed + i
        return [
            self._call("crash-recover", self.recovering, 3, True, seed),
            self._call("rolling-replace", self.churning, 2, False, seed),
        ]


CERTIFY_OPERATIONS = [("write", "v1", 0), ("read", 1, 120), ("read", 2, 240)]
REFUTE_OPERATIONS = [("write", "v1", 0), ("read", 1, 100)]


class ExploreCertify(Workload):
    name = "explore_certify"
    unit = "schedules"
    why = (
        "One bounded sweep of the schedule space that must certify, then one "
        "under-provisioned refutation: per-schedule rebuild, drain, check and fingerprint."
    )
    engine = engine_of(BATCHED)

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.max_holds = 1 if smoke else 3
        self.certify_cluster = Cluster("fast-regular", t=1, **BATCHED).with_operations(
            CERTIFY_OPERATIONS
        )
        self.refute_cluster = (
            Cluster("atomic-fast-regular", t=1, S=4, allow_overfault=True, **BATCHED)
            .with_faults("stale-echo", count=2)
            .with_operations(REFUTE_OPERATIONS)
            .check("atomicity")
        )

    def certify(self, max_holds: int | None = None) -> Any:
        return self.certify_cluster.explore(
            max_holds=self.max_holds if max_holds is None else max_holds,
            granularity="round", max_schedules=20000,
        )

    def refute(self) -> Any:
        return self.refute_cluster.explore(max_holds=2)

    def warmup(self) -> None:
        self.certify(max_holds=1)
        self.refute()

    def both(self) -> tuple[Any, Any, float]:
        """The call: certify, then refute; also how long the certify cell took."""
        started = time.perf_counter()
        certify = self.certify()
        certify_s = time.perf_counter() - started
        return certify, self.refute(), certify_s

    def judge(self, result: Any) -> Outcome:
        certify, refute, _ = result
        problems = []
        if not certify.certified:
            problems.append("certify cell did not certify")
        if refute.violations < 1:
            problems.append("refute cell found no violation")
        else:
            witness = refute.witnesses[0]
            if len(witness.decisions) != 1:
                problems.append(f"witness kept {len(witness.decisions)} decisions, expected 1")
            if not witness.reproduces():
                problems.append("witness does not reproduce")
        schedules = certify.stats.explored + refute.stats.explored
        return Outcome(
            "explore_certify", schedules, schedules if problems else 0,
            certify.stats.explored * len(CERTIFY_OPERATIONS)
            + refute.stats.explored * len(REFUTE_OPERATIONS),
            schedules, problems, [certify.to_dict(), refute.to_dict()],
        )

    def calls(self, cycle: int) -> list[Call]:
        return [Call("explore_certify", self.both, self.judge, 1)]

    def trace_cycle(self, cycle: int, rec: SpanRecorder, tally: Tally) -> list[Outcome]:
        call_id = cycle * 1000
        outcome = execute(self.calls(cycle)[0], rec, call_id)
        if outcome.result is None:
            return [outcome]
        certify, refute, certify_s = outcome.result
        plans = explicit_plans(CERTIFY_OPERATIONS)
        checks = tuple(certify.checks)
        probe = ScheduleProbe(
            protocol="fast-regular", protocol_kwargs=(), t=1, S=None, n_readers=2,
            n_writers=1, keys=(), backend="single", allow_overfault=False,
            scenario=None, fault_groups=(), schedule=(), plans=plans, checks=checks,
            granularity="round", **BATCHED,
        )
        per_schedule = probe_schedules(rec, call_id, probe, tally)
        tally.search_self_s.append(certify_s - certify.stats.explored * per_schedule)
        tally.schedules_per_call.append(outcome.schedules)
        for repeat in range(10):
            decompose_schedule(
                rec, call_id, self.certify_cluster, plans, checks, tally,
                cycle == 0 and repeat == 0,
            )
        if refute.witnesses:
            with rec.span("explore.replay", call_id):
                refute.witnesses[0].replay()
        if cycle == 0:
            add_explore_counts(tally, [certify, refute])
        return [outcome]


class FrontierDegrade(Workload):
    name = "frontier_degrade"
    unit = "schedules"
    why = (
        "The checker ladder re-explores one space once per rung and sweeps fault "
        "triggers: cross-rung reuse and k-atomic checker cost show here only."
    )
    engine = engine_of({})

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.max_holds = 1 if smoke else 2
        # One hold cannot separate the models, so the smoke frontier
        # certifies atomicity; two holds refute it and settle on k-atomic(2).
        self.expected = (
            {"strongest": "atomicity", "refuted": None, "degraded": True}
            if smoke else
            {"strongest": "k-atomic(2)", "refuted": "atomicity", "degraded": True}
        )
        self.cluster = (
            Cluster("atomic-fast-regular", t=1, S=4, allow_overfault=True)
            .with_faults("stale-echo", count=1)
            .with_faults("timed", count=1, inner="stale-echo", at=99)
            .with_operations(REFUTE_OPERATIONS)
        )

    def frontier(self, max_holds: int | None = None) -> Any:
        return self.cluster.frontier(
            max_holds=self.max_holds if max_holds is None else max_holds,
            max_schedules=3000,
        )

    def warmup(self) -> None:
        self.frontier(max_holds=1)

    def judge(self, result: Any) -> Outcome:
        got = {
            "strongest": result.strongest,
            "refuted": result.refuted,
            "degraded": result.degraded,
        }
        problems = [] if got == self.expected else [f"frontier {got}, expected {self.expected}"]
        if result.refuted is not None and (
            result.witness is None or not result.witness.reproduces()
        ):
            problems.append("no reproducing witness against the refuted model")
        return Outcome(
            "frontier_degrade", result.schedules, result.schedules if problems else 0,
            result.schedules * len(REFUTE_OPERATIONS), result.schedules, problems,
            result.to_dict(),
        )

    def calls(self, cycle: int) -> list[Call]:
        return [Call("frontier_degrade", self.frontier, self.judge, 1)]

    def trace_cycle(self, cycle: int, rec: SpanRecorder, tally: Tally) -> list[Outcome]:
        call_id = cycle * 1000
        outcome = execute(self.calls(cycle)[0], rec, call_id)
        if outcome.result is None:
            return [outcome]
        result = outcome.result
        rung_schedules = []
        for model in result.results:
            with rec.span("robustness.rung", call_id):
                rung = self.cluster.with_checks(model).explore(
                    max_holds=self.max_holds, max_schedules=3000, fault_timing=True
                )
            rung_schedules.append(rung.stats.explored)
        # The witness carries the probe the frontier explored with.
        if result.witness is not None:
            per_schedule = probe_schedules(rec, call_id, result.witness.probe, tally)
            tally.search_self_s.append(outcome.seconds - result.schedules * per_schedule)
            with rec.span("explore.replay", call_id):
                result.witness.replay()
        tally.schedules_per_call.append(result.schedules)
        plans = explicit_plans(REFUTE_OPERATIONS)
        for repeat in range(10):
            histories = decompose_schedule(
                rec, call_id, self.cluster, plans, ("atomicity",), tally,
                cycle == 0 and repeat == 0,
            )
            for model in ("k-atomic(2)", "k-atomic(3)"):
                with rec.span("consistency.check", call_id):
                    run_check(model, histories)
        if cycle == 0:
            add_explore_counts(tally, list(result.results.values()))
            tally.add("robustness.rungs", len(result.results))
            tally.add("robustness.frontier_schedules", result.schedules)
            tally.add("robustness.rung_schedules", rung_schedules[0])
        return [outcome]


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (TrialLong, SweepGrid, ExploreCertify, FrontierDegrade, DurableChurn)
}


# --------------------------------------------------------------------- #
# Per-layer metrics from one traced pass
# --------------------------------------------------------------------- #

#: name → unit of every per-layer metric; a workload that never enters a
#: layer reports 0 for it.
PER_LAYER_UNITS: dict[str, str] = {
    "workloads.plan_s": "s",
    "api.build_s": "s",
    "api.schedule_s": "s",
    "api.serialize_s": "s",
    "api.pickle_s": "s",
    "api.facade_self_s": "s",
    "api.trial_exponent": "exponent",
    "sim.drain_s": "s",
    "sim.drain_alt_s": "s",
    "sim.fingerprint_s": "s",
    "sim.events": "count",
    "sim.trace_events": "count",
    "sim.events_per_s": "1/s",
    "analysis.account_s": "s",
    "analysis.account_exponent": "exponent",
    "spec.freeze_s": "s",
    "spec.check_s": "s",
    "consistency.check_s": "s",
    "registers.rounds_read_worst": "count",
    "registers.rounds_write_worst": "count",
    "registers.messages_per_op": "ratio",
    "storage.replay_s": "s",
    "storage.recover_s": "s",
    "storage.meter_s": "s",
    "storage.records": "count",
    "storage.bytes_per_write": "ratio",
    "obs.spans_s": "s",
    "obs.metrics_s": "s",
    "obs.spans": "count",
    "explore.run_schedule_s": "s",
    "explore.search_self_s": "s",
    "explore.replay_s": "s",
    "explore.schedules": "count",
    "explore.pruned": "count",
    "explore.distinct_ratio": "ratio",
    "explore.minimize_runs": "count",
    "robustness.rungs": "count",
    "robustness.rung_s": "s",
    "robustness.resimulated_ratio": "ratio",
    "trace_coverage": "ratio",
    "trace_overhead_ratio": "ratio",
}

#: The per-layer metrics that are pure functions of (code, seed).
DETERMINISTIC = tuple(
    name for name, unit in PER_LAYER_UNITS.items()
    if unit == "count" or name in (
        "registers.messages_per_op", "storage.bytes_per_write",
        "explore.distinct_ratio", "robustness.resimulated_ratio",
    )
)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(workload: Workload, rec: SpanRecorder, tally: Tally) -> dict[str, float]:
    """Every per-layer metric of one traced pass.

    A ``_s`` metric is the mean self time of one occurrence of its step
    (one trial's plan, one schedule's fingerprint, one rung's explore);
    counts come from cycle 0 only and repeat exactly.
    """
    own = rec.self_seconds()
    occurrences: dict[str, int] = {}
    for record in rec.spans:
        occurrences[record["name"]] = occurrences.get(record["name"], 0) + 1
    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for name in values:
        if name.endswith("_s") and name[:-2] in own:
            values[name] = own[name[:-2]] / occurrences[name[:-2]]
    counts = tally.counts
    for name in values:
        if name in counts:
            values[name] = counts[name]
    values["registers.messages_per_op"] = ratio(counts.get("messages", 0), counts.get("completed", 0))
    values["storage.bytes_per_write"] = ratio(counts.get("storage.bytes", 0), counts.get("storage.writes", 0))
    values["sim.events_per_s"] = ratio(tally.events, own.get("sim.drain", 0.0))
    facade = sum(rec.durations("facade.call"))
    calls = occurrences.get("facade.call", 0)
    if workload.unit == "operations":
        covered = sum(own.get(layer, 0.0) for layer in TRIAL_LAYERS)
        values["api.facade_self_s"] = ratio(facade - covered, calls)
        values["trace_coverage"] = ratio(covered, facade)
        values["trace_overhead_ratio"] = ratio(sum(rec.durations("call.decomposed")), facade)
    else:
        decomposed = occurrences.get("schedule.decomposed", 0)
        per_schedule = ratio(sum(own.get(layer, 0.0) for layer in SCHEDULE_LAYERS), decomposed)
        values["trace_coverage"] = ratio(
            per_schedule * sum(tally.schedules_per_call), facade
        )
        values["trace_overhead_ratio"] = ratio(
            ratio(sum(rec.durations("schedule.decomposed")), decomposed),
            ratio(sum(tally.empty_schedule_s), len(tally.empty_schedule_s)),
        )
        values["explore.search_self_s"] = ratio(sum(tally.search_self_s), len(tally.search_self_s))
        values["explore.distinct_ratio"] = 1.0 - ratio(
            counts.get("explore.duplicates", 0), counts.get("explore.schedules", 0)
        )
        values["robustness.resimulated_ratio"] = ratio(
            counts.get("robustness.frontier_schedules", 0),
            counts.get("robustness.rung_schedules", 0),
        )
    if tally.scaling:
        sizes = sorted(tally.scaling)
        values["analysis.account_exponent"] = loglog_slope(
            sizes, [median([point[0] for point in tally.scaling[n]]) for n in sizes]
        )
        values["api.trial_exponent"] = loglog_slope(
            sizes, [median([point[1] for point in tally.scaling[n]]) for n in sizes]
        )
    return values

"""Systematic schedule exploration: a bounded model checker over deliveries.

The repo's other entry points *simulate one schedule*; this package
*searches the schedule space*.  In the spirit of robustness checkers
(Beillahi–Bouajjani–Enea) and the k-atomicity-verification line (Golab et
al.), it enumerates which client↔object links the adversary keeps "in
transit", runs every resulting schedule through the existing simulator and
consistency checkers, and either **certifies** a configuration over all
bounded schedules or **refutes** it with a minimized, replayable
:class:`ScheduleWitness`.

Three layers:

* :mod:`repro.explore.controlled` — :class:`ControlledDelivery`, the
  delivery policy that turns message transit into an explorer-driven
  choice point over :class:`HoldLink` decisions, plus the second half of
  the decision vocabulary: :class:`FaultTrigger`, which makes *fault
  timing* an explorer choice point as well;
* :mod:`repro.explore.engine` — :class:`ScheduleProbe` (plain-data
  schedule descriptions, pool-parallelizable like trial specs),
  :func:`simulate` (build, drain, freeze, trace key: everything that does
  not depend on the checker, returned as a plain-data
  :class:`SimulatedSchedule`) followed by :func:`judge` (the requested
  checkers over that record's histories), :func:`run_schedule` (both, plus
  the wire-trace fingerprint witnesses replay against) — and the
  :class:`Explorer` frontier with sleep-set and duplicate-trace
  partial-order reductions, bounded by one
  :class:`~repro.axes.SearchBounds` record (the only place the bounds are
  declared and documented).  Explorations of one configuration that differ
  only in their checks can share a :class:`SimulationStore` (described
  there);
* :mod:`repro.explore.witness` — delta-debugged minimization plus JSON
  round-tripping and deterministic replay.

Entry points: :meth:`repro.api.Cluster.explore` and
``python -m repro explore`` / ``python -m repro replay``.
"""

from repro.axes import GRANULARITIES, STRATEGIES
from repro.explore.controlled import (
    ControlledDelivery,
    Decision,
    FaultTrigger,
    HoldLink,
    canonical_decisions,
    decision_from_json,
)
from repro.explore.engine import (
    Explorer,
    ExploreResult,
    ExploreStats,
    ScheduleOutcome,
    ScheduleProbe,
    SimulatedSchedule,
    SimulationStore,
    judge,
    run_schedule,
    simulate,
)
from repro.explore.witness import ScheduleWitness, minimize_decisions

__all__ = [
    "GRANULARITIES",
    "STRATEGIES",
    "ControlledDelivery",
    "Decision",
    "FaultTrigger",
    "HoldLink",
    "canonical_decisions",
    "decision_from_json",
    "Explorer",
    "ExploreResult",
    "ExploreStats",
    "ScheduleOutcome",
    "ScheduleProbe",
    "SimulatedSchedule",
    "SimulationStore",
    "judge",
    "run_schedule",
    "simulate",
    "ScheduleWitness",
    "minimize_decisions",
]

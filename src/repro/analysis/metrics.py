"""Round-trip latency accounting.

The paper's complexity metric is communication round-trips per operation.
:func:`measure_backend_latency` replays a workload against a built system
and reports the rounds each operation used, per operation kind —
cross-checked against the wire (the message trace) so the engine cannot
misreport its own round count.

Cost: the cross-check reads the wire trace once per run (one fold into an
int per operation, then one dict lookup per completed operation), so the
accounting is linear in run length and a small share of a trial — the
engine's drain is where a trial's time goes.  ``tests/test_accounting.py``
counts the passes over the trace so a per-operation rescan cannot return.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import SpecificationError
from repro.registers.base import SystemBackend
from repro.sim.simulator import OperationStatus
from repro.workloads.generator import OperationPlan


@dataclass(slots=True)
class LatencyReport:
    """Rounds-per-operation statistics for one system execution."""

    protocol: str
    scenario: str
    write_rounds: list[int] = field(default_factory=list)
    read_rounds: list[int] = field(default_factory=list)
    #: Rounds used by membership-repair steps (reconfig backend only);
    #: always exactly 2 per completed repair — transfer read + install.
    repair_rounds: list[int] = field(default_factory=list)
    incomplete: int = 0
    #: Simulator events the run executed and the wall-clock seconds it
    #: took (the event count is deterministic, the duration is not and
    #: never enters byte-compared dumps).
    events: int = 0
    elapsed_s: float = 0.0
    #: Wall-clock seconds of the layers :func:`measure_backend_latency`
    #: spans — ``schedule``, ``drain`` (= ``elapsed_s``), ``account`` — for
    #: the per-trial phase ledger; host time, never byte-compared.
    phases_s: dict[str, float] = field(default_factory=dict)

    @property
    def worst_write(self) -> int:
        return max(self.write_rounds, default=0)

    @property
    def worst_read(self) -> int:
        return max(self.read_rounds, default=0)


def _account_rounds(simulator, trace, report: LatencyReport) -> None:
    """Fold every executed operation's round count into ``report``.

    The wire is read once, whatever the number of operations:
    :meth:`~repro.sim.tracing.MessageTrace.round_trip_counts` folds the
    trace into one int per operation and each completed operation is then
    compared against its entry.
    """
    on_wire_by_op = trace.round_trip_counts()
    for operation in simulator.operations:
        if operation.status is not OperationStatus.COMPLETE:
            report.incomplete += 1
            continue
        rounds = operation.rounds_used
        on_wire = on_wire_by_op.get(operation.op_id, 0)
        if on_wire != rounds:
            raise SpecificationError(
                f"engine counted {rounds} rounds for {operation.op_id} "
                f"but the wire shows {on_wire}"
            )
        if operation.op_id.kind == "write":
            report.write_rounds.append(rounds)
        elif operation.op_id.kind == "repair":
            report.repair_rounds.append(rounds)
        else:
            report.read_rounds.append(rounds)


def measure_backend_latency(
    backend: SystemBackend,
    plans: list[OperationPlan],
    scenario: str = "",
) -> LatencyReport:
    """Replay ``plans`` on a built system and account rounds per operation.

    The system routes each plan to its register/writer
    (:meth:`~repro.registers.base.SystemBackend.schedule`: key-aware for
    sharded clusters, writer-index-aware for MWMR systems), runs to
    quiescence, and every executed operation's rounds are folded into the
    report, cross-checked against the wire.
    """
    started = time.perf_counter()
    for plan in plans:
        backend.schedule(plan)
    scheduled = time.perf_counter()
    events = backend.run()
    drained = time.perf_counter()
    report = LatencyReport(protocol=backend.label, scenario=scenario)
    report.events = events
    report.elapsed_s = drained - scheduled
    _account_rounds(backend.simulator, backend.trace, report)
    report.phases_s = {
        "schedule": scheduled - started,
        "drain": report.elapsed_s,
        "account": time.perf_counter() - drained,
    }
    return report

"""Operation histories: invocations, responses, and the precedence order.

A history is the externally visible part of a (partial) run: for each
operation its kind, argument/result, and invocation/response *steps*.  Steps
carry both a virtual time and a global step number so that precedence
("the response step of op1 precedes the invocation step of op2") is
well-defined even when virtual times collide.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterable

from repro.errors import SpecificationError
from repro.types import BOTTOM, OperationId, ProcessId


@dataclass(slots=True)
class OperationRecord:
    """One operation as the history sees it."""

    op_id: OperationId
    kind: str  # "read" | "write"
    client: ProcessId
    invoked_at: int
    invocation_step: int
    value: Any = None  # argument of a write, result of a read
    responded_at: int | None = None
    response_step: int | None = None

    @property
    def complete(self) -> bool:
        """Whether the run contains a response step for this operation."""
        return self.response_step is not None

    def precedes(self, other: "OperationRecord") -> bool:
        """Paper §2.2: complete ``self`` responds before ``other`` is invoked."""
        if not self.complete:
            return False
        return self.response_step < other.invocation_step

    def concurrent_with(self, other: "OperationRecord") -> bool:
        """Neither operation precedes the other."""
        return not self.precedes(other) and not other.precedes(self)

    def __str__(self) -> str:
        status = f"-> {self.value!r}" if self.complete else "(incomplete)"
        return f"{self.op_id} {status}"


class HistoryRecorder:
    """Collects invocation/response events during a simulation.

    Implements the interface :class:`repro.sim.simulator.Simulator` expects;
    call :meth:`freeze` to obtain an immutable :class:`History` for checking.
    """

    def __init__(self) -> None:
        self._records: dict[OperationId, OperationRecord] = {}
        self._order: list[OperationId] = []
        self._steps = itertools.count(1)

    def record_invocation(self, op_id: OperationId, kind: str, value: Any, time: int) -> None:
        if op_id in self._records:
            raise SpecificationError(f"duplicate invocation of {op_id}")
        self._records[op_id] = OperationRecord(
            op_id=op_id,
            kind=kind,
            client=op_id.client,
            invoked_at=time,
            invocation_step=next(self._steps),
            value=value,
        )
        self._order.append(op_id)

    def record_response(self, op_id: OperationId, value: Any, time: int) -> None:
        record = self._records.get(op_id)
        if record is None:
            raise SpecificationError(f"response without invocation: {op_id}")
        if record.complete:
            raise SpecificationError(f"duplicate response for {op_id}")
        record.responded_at = time
        record.response_step = next(self._steps)
        if record.kind == "read":
            record.value = value

    def freeze(self) -> "History":
        """Immutable view of everything recorded so far."""
        return History([self._records[op] for op in self._order])


class History:
    """An immutable operation history with SWMR-specific accessors."""

    def __init__(self, records: Iterable[OperationRecord]) -> None:
        self.records: tuple[OperationRecord, ...] = tuple(records)
        self._validate()

    def _validate(self) -> None:
        outstanding: dict[ProcessId, OperationRecord] = {}
        for record in sorted(self.records, key=lambda r: r.invocation_step):
            previous = outstanding.get(record.client)
            if previous is not None and not previous.complete:
                raise SpecificationError(
                    f"{record.client} invoked {record.op_id} while {previous.op_id} is outstanding"
                )
            if (
                previous is not None
                and previous.complete
                and previous.response_step is not None
                and previous.response_step > record.invocation_step
            ):
                raise SpecificationError(
                    f"{record.client} invoked {record.op_id} before {previous.op_id} responded"
                )
            outstanding[record.client] = record

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    def reads(self, complete_only: bool = True) -> list[OperationRecord]:
        """Read operations, by default only the complete ones."""
        return [
            r for r in self.records if r.kind == "read" and (r.complete or not complete_only)
        ]

    def writes(self) -> list[OperationRecord]:
        """Write operations in invocation order — the natural SWMR order.

        The single writer is sequential, so invocation order is the paper's
        ``wr_1, wr_2, …`` numbering; at most the last write is incomplete.
        """
        writes = [r for r in self.records if r.kind == "write"]
        return sorted(writes, key=lambda r: r.invocation_step)

    def written_values(self) -> list[Any]:
        """``val_0 = ⊥`` followed by ``val_1 .. val_n`` in write order."""
        return [BOTTOM] + [w.value for w in self.writes()]

    def single_writer(self) -> bool:
        """Whether all writes come from one client."""
        writers = {w.client for w in self.writes()}
        return len(writers) <= 1

    def describe(self) -> str:
        """Multi-line human-readable rendering (for certificates and logs)."""
        lines = []
        for record in sorted(self.records, key=lambda r: r.invocation_step):
            window = (
                f"[{record.invoked_at}, {record.responded_at}]"
                if record.complete
                else f"[{record.invoked_at}, …)"
            )
            lines.append(f"  {record} {window}")
        return "\n".join(lines) or "  (empty history)"

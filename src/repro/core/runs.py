"""Scripted partial runs: exact adversarial control over protocol executions.

The lower-bound proofs manipulate runs at a granularity the event-loop
simulator is deliberately too honest for: *"round one of ``rd_1`` skips
block ``B_2``"*, *"objects in ``B_1`` forge their state to ``σ_{k−1}``
before replying"*, *"round ``i`` is not terminated; its replies are in
transit"*.  This module provides that control:

* a :class:`Script` is a list of steps — start an operation, deliver one of
  its rounds to chosen blocks, terminate a round, or *restore* a block's
  objects to states captured in another run (the proofs' forgery, performed
  literally: malicious objects present genuine states from a counterfactual
  run);
* :class:`ScriptedRun` executes a script against fresh objects, recording
  **per-delivery state captures** (the σ's of the proofs), **reply
  transcripts** per terminated round (what the invoking client actually
  sees — the currency of every indistinguishability argument), and the
  operation history for the atomicity checker;
* :func:`repair_against` is the adaptive adversary: given a structurally
  trimmed script (a ``Δ`` run), a reference run and a budget of blocks that
  may act maliciously, it inserts exactly the state restorations needed to
  make every terminated-round transcript match the reference — or raises
  :class:`~repro.errors.ConstructionError` if that would take more Byzantine
  power than the proof allows.  The restorations it discovers are precisely
  the forgeries written down in the paper.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.core.blocks import BlockPartition
from repro.errors import ConstructionError, ConstructionEscape
from repro.registers.base import ProtocolContext, RegisterProtocol
from repro.sim.network import Message
from repro.sim.process import ObjectServer
from repro.sim.rounds import RoundOutcome, RoundSpec
from repro.sim.simulator import ProtocolGenerator
from repro.sim.tracing import _freeze
from repro.spec.history import History, OperationRecord
from repro.types import ProcessId, fresh_operation_id

#: Capture key for the pristine initial state of every object.
INITIAL = ("__init__", 0)
#: Capture key for the state at the very end of a run.
END = ("__end__", 0)

CaptureKey = tuple[str, int]
Captures = dict[tuple[str, int, ProcessId], dict[str, Any]]


# --------------------------------------------------------------------- #
# Script steps
# --------------------------------------------------------------------- #


@dataclass(frozen=True, slots=True)
class StartWrite:
    """Invoke ``write(value)`` named ``op`` at the (single) writer."""

    op: str
    value: Any


@dataclass(frozen=True, slots=True)
class StartRead:
    """Invoke a read named ``op`` at reader index ``reader`` (1-based)."""

    op: str
    reader: int


@dataclass(frozen=True, slots=True)
class Deliver:
    """Deliver round ``round_no`` of ``op`` to every object in ``blocks``.

    Objects process the invocation and produce replies; the replies are
    buffered (in transit) until :class:`TerminateRound` hands them to the
    client.  Delivering the same round to an object twice is an error.
    """

    op: str
    round_no: int
    blocks: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class TerminateRound:
    """End round ``round_no`` of ``op``: the client consumes buffered replies.

    The protocol's own round rule must accept the offered reply set (eagerly
    or at quiescence); otherwise the construction has failed to trap this
    protocol and :class:`~repro.errors.ConstructionEscape` is raised.
    """

    op: str
    round_no: int


@dataclass(frozen=True, slots=True)
class Restore:
    """Malicious step: overwrite ``block``'s object states from captures.

    ``source`` holds another run's captures; each object is restored to the
    state it had in that run just before delivery ``point = (op, round)``
    (or at ``INITIAL``/``END``).  This is the proofs' "forge state to σ".
    """

    block: str
    source: Captures
    point: CaptureKey
    note: str = ""


Step = StartWrite | StartRead | Deliver | TerminateRound | Restore
Script = list[Step]


# --------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------- #


@dataclass(slots=True)
class _OpState:
    name: str
    kind: str
    client: ProcessId
    generator: ProtocolGenerator
    specs: list[RoundSpec] = field(default_factory=list)
    replies: list[dict[ProcessId, Mapping[str, Any]]] = field(default_factory=list)
    terminated: list[bool] = field(default_factory=list)
    delivered: list[set[ProcessId]] = field(default_factory=list)
    complete: bool = False
    result: Any = None
    invocation_step: int = 0
    response_step: int | None = None
    declared_value: Any = None


@dataclass
class RunResult:
    """Everything a finished scripted run exposes to the constructions."""

    name: str
    partition: BlockPartition
    captures: Captures
    ops: dict[str, "_OpState"]
    op_order: list[str]
    malicious_blocks: set[str]
    script: Script

    def returned(self, op: str) -> Any:
        """Result of a completed operation (None when incomplete)."""
        return self.ops[op].result if self.ops[op].complete else None

    def is_complete(self, op: str) -> bool:
        return self.ops[op].complete

    def malicious_object_count(self) -> int:
        """Objects belonging to blocks that took a malicious step."""
        return self.partition.size(self.malicious_blocks)

    def history(self) -> History:
        """The run's operation history (for the atomicity checker)."""
        records = []
        for name in self.op_order:
            op = self.ops[name]
            records.append(
                OperationRecord(
                    op_id=fresh_operation_id(op.client, op.kind),
                    kind=op.kind,
                    client=op.client,
                    invoked_at=op.invocation_step,
                    invocation_step=op.invocation_step,
                    value=op.result if (op.kind == "read" and op.complete) else op.declared_value,
                    responded_at=op.response_step,
                    response_step=op.response_step,
                )
            )
        return History(records)


class ScriptedRun:
    """Executes :class:`Script` objects against fresh storage objects.

    Takes a protocol *factory* rather than an instance: every execution gets
    a fresh protocol (and fresh objects), so re-running the same script is
    bit-for-bit reproducible and states captured in one run can be compared
    with, or transplanted into, another — the mechanism behind every
    "forge state to σ" step.
    """

    def __init__(
        self,
        protocol_factory: "Any",
        partition: BlockPartition,
        t: int,
        n_readers: int,
    ) -> None:
        probe: RegisterProtocol = protocol_factory()
        probe.validate_configuration(partition.S, t)
        self.protocol_factory = protocol_factory
        self.probe = probe
        self.partition = partition
        self.ctx = ProtocolContext(
            S=partition.S, t=t, objects=partition.union(partition.names)
        )
        self.n_readers = n_readers

    def execute(self, name: str, script: Script) -> RunResult:
        """Run ``script`` from scratch and return the evidence bundle."""
        from repro.types import reader_id, writer_id

        protocol: RegisterProtocol = self.protocol_factory()
        servers = {
            pid: ObjectServer(pid=pid, handler=protocol.object_handler())
            for pid in self.ctx.objects
        }
        captures: Captures = {}
        for pid, server in servers.items():
            captures[(*INITIAL, pid)] = server.snapshot()

        ops: dict[str, _OpState] = {}
        op_order: list[str] = []
        malicious: set[str] = set()
        steps = itertools.count(1)

        def advance(op: _OpState, outcome: RoundOutcome | None, first: bool = False) -> None:
            try:
                spec = next(op.generator) if first else op.generator.send(outcome)
            except StopIteration as stop:
                op.complete = True
                op.result = stop.value
                op.response_step = next(steps)
                return
            op.specs.append(spec)
            op.replies.append({})
            op.terminated.append(False)
            op.delivered.append(set())

        for step in script:
            if isinstance(step, StartWrite):
                if step.op in ops:
                    raise ConstructionError(f"duplicate operation name {step.op!r}")
                generator = protocol.write_generator(self.ctx, step.value)
                op = _OpState(
                    name=step.op,
                    kind="write",
                    client=writer_id(),
                    generator=generator,
                    declared_value=step.value,
                )
                op.invocation_step = next(steps)
                ops[step.op] = op
                op_order.append(step.op)
                advance(op, None, first=True)
            elif isinstance(step, StartRead):
                if step.op in ops:
                    raise ConstructionError(f"duplicate operation name {step.op!r}")
                if not 1 <= step.reader <= self.n_readers:
                    raise ConstructionError(f"reader index {step.reader} out of range")
                generator = protocol.read_generator(self.ctx, reader_id(step.reader))
                op = _OpState(
                    name=step.op,
                    kind="read",
                    client=reader_id(step.reader),
                    generator=generator,
                )
                op.invocation_step = next(steps)
                ops[step.op] = op
                op_order.append(step.op)
                advance(op, None, first=True)
            elif isinstance(step, Deliver):
                op = ops.get(step.op)
                if op is None:
                    raise ConstructionError(f"deliver to unknown operation {step.op!r}")
                if op.complete:
                    raise ConstructionError(f"{step.op} already complete")
                index = step.round_no - 1
                if index != len(op.specs) - 1 or op.terminated[index]:
                    raise ConstructionError(
                        f"{step.op} round {step.round_no} is not the pending round"
                    )
                spec = op.specs[index]
                for pid in self.partition.union(step.blocks):
                    if pid in op.delivered[index]:
                        raise ConstructionError(
                            f"{step.op} round {step.round_no} delivered twice to {pid}"
                        )
                    op.delivered[index].add(pid)
                    server = servers[pid]
                    captures[(step.op, step.round_no, pid)] = server.snapshot()
                    message = Message(
                        src=op.client,
                        dst=pid,
                        op=fresh_operation_id(op.client, op.kind),
                        round_no=step.round_no,
                        tag=spec.tag,
                        payload=spec.payload_for(pid),
                    )
                    reply = server.handler.handle(server.state, message)
                    op.replies[index][pid] = reply
            elif isinstance(step, TerminateRound):
                op = ops.get(step.op)
                if op is None:
                    raise ConstructionError(f"terminate for unknown operation {step.op!r}")
                index = step.round_no - 1
                if index != len(op.specs) - 1 or op.terminated[index]:
                    raise ConstructionError(
                        f"{step.op} round {step.round_no} is not pending termination"
                    )
                spec = op.specs[index]
                replies = op.replies[index]
                if not (
                    spec.rule.satisfied(replies) or spec.rule.acceptable_at_quiescence(replies)
                ):
                    raise ConstructionEscape(
                        step=f"{name}:{step.op}:round{step.round_no}",
                        reason=(
                            f"round rule rejects the offered {len(replies)} replies "
                            f"(min_count={spec.rule.min_count})"
                        ),
                    )
                op.terminated[index] = True
                outcome = RoundOutcome(
                    round_no=step.round_no, replies=dict(replies), terminated_at=0
                )
                advance(op, outcome)
            elif isinstance(step, Restore):
                for pid in self.partition.members(step.block):
                    key = (*step.point, pid)
                    if key not in step.source:
                        raise ConstructionError(
                            f"no capture {step.point} for {pid} in restore source"
                        )
                    servers[pid].restore(step.source[key])
                malicious.add(step.block)
            else:  # pragma: no cover - exhaustive match
                raise ConstructionError(f"unknown step {step!r}")

        for pid, server in servers.items():
            captures[(*END, pid)] = server.snapshot()

        return RunResult(
            name=name,
            partition=self.partition,
            captures=captures,
            ops=ops,
            op_order=op_order,
            malicious_blocks=malicious,
            script=list(script),
        )


# --------------------------------------------------------------------- #
# The adaptive adversary
# --------------------------------------------------------------------- #


def find_first_mismatch(
    derived: RunResult,
    reference: RunResult,
    ops: Iterable[str],
) -> tuple[str, int, ProcessId] | None:
    """First ``(op, round, object)`` whose terminated-round reply differs.

    Rounds are compared only where terminated in the *derived* run and only
    on objects delivered in both runs; everything else is invisible to the
    respective client and unconstrained by indistinguishability.
    """
    for op_name in ops:
        if op_name not in derived.ops or op_name not in reference.ops:
            continue
        derived_op = derived.ops[op_name]
        for index, terminated in enumerate(derived_op.terminated):
            if not terminated:
                continue
            round_no = index + 1
            ref_op = reference.ops[op_name]
            if index >= len(ref_op.replies):
                continue
            derived_replies = derived_op.replies[index]
            reference_replies = ref_op.replies[index]
            for pid in sorted(derived_replies):
                if pid not in reference_replies:
                    continue
                if _freeze(derived_replies[pid]) != _freeze(reference_replies[pid]):
                    return (op_name, round_no, pid)
    return None


def repair_against(
    runner: ScriptedRun,
    name: str,
    base_script: Script,
    reference: RunResult,
    allowed_blocks: Iterable[str],
    compare_ops: Iterable[str],
    max_iterations: int = 400,
) -> RunResult:
    """Insert forgeries until the derived run is indistinguishable.

    Re-executes ``base_script``, locating the first terminated-round reply
    that differs from ``reference`` and prepending a :class:`Restore` (from
    the reference's captures) to the delivery that produced it.  Blocks
    outside ``allowed_blocks`` may never be touched — exceeding the proof's
    Byzantine budget raises :class:`~repro.errors.ConstructionError`.
    """
    allowed = set(allowed_blocks)
    compare = list(compare_ops)
    script = list(base_script)
    repaired: set[tuple[str, int, str]] = set()

    for _ in range(max_iterations):
        result = runner.execute(name, script)
        mismatch = find_first_mismatch(result, reference, compare)
        if mismatch is None:
            return result
        op_name, round_no, pid = mismatch
        block = runner.partition.block_of(pid)
        if block not in allowed:
            raise ConstructionError(
                f"{name}: transcript repair for {op_name} round {round_no} needs "
                f"block {block}, outside the Byzantine budget {sorted(allowed)}"
            )
        key = (op_name, round_no, block)
        if key in repaired:
            raise ConstructionError(
                f"{name}: repeated repair at {key}; construction diverges"
            )
        repaired.add(key)
        insert_at = _delivery_step_index(script, op_name, round_no, block)
        script.insert(
            insert_at,
            Restore(
                block=block,
                source=reference.captures,
                point=(op_name, round_no),
                note=f"forge before {op_name} round {round_no} (mimic {reference.name})",
            ),
        )
    raise ConstructionError(f"{name}: repair did not converge in {max_iterations} passes")


def _delivery_step_index(script: Script, op: str, round_no: int, block: str) -> int:
    """Index of the Deliver step carrying (op, round) to ``block``."""
    for i, step in enumerate(script):
        if (
            isinstance(step, Deliver)
            and step.op == op
            and step.round_no == round_no
            and block in step.blocks
        ):
            return i
    raise ConstructionError(
        f"no delivery of {op} round {round_no} to block {block} found in script"
    )

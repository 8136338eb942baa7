"""Shared ground types: process identifiers, timestamps, values.

The model of the paper (Section 2) distinguishes three disjoint process sets:
*objects* (the ``S`` base storage components), a singleton *writer*, and
``R`` *readers*.  Process identifiers carry their role so that harness code
can enforce the model's communication restrictions (objects never initiate
messages; clients never talk to each other).
"""

from __future__ import annotations

import enum
import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache
from typing import Any, Iterator

#: The register's initial value.  Per the paper it is a reserved symbol that
#: no write operation may store.
BOTTOM: str = "⊥"  # ⊥


class Role(enum.Enum):
    """Role of a process in the emulation."""

    OBJECT = "object"
    WRITER = "writer"
    READER = "reader"
    #: Repair coordinators: one per membership-epoch transition in a
    #: reconfigurable system (see :mod:`repro.registers.reconfig`).  They
    #: are clients like readers/writers, but their operations carry state
    #: transfer, not register semantics, so they get their own role.
    REPAIR = "repair"


_ROLE_PREFIX = {"object": "s", "writer": "w", "reader": "r", "repair": "q"}
#: Role → small int, so an identifier's hash is built from ints alone.
_ROLE_CODE = {"object": 0, "writer": 1, "reader": 2, "repair": 3}


@dataclass(frozen=True, slots=True)
class ProcessId:
    """Identifier of a process: a role plus an index within that role.

    Ordering is lexicographic on ``(role.value, index)`` which gives the
    deterministic iteration orders the simulator relies on.  ``<`` (and
    ``>`` by reflection) is hand-written: every terminated round sorts its
    repliers, and the dataclass-generated operators allocate two field
    tuples per comparison.  The hash is precomputed from ints only (the
    role through a small table), like :class:`Timestamp`'s: identifiers
    key the simulator's handler, reply and in-flight maps, and the
    generated hash builds a field tuple and hashes a string on every
    lookup.  Int-only also means process-independent — the cached value
    survives pickling into a worker started under another
    ``PYTHONHASHSEED``.
    """

    role_value: str
    index: int
    _hash: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        code = _ROLE_CODE.get(self.role_value, len(_ROLE_CODE))
        object.__setattr__(self, "_hash", hash((code, self.index)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not ProcessId:
            return NotImplemented
        return self.index == other.index and self.role_value == other.role_value

    def __lt__(self, other: "ProcessId") -> bool:
        if other.__class__ is not ProcessId:
            return NotImplemented
        role = self.role_value
        other_role = other.role_value
        return role < other_role or (role == other_role and self.index < other.index)

    def __str__(self) -> str:
        prefix = _ROLE_PREFIX[self.role_value]
        if self.role_value == "writer":
            return prefix
        return f"{prefix}{self.index}"


# The constructors below hand out one shared instance per identifier (an
# identifier is immutable and hashed from ints): a schedule search builds
# the same pool, writer and readers for every schedule it runs.


@cache
def object_id(index: int) -> ProcessId:
    """Identifier of storage object ``s_index`` (1-based, as in the paper)."""
    if index < 1:
        raise ValueError(f"object indices are 1-based, got {index}")
    return ProcessId(Role.OBJECT.value, index)


@cache
def writer_id() -> ProcessId:
    """Identifier of the unique writer ``w``."""
    return ProcessId(Role.WRITER.value, 0)


@cache
def reader_id(index: int) -> ProcessId:
    """Identifier of reader ``r_index`` (1-based, as in the paper)."""
    if index < 1:
        raise ValueError(f"reader indices are 1-based, got {index}")
    return ProcessId(Role.READER.value, index)


@cache
def repair_id(index: int) -> ProcessId:
    """Identifier of repair coordinator ``q_index`` (1-based, one per epoch step)."""
    if index < 1:
        raise ValueError(f"repair indices are 1-based, got {index}")
    return ProcessId(Role.REPAIR.value, index)


@cache
def object_ids(count: int) -> tuple[ProcessId, ...]:
    """Identifiers ``s_1 .. s_count``."""
    return tuple(object_id(i) for i in range(1, count + 1))


@cache
def reader_ids(count: int) -> tuple[ProcessId, ...]:
    """Identifiers ``r_1 .. r_count``."""
    return tuple(reader_id(i) for i in range(1, count + 1))


@dataclass(frozen=True, slots=True)
class Timestamp:
    """Logical timestamp ordering the writes of a run.

    For SWMR registers ``seq`` alone suffices (the single writer increments
    it).  The multi-writer transformation breaks ties with ``writer`` (the
    client index), giving the usual lexicographic MWMR order.  ``seq == 0``
    is reserved for the initial value ⊥.

    Ordering is lexicographic on ``(seq, writer)``.  ``>`` (and ``<`` by
    reflection) is hand-written rather than dataclass-generated: protocols
    compare timestamps once per delivered message (every STORE/WRITE
    handler runs ``incoming.ts > state[...].ts``), and the generated
    operators allocate two field tuples per comparison on that hot path.
    The hash is precomputed: voucher counting hashes timestamps (inside
    tagged values) several times per terminated round, and both fields are
    ints, so the cached value is process-independent (safe under pickling,
    unlike anything involving seeded string hashes).
    """

    seq: int
    writer: int = 0
    _hash: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.seq, self.writer)))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        # The dataclass-generated text, without its recursion guard: both
        # fields are ints, and the trace fingerprint reprs every timestamp
        # of every payload.
        return f"Timestamp(seq={self.seq!r}, writer={self.writer!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Timestamp:
            return NotImplemented
        return self.seq == other.seq and self.writer == other.writer

    def __gt__(self, other: "Timestamp") -> bool:
        if other.__class__ is not Timestamp:
            return NotImplemented
        seq = self.seq
        other_seq = other.seq
        return seq > other_seq or (seq == other_seq and self.writer > other.writer)

    @classmethod
    def zero(cls) -> "Timestamp":
        """The timestamp of the initial value ⊥ (one shared frozen instance)."""
        return _ZERO

    def next_for(self, writer: int = 0) -> "Timestamp":
        """Successor timestamp owned by ``writer``."""
        return Timestamp(self.seq + 1, writer)


_ZERO = Timestamp(0, 0)


@dataclass(frozen=True, slots=True)
class TaggedValue:
    """A value paired with the timestamp under which it was written."""

    ts: Timestamp
    value: Any

    def __repr__(self) -> str:
        # The dataclass-generated text (see Timestamp.__repr__).
        return f"TaggedValue(ts={self.ts!r}, value={self.value!r})"

    def __eq__(self, other: object) -> bool:
        # Hand-written for the voucher-counting hot path: the generated
        # dataclass __eq__ allocates two field tuples per comparison.
        if other.__class__ is not TaggedValue:
            return NotImplemented
        return self.ts == other.ts and self.value == other.value

    @classmethod
    def initial(cls) -> "TaggedValue":
        """The pair ``(ts=0, ⊥)`` every register starts from.

        One shared frozen instance: every object state and every empty
        candidate pool starts from it, once per multiplexed register.
        """
        return _INITIAL


_INITIAL = TaggedValue(_ZERO, BOTTOM)

_op_counter = itertools.count(1)


@dataclass(frozen=True, slots=True)
class OperationId:
    """Unique handle of one read or write operation instance.

    The hash is hand-written for the same reason as :class:`ProcessId`'s:
    every ``inflight[(op, round)]`` and ``by_op[op]`` lookup hashes one.  It
    covers client and serial only — ints, so process-independent — which
    the generated equality refines with the kind.
    """

    client: ProcessId
    kind: str  # "read" | "write"
    serial: int = field(default_factory=lambda: next(_op_counter))
    _hash: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.client._hash, self.serial)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{self.kind}[{self.client}#{self.serial}]"


def fresh_operation_id(client: ProcessId, kind: str) -> OperationId:
    """Allocate a process-unique operation identifier."""
    if kind not in ("read", "write", "repair"):
        raise ValueError(
            f"operation kind must be 'read', 'write' or 'repair', got {kind!r}"
        )
    return OperationId(client=client, kind=kind)


def reset_operation_serials(start: int = 1) -> None:
    """Restart the operation-serial counter at ``start``.

    Serials only need to be unique *within* one simulator instance; the
    process-global counter exists purely for convenience.
    """
    global _op_counter
    _op_counter = itertools.count(start)


@contextmanager
def scoped_operation_serials() -> Iterator[None]:
    """Run a block with serials starting at 1, then resume the outer count.

    Trial executors (:func:`repro.api.cluster.run_trial`) wrap each trial in
    this scope so a trial's history — including the operation ids surfaced
    in check explanations — is a pure function of its spec, byte-identical
    whether the trial runs in this process or in a worker.  On exit the
    counter resumes *past* its pre-scope watermark, so systems that were
    live before the scope keep allocating fresh serials (no duplicate
    operation ids in their histories).
    """
    watermark = next(_op_counter)
    reset_operation_serials()
    try:
        yield
    finally:
        reset_operation_serials(watermark + 1)

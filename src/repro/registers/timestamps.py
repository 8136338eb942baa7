"""Timestamp/candidate selection helpers shared by the Byzantine protocols.

Reply payloads of the Byzantine protocols carry one or more
:class:`~repro.types.TaggedValue` fields (``pw`` — pre-written, ``w`` —
written).  This module centralizes the selection arithmetic: extracting
candidates, counting vouchers, and the freshness maximum the correctness
arguments lean on.
"""

from __future__ import annotations

from typing import Iterable

from repro.sim.rounds import ReplySet
from repro.types import ProcessId, TaggedValue


def voucher_counts(
    replies: ReplySet, fields: tuple[str, ...] = ("pw", "w")
) -> dict[TaggedValue, int]:
    """How many distinct objects vouch for each tagged value.

    An object vouches for every tagged value appearing in either of the one
    or two payload fields named by ``fields``; it counts once per value even
    when the value appears in both.  The tally is a plain dict in
    first-vouched order (callers read its items, keys and values; a
    ``Counter`` would cost a Python call per new key).  This helper runs
    once per terminated round on read-heavy workloads, inside round
    predicates on some, so the fields are read directly.
    """
    if not 1 <= len(fields) <= 2:
        raise ValueError(f"voucher_counts takes one or two fields, got {fields!r}")
    first_field = fields[0]
    second_field = fields[1] if len(fields) == 2 else None
    tally: dict[TaggedValue, int] = {}
    for payload in replies.values():
        first = payload.get(first_field)
        if not isinstance(first, TaggedValue):
            first = None
        else:
            tally[first] = tally.get(first, 0) + 1
        if second_field is not None:
            second = payload.get(second_field)
            if isinstance(second, TaggedValue) and second != first:
                tally[second] = tally.get(second, 0) + 1
    return tally


def pooled_voucher_counts(
    reply_sets: Iterable[ReplySet], fields: tuple[str, str] = ("pw", "w")
) -> dict[TaggedValue, int]:
    """Voucher counts pooled across several rounds, over two payload fields.

    An object vouching for a value in *any* round counts once: pooling per
    ``(object, value)`` pair, as the bounded-read protocol requires (each
    additional round can only add new distinct vouchers).  Pooling state is
    a short per-object list instead of a set of (object, pair) tuples:
    objects report only a handful of distinct pairs per read, and the
    membership scan costs two cheap equality checks instead of a tuple
    allocation plus a deep nested hash.
    """
    first_field, second_field = fields
    seen_by_pid: dict[ProcessId, list[TaggedValue]] = {}
    tally: dict[TaggedValue, int] = {}
    for replies in reply_sets:
        for pid, payload in replies.items():
            pairs = seen_by_pid.get(pid)
            first = payload.get(first_field)
            if not isinstance(first, TaggedValue):
                first = None
            else:
                if pairs is None:
                    seen_by_pid[pid] = pairs = []
                if first not in pairs:
                    pairs.append(first)
                    tally[first] = tally.get(first, 0) + 1
            second = payload.get(second_field)
            if isinstance(second, TaggedValue) and second != first:
                if pairs is None:
                    seen_by_pid[pid] = pairs = []
                if second not in pairs:
                    pairs.append(second)
                    tally[second] = tally.get(second, 0) + 1
    return tally


def freshest_report(
    reply_sets: Iterable[ReplySet], fields: tuple[str, str] = ("pw", "w")
) -> TaggedValue:
    """``max_candidate(pooled_voucher_counts(reply_sets, fields).keys())``
    without the tally, for selection rules that trust every report.

    The same object, not just an equal one: the tally's keys are the first
    instance of each distinct pair in scan order, and the first report
    carrying the highest timestamp is the first instance of its pair.  One
    pass keeps it; a report that *is* the current best — objects store the
    writer's own instance, so most reports are — is skipped by identity.
    """
    first_field, second_field = fields
    best = TaggedValue.initial()
    for replies in reply_sets:
        for payload in replies.values():
            report = payload.get(first_field)
            if report is not best and isinstance(report, TaggedValue) and report.ts > best.ts:
                best = report
            report = payload.get(second_field)
            if report is not best and isinstance(report, TaggedValue) and report.ts > best.ts:
                best = report
    return best


def certified_max(counts: dict[TaggedValue, int], certify: int) -> TaggedValue:
    """The selection rule: the highest pair at least ``certify`` objects
    vouch for, else the highest pair anyone reported.

    ``counts`` is a voucher tally (:func:`voucher_counts`,
    :func:`pooled_voucher_counts`); ``(0, ⊥)`` when it is empty.
    """
    certified = [pair for pair, n in counts.items() if n >= certify]
    return max_candidate(certified if certified else counts.keys())


def max_candidate(candidates: Iterable[TaggedValue]) -> TaggedValue:
    """Highest-timestamp candidate; ``(0, ⊥)`` when the pool is empty."""
    best = TaggedValue.initial()
    for pair in candidates:
        if pair.ts > best.ts:
            best = pair
    return best

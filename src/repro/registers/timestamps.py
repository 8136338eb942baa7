"""Timestamp/candidate selection helpers shared by the Byzantine protocols.

Reply payloads of the Byzantine protocols carry one or more
:class:`~repro.types.TaggedValue` fields (``pw`` — pre-written, ``w`` —
written).  This module centralizes the selection arithmetic: extracting
candidates, counting vouchers, and the freshness maximum the correctness
arguments lean on.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable, Mapping

from repro.sim.rounds import ReplySet
from repro.types import ProcessId, TaggedValue


def reported_pairs(payload: Mapping[str, Any], fields: Iterable[str]) -> list[TaggedValue]:
    """The tagged values a single reply vouches for."""
    pairs = []
    for name in fields:
        value = payload.get(name)
        if isinstance(value, TaggedValue):
            pairs.append(value)
    return pairs


def voucher_counts(replies: ReplySet, fields: Iterable[str] = ("pw", "w")) -> Counter:
    """How many distinct objects vouch for each tagged value.

    An object vouches for every tagged value appearing in any of the given
    payload fields of its reply; it counts once per value even when the value
    appears in both fields.
    """
    fields = tuple(fields)
    if 1 <= len(fields) <= 2:
        # Every caller passes at most two fields; counting them directly
        # skips the per-payload list and set allocations of the general
        # path (this helper runs once per terminated round on read-heavy
        # workloads, inside round predicates on some).  Tallying goes
        # through a plain dict — ``Counter.__missing__`` costs a Python
        # call per new key — and is wrapped as a Counter at the end.
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
        return Counter(tally)
    counts: Counter = Counter()
    for payload in replies.values():
        for pair in set(reported_pairs(payload, fields)):
            counts[pair] += 1
    return counts


def pooled_voucher_counts(
    reply_sets: Iterable[ReplySet], fields: Iterable[str] = ("pw", "w")
) -> Counter:
    """Voucher counts pooled across several rounds.

    An object vouching for a value in *any* round counts once: pooling per
    ``(object, value)`` pair, as the bounded-read protocol requires (each
    additional round can only add new distinct vouchers).
    """
    fields = tuple(fields)
    if len(fields) == 2:
        # Two-field fast path, same reasoning as :func:`voucher_counts`.
        # Pooling state is a short per-object list instead of a set of
        # (object, pair) tuples: objects report only a handful of distinct
        # pairs per read, and the membership scan costs two cheap equality
        # checks instead of a tuple allocation plus a deep nested hash.
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
        return Counter(tally)
    counts: Counter = Counter()
    seen: set[tuple[ProcessId, TaggedValue]] = set()
    for replies in reply_sets:
        for pid, payload in replies.items():
            for pair in set(reported_pairs(payload, fields)):
                if (pid, pair) not in seen:
                    seen.add((pid, pair))
                    counts[pair] += 1
    return counts


def max_candidate(candidates: Iterable[TaggedValue]) -> TaggedValue:
    """Highest-timestamp candidate; ``(0, ⊥)`` when the pool is empty."""
    best = TaggedValue.initial()
    for pair in candidates:
        if pair.ts > best.ts:
            best = pair
    return best

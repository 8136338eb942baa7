#!/usr/bin/env python3
"""Assert that a searched schedule pays for its own run and nothing else.

    PYTHONPATH=src python .github/scripts/assert_schedule_work.py

Explores the e2e benchmark's certify cell — fast-regular at ``t=1``, a write
and two reads, round granularity, three holds deep — and checks three counts,
no clock, that a configuration fixes once, whatever the schedule count:

* ``HoldLink`` constructions ≤ the links the search discovered plus the
  decisions it was given (none: a search starts from the empty schedule) —
  a reported link is built and validated once, not once per schedule;
* ``ConfigurationError`` s raised while building a schedule's system: none
  after the root's (sizing the system is derived once per configuration);
* ``ProcessId`` constructions while building and running a schedule: none
  after the root's (the pool, writer and reader identifiers are shared).
"""

from __future__ import annotations

import sys
from unittest import mock

from repro.api import Cluster
from repro.errors import ConfigurationError
from repro.explore import HoldLink, engine
from repro.explore.controlled import _boundary_link
from repro.types import ProcessId

OPERATIONS = [("write", "v1", 0), ("read", 1, 120), ("read", 2, 240)]
BOUNDS = {"max_holds": 3, "granularity": "round", "max_schedules": 20000}


def counting(cls: type, counts: dict[str, int], name: str) -> mock._patch:
    """Patch ``cls.__init__`` or ``cls.__post_init__`` to count instances."""
    hook = "__post_init__" if "__post_init__" in vars(cls) else "__init__"
    original = getattr(cls, hook)

    def counted(self, *args, **kwargs):
        counts[name] += 1
        return original(self, *args, **kwargs)

    return mock.patch.object(cls, hook, counted)


def main() -> int:
    cluster = Cluster("fast-regular", t=1).with_operations(OPERATIONS)
    counts = {"links": 0, "errors": 0, "ids": 0}
    per_schedule: list[tuple[int, int]] = []
    simulate = engine.simulate

    def simulate_counted(probe):
        before = (counts["errors"], counts["ids"])
        record = simulate(probe)
        per_schedule.append((counts["errors"] - before[0], counts["ids"] - before[1]))
        return record

    _boundary_link.cache_clear()
    with counting(HoldLink, counts, "links"), \
            counting(ConfigurationError, counts, "errors"), \
            counting(ProcessId, counts, "ids"), \
            mock.patch.object(engine, "simulate", simulate_counted):
        result = cluster.explore(**BOUNDS)
    assert result.certified, "the certify cell no longer certifies"
    schedules = result.stats.explored
    assert len(per_schedule) == schedules, (len(per_schedule), schedules)
    discovered = _boundary_link.cache_info().currsize
    assert counts["links"] <= discovered, (
        f"{counts['links']} HoldLinks built for {discovered} discovered links: "
        "a link is rebuilt per schedule"
    )
    (root_errors, root_ids), *rest = per_schedule
    errors = sum(e for e, _ in rest)
    ids = sum(i for _, i in rest)
    assert errors == 0, (
        f"{errors} ConfigurationErrors raised building {len(rest)} schedules "
        "after the root: the system is sized per schedule"
    )
    assert ids == 0, (
        f"{ids} ProcessIds built over {len(rest)} schedules after the root: "
        "identifiers are rebuilt per schedule"
    )
    print(
        f"schedule work OK: {schedules} schedules, alphabet {result.alphabet}; "
        f"{counts['links']} HoldLinks built for {discovered} discovered links; "
        f"root: {root_errors} ConfigurationErrors, {root_ids} ProcessIds; "
        f"after the root: {errors} and {ids}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

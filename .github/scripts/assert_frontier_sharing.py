#!/usr/bin/env python3
"""Assert that a frontier's rungs share their simulations and nothing else.

    PYTHONPATH=src python .github/scripts/assert_frontier_sharing.py

Walks the robustness smoke's configuration — the fast-read stack sized for
``t=1`` with two stale objects behind inert ``timed()`` wrappers, three holds
deep — and checks two counts, no clock: the walk simulated at most half of the
schedules it judged (``simulated * 2 <= schedules``), and every evaluated
rung's payload equals the standalone ``with_checks(model).explore(...)`` of
the same bounds, so the sharing changed no statistic, witness or trace hash.
"""

from __future__ import annotations

import sys

from repro.api import Cluster

BOUNDS = {"max_holds": 3, "max_schedules": 3000}


def main() -> int:
    cluster = (
        Cluster("atomic-fast-regular", t=1, S=4, allow_overfault=True)
        .with_faults("timed", count=2, inner="stale-echo", at=99)
        .with_operations([("write", "v1", 0), ("read", 1, 100)])
    )
    result = cluster.frontier(**BOUNDS)
    assert result.strongest == "k-atomic(2)", result.strongest
    assert result.simulated * 2 <= result.schedules, (
        f"{result.simulated} simulated for {result.schedules} judged: "
        "the rungs no longer share their simulations"
    )
    for model, rung in result.results.items():
        alone = cluster.with_checks(model).explore(fault_timing=True, **BOUNDS)
        assert rung.to_dict() == alone.to_dict(), (
            f"the {model} rung differs from its standalone exploration"
        )
    print(
        f"frontier sharing OK: {result.schedules} schedules judged over "
        f"{len(result.results)} rungs, {result.simulated} simulated"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Backend tour: the same harness driving MWMR and sharded clusters.

``examples/quickstart.py`` runs one SWMR register on the default ``single``
backend.  This script runs the two other built-in backends through the
*same* ``Cluster`` pipeline:

1. **multi-writer** — the paper's closing construction (Section 5): the
   SWMR→MWMR transformation stacked on the regular→atomic transform, so a
   family of three writers shares one atomic register built from Byzantine
   regular registers.  Round accounting: reads cost r + w = 4 rounds,
   writes (r + w) + w = 6 over the GV06 substrate.
2. **sharded** — a keyspace-sharding composite: eight named registers, one
   ABD instance each, every shard multiplexed over the *same* 2t + 1
   physical objects, with a Zipf-skewed workload hammering the first keys.
   Atomicity is checked per key and aggregated.

Both runs survive one stale-echo (Byzantine replay) object — the faulty
*physical* object is shared by every logical register at once.

Run:  python examples/backends_tour.py
"""

import json

from repro.api import Cluster


def multi_writer_demo() -> None:
    result = (
        Cluster("mwmr-fast-regular", t=1, n_readers=2, n_writers=3)
        .with_faults("stale-echo", count=1)
        .with_workload(operations=8, spacing=120)
        .check("atomicity")
        .run(trials=2, seed=11)
    )
    print(result.render())
    assert result.ok
    assert result.worst_write == 6 and result.worst_read == 4
    print("multi-writer OK — 3 writers, linearizable, 6W/4R as advertised\n")


def sharded_demo() -> None:
    result = (
        Cluster("abd", t=1, n_readers=3, backend="sharded", keys=8)
        .with_faults("crash", count=1)
        .with_workload(operations=24, spacing=40, key_skew=1.2)
        .check("atomicity")
        .run(trials=2, seed=23)
    )
    print(result.render())
    verdict = result.trials[0].checks["atomicity"]
    hot = sum(1 for record in result.trials[0].history.records)
    print(f"per-key verdicts: {verdict.per_key}")
    print(f"operations across shards: {hot}")
    assert result.ok
    assert verdict.per_key is not None and len(verdict.per_key) == 8
    assert result.worst_write == 1 and result.worst_read == 2  # ABD, per shard
    print("sharded OK — 8 shards on 3 physical objects, atomic per key\n")


def recovery_demo() -> None:
    """Durable object state: a crash-recovering object rejoins mid-run.

    ``durability="mem"`` journals every object's state through the
    write-ahead storage seam; the ``crash-recover`` fault then crashes one
    object after four deliveries, swallows two more while it is dark, and
    rejoins it from the replayed journal.  With eager sync the rejoined
    object is exactly as stale as what it acknowledged — ABD's quorums
    mask the outage and atomicity holds.  Durable trials also carry the
    retained-space meter: journal bytes before and after compacting to the
    newest record per key.
    """
    result = (
        Cluster("abd", t=1, n_readers=2, durability="mem")
        .with_faults("crash-recover", survive_messages=4, rejoin_after=2)
        .with_workload(operations=10, spacing=40)
        .check("atomicity")
        .run(trials=2, seed=31)
    )
    print(result.render())
    assert result.ok
    meter = result.trials[0].storage
    print(f"retained: {meter['retained_bytes']} journal bytes, "
          f"{meter['retained_timestamps']} distinct timestamp(s); after GC "
          f"{meter['gc_retained_bytes']} bytes, "
          f"{meter['gc_retained_timestamps']} timestamp(s) "
          f"({meter['gc_freed_bytes']} bytes of superseded history freed)")
    assert meter["gc_retained_bytes"] < meter["retained_bytes"]
    print("recovery OK — object crashed, rejoined from its journal, run stayed atomic\n")


def churn_demo() -> None:
    """Reconfiguration under churn: every original object replaced once.

    The ``reconfig`` backend advances membership through explicit epochs.
    ``rolling-replace`` permanently kills s1, then s2, then s3 (staggered,
    so at most t = 1 machine is down at any instant — hence
    ``allow_overfault``); each ``with_repairs`` step retires the dead
    member with an online state-transfer round (read a quorum of the old
    epoch, install the newest state per key on a pre-provisioned spare)
    and activates the next epoch while reads and writes keep flowing.
    Repairs are ordinary two-round client operations, accounted separately
    from reads and writes.
    """
    result = (
        Cluster("abd", t=1, S=3, backend="reconfig", allow_overfault=True)
        .with_faults("rolling-replace", count=3, base=4, stagger=8)
        .with_repairs((1, 40), (2, 110), (3, 180))
        .with_workload(operations=9, reads=0.5, spacing=30)
        .check("atomicity")
        .run(trials=2, seed=3)
    )
    print(result.render())
    assert result.ok and result.incomplete == 0
    for trial in result.trials:
        assert trial.repair_rounds == [2, 2, 2]  # transfer read + install, ×3
    print("churn OK — three permanent losses repaired online, run stayed atomic\n")


def spectrum_demo() -> None:
    """The consistency spectrum: measured staleness for k ∈ {1, 2, 4}.

    The ``k-atomic`` backend serves every read from a view that lags the
    atomic inner register by at most k − 1 completed writes.  Under a
    Zipf-skewed workload the staleness distribution (per read: how many
    completed writes the returned value trails by) shows the knob working:
    the max never reaches k, and ``k-atomic(1)`` is indistinguishable from
    the atomic baseline.  Every run is certified against its own bound by
    the spectrum checker — and the k = 4 run *fails* plain atomicity, which
    is the point.
    """
    from collections import Counter

    from repro.consistency import read_staleness

    baseline = (
        Cluster("abd", t=1, n_readers=3)
        .with_workload(operations=24, spacing=20)
        .check("atomicity")
        .run(trials=1, seed=5)
    )
    print(f"  atomic baseline: worst read {baseline.worst_read} round(s), "
          f"staleness 0 by definition")
    for k in (1, 2, 4):
        result = (
            Cluster("abd", t=1, n_readers=3, consistency=f"k-atomic({k})")
            .with_workload(operations=24, spacing=20)
            .check(f"k-atomic({k})")
            .run(trials=1, seed=5, keep_history=True)
        )
        assert result.ok
        stats = result.trials[0].staleness
        samples = [s for s in read_staleness(result.trials[0].history) if s is not None]
        histogram = "  ".join(
            f"{lag}:{'█' * count}" for lag, count in sorted(Counter(samples).items())
        )
        print(f"  k-atomic({k})    : max={stats['max']} mean={stats['mean']} "
              f"p99={stats['p99']}  |  {histogram}")
        assert stats["max"] <= k - 1
    skewed = (
        Cluster("abd", t=1, n_readers=3, consistency="k-atomic(4)", keys=4)
        .with_workload(operations=24, spacing=25, key_skew=1.2)
        .check("k-atomic(4)", "atomicity")
        .run(trials=1, seed=5)
    )
    per_key = skewed.trials[0].staleness["per_key"]
    print("  Zipf-skewed, 4 shards, k=4: per-key staleness "
          + "  ".join(f"{key}: max={s['max']} mean={s['mean']}"
                      for key, s in sorted(per_key.items())))
    assert skewed.trials[0].checks["k-atomic(4)"].ok
    assert not skewed.trials[0].checks["atomicity"].ok
    print("spectrum OK — staleness bounded by k-1 at every k, "
          "and the k-atomic(4) view measurably violates atomicity\n")


def observability_demo() -> None:
    """The observe axis: spans, metrics, and a Perfetto-loadable timeline.

    ``observe=True`` arms the virtual clock on every fault behavior and
    journal, then derives per-operation/per-round spans and a named-metric
    registry from the run's own deterministic bookkeeping — so the dumps
    are byte-identical across serial and parallel execution,
    and an unobserved run's output is untouched.  The same derivation
    backs ``repro run --spans/--metrics/--timeline`` and ``repro stats``.
    """
    import io

    from repro.obs import summarize_spans, write_chrome_trace

    result = (
        Cluster("abd", t=1, n_readers=2, durability="mem", observe=True)
        .with_faults("crash-recover", survive_messages=4, rejoin_after=2)
        .with_workload(operations=10, spacing=40)
        .check("atomicity")
        .run(trials=2, seed=31)
    )
    assert result.ok
    records = [
        dict(span, trial=trial.trial)
        for trial in result.trials
        for span in trial.obs["spans"]
    ]
    print(summarize_spans(records))
    metrics = {m["metric"]: m for m in result.trials[0].obs["metrics"]}
    wait = metrics["quorum.wait"]
    print(f"  quorum wait: mean={wait['mean']} p99={wait['p99']} over {wait['count']} rounds")
    print(f"  journal syncs: {metrics['journal.sync.count']['value']} "
          f"({metrics['journal.sync.bytes']['value']} bytes)")
    sink = io.StringIO()
    write_chrome_trace(
        [(t.trial, f"trial {t.trial}", t.obs["spans"]) for t in result.trials], sink
    )
    events = json.loads(sink.getvalue())["traceEvents"]
    recoveries = [e for e in events if e.get("name") == "down"]
    assert recoveries, "the crash window should appear on the timeline"
    print(f"  timeline: {len(events)} Chrome trace events "
          f"({len(recoveries)} recovery window(s)) — load the JSON in Perfetto")
    print("observability OK — spans, metrics and timeline derived with zero "
          "effect on the run itself\n")


def frontier_demo() -> None:
    """The robustness frontier: which model survives an over-budget adversary?

    A ``t=1`` fast-read stack is handed *two* stale objects — one active
    from the start, one wrapped in ``timed(...)`` so its staleness only
    exists at a trigger point the explorer sweeps as a schedule choice.
    ``Cluster.frontier`` walks the checker ladder: atomicity is refuted
    with a minimized witness whose decisions mix held links and fault
    triggers, and k-atomic(2) is certified over the same bounded space —
    graceful degradation, measured instead of assumed.
    """
    cluster = (
        Cluster("atomic-fast-regular", t=1, S=4, allow_overfault=True)
        .with_faults("stale-echo", count=1)
        .with_faults("timed", count=1, inner="stale-echo", at=99)
        .with_operations([("write", "v1", 0), ("read", 1, 100)])
    )
    result = cluster.frontier(max_holds=2, max_schedules=3000)
    print(result.render())
    assert result.outcomes["atomicity"] == "refuted"
    assert result.strongest == "k-atomic(2)" and result.certified
    assert result.witness is not None
    assert any(d.to_json()[0] == "fault" for d in result.witness.decisions), \
        "the separating schedule should fire a fault trigger"
    outcome = result.witness.replay()
    assert result.witness.reproduces(outcome)
    print("frontier OK — atomicity refuted by a fault-timing choice point, "
          "k-atomic(2) certified for the same over-budget cluster\n")


def main() -> None:
    multi_writer_demo()
    sharded_demo()
    recovery_demo()
    churn_demo()
    spectrum_demo()
    observability_demo()
    frontier_demo()
    print("backend tour OK — one harness API, five cluster shapes, "
          "durable recovery, online repair, a consistency spectrum, built-in "
          "observability and a certified robustness frontier")


if __name__ == "__main__":
    main()

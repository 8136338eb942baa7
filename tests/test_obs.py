"""Tests for the observability layer: spans, metrics, exporters, parity."""

import hashlib
import io
import json
import pathlib

import pytest

from repro.api import Cluster, get_spec
from repro.explore import HoldLink
from repro.explore.controlled import ControlledDelivery
from repro.obs import (
    MetricsRegistry,
    chrome_trace_events,
    derive_metrics,
    derive_spans,
    dump_metrics_jsonl,
    dump_spans_jsonl,
    summarize_spans,
    write_chrome_trace,
)
from repro.registers.base import RegisterSystem
from repro.types import scoped_operation_serials
from repro.workloads.generator import OperationPlan

TIMELINE_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "benchmarks" / "timelines" / "reconfig_churn_timeline.json"
)


def churn_cluster(observe=True):
    """The reconfig churn configuration the committed timeline pins."""
    return (
        Cluster("abd", t=1, S=3, backend="reconfig", allow_overfault=True,
                observe=observe)
        .with_faults("rolling-replace", count=3, base=4, stagger=8)
        .with_repairs((1, 40), (2, 110), (3, 180))
        .with_workload(operations=9, reads=0.5, spacing=30)
        .check("atomicity")
    )


# One representative configuration per subsystem the span layer reads:
# a plain protocol, a crash-recover fault with durable journals, a
# reconfig repair, and a k-atomic (bounded-stale) trial.
GRID = {
    "plain": lambda: Cluster("abd", t=1, observe=True)
        .with_workload(operations=8).check("atomicity"),
    "crash-recover": lambda: Cluster("abd", t=1, observe=True, durability="mem")
        .with_faults("crash-recover", survive_messages=4)
        .with_workload(operations=8).check("atomicity"),
    "reconfig-churn": churn_cluster,
    "k-atomic": lambda: Cluster("abd", t=1, consistency="k-atomic(2)",
                                observe=True)
        .with_workload(operations=8).check("k-atomic(2)"),
}


def obs_dump(result):
    """The byte-comparable observability payload of a run (no wall clock)."""
    return json.dumps(
        [[t.obs["spans"], t.obs["metrics"], t.obs["events"]] for t in result.trials],
        sort_keys=True,
    )


class TestCrossEngineParity:
    @pytest.mark.parametrize("config", sorted(GRID))
    def test_span_and_metric_dumps_identical_across_engines(self, config, reference_engine):
        production = obs_dump(GRID[config]().run(trials=2, seed=3))
        with reference_engine():
            assert obs_dump(GRID[config]().run(trials=2, seed=3)) == production

    @pytest.mark.parametrize("config", sorted(GRID))
    def test_span_and_metric_dumps_identical_serial_vs_parallel(self, config):
        serial = GRID[config]().run(trials=2, seed=3, parallel=False)
        parallel = GRID[config]().run(trials=2, seed=3, parallel=True)
        assert obs_dump(serial) == obs_dump(parallel)


def _digest(dump):
    return hashlib.sha256(dump.encode()).hexdigest()


class TestBothRecordShapes:
    """A terminated round keeps only its summary and a round still
    collecting keeps its spec and replies: spans and metrics read both
    shapes to the bytes they had when every round kept everything."""

    def test_a_held_schedule_ending_with_a_round_still_collecting(self):
        # The write never reaches s1 and s2, so its one round ends the run
        # collecting (2 of the 3 acks); both reads terminate every round.
        system = RegisterSystem(
            get_spec("fast-regular").build(), t=1, S=4,
            policy=ControlledDelivery([HoldLink(1, 1), HoldLink(1, 2)]),
        )
        with scoped_operation_serials():
            system.schedule(OperationPlan(kind="write", client_index=1, value="v1", at=0))
            system.schedule(OperationPlan(kind="read", client_index=1, value=None, at=120))
            system.schedule(OperationPlan(kind="read", client_index=2, value=None, at=130))
            events = system.run()
        write, *reads = system.simulator.operations
        (collecting,) = write.rounds
        assert not collecting.terminated and collecting.spec is not None
        assert len(collecting.replies) == 2
        assert all(record.terminated for read in reads for record in read.rounds)
        spans = derive_spans(system.simulator, system.trace)
        metrics = derive_metrics(spans, system.trace, events=events)
        system.close()
        assert _digest(json.dumps([spans, metrics], sort_keys=True)) == (
            "f9ea315892ce647ba39fa03022642210c6e68b9ed65cfbead5de87192ecdddbe"
        )

    def test_an_observed_durable_crash_recover_trial(self):
        result = (
            Cluster("abd", t=1, n_readers=3, durability="dir", observe=True)
            .with_faults("crash-recover", count=1)
            .with_workload(operations=20, reads=0.3, spacing=30)
            .check("atomicity")
            .run(trials=2, seed=11)
        )
        assert _digest(obs_dump(result)) == (
            "638a7f4a1e7c322fb7b588498e17b6425a1c452c402c195f622671b350f33a49"
        )


class TestOffState:
    def test_disabled_result_is_byte_identical_to_an_unobserved_run(self):
        def run(**kwargs):
            return (
                Cluster("abd", t=1, **kwargs)
                .with_faults("crash")
                .with_workload(operations=8)
                .check("atomicity")
                .run(trials=2, seed=5)
            )

        baseline = json.dumps(run().to_dict(), sort_keys=True)
        explicit_off = json.dumps(run(observe=False).to_dict(), sort_keys=True)
        assert baseline == explicit_off
        assert '"events"' not in baseline and '"elapsed_s"' not in baseline

    def test_observe_surfaces_events_and_duration(self):
        result = (
            Cluster("abd", t=1, observe=True)
            .with_workload(operations=6)
            .check("atomicity")
            .run(trials=1, seed=1)
        )
        payload = result.trials[0].to_dict()
        assert payload["events"] == result.trials[0].obs["events"] > 0
        assert payload["elapsed_s"] >= 0.0
        # The deterministic keys are unchanged: popping the two new ones
        # recovers the unobserved payload exactly.
        off = (
            Cluster("abd", t=1)
            .with_workload(operations=6)
            .check("atomicity")
            .run(trials=1, seed=1)
        )
        payload.pop("events")
        payload.pop("elapsed_s")
        assert payload == off.trials[0].to_dict()

    def test_phase_seconds_ride_beside_the_duration_and_in_no_dump(self):
        result = GRID["crash-recover"]().run(trials=2, seed=1)
        for trial in result.trials:
            phases = trial.obs["phases_s"]
            assert list(phases) == [
                "build", "plan", "schedule", "drain", "account",
                "freeze", "check", "meter", "derive",
            ]
            assert all(seconds >= 0.0 for seconds in phases.values())
            assert phases["drain"] == trial.obs["elapsed_s"]
        # Host time: not in the serialized result, not in span/metric dumps.
        assert "phases_s" not in json.dumps(result.to_dict())
        assert "phases_s" not in obs_dump(result)
        # And absent, with the rest of obs, from an unobserved trial.
        off = Cluster("abd", t=1).with_workload(operations=4).run(trials=1)
        assert off.trials[0].obs is None


class TestSpanContent:
    def test_op_spans_follow_invocation_order_with_round_children(self):
        result = GRID["plain"]().run(trials=1, seed=3)
        spans = result.trials[0].obs["spans"]
        ops = [s for s in spans if s["span"] == "op"]
        rounds = [s for s in spans if s["span"] == "round"]
        # Per-client, spans follow invocation order.
        for client in {o["client"] for o in ops}:
            starts = [o["start"] for o in ops if o["client"] == client]
            assert starts == sorted(starts)
        for op in ops:
            children = [
                r for r in rounds
                if (r["client"], r["serial"]) == (op["client"], op["serial"])
            ]
            assert len(children) == op["rounds"]
            for child in children:
                assert op["start"] <= child["start"]
                assert child["end"] - child["start"] == child["wait"] > 0
                assert child["replies"] >= child["needed"]
                assert child["destinations"] == ["s1", "s2", "s3"]

    def test_recovery_window_spans_crash_to_rejoin(self):
        result = GRID["crash-recover"]().run(trials=1, seed=3)
        spans = result.trials[0].obs["spans"]
        recoveries = [s for s in spans if s["span"] == "recovery"]
        assert len(recoveries) == 1
        window = recoveries[0]
        assert window["behavior"].startswith("crash-recover")
        assert window["end"] > window["start"]

    def test_sync_spans_account_every_journal_byte(self):
        result = GRID["crash-recover"]().run(trials=1, seed=3)
        trial = result.trials[0]
        syncs = [s for s in trial.obs["spans"] if s["span"] == "sync"]
        assert syncs
        metrics = {m["metric"]: m for m in trial.obs["metrics"]}
        assert metrics["journal.sync.count"]["value"] == len(syncs)
        assert metrics["journal.sync.bytes"]["value"] == sum(s["bytes"] for s in syncs)

    def test_repair_rounds_carry_transfer_and_install_phases(self):
        result = churn_cluster().run(trials=1, seed=3)
        phased = [
            s for s in result.trials[0].obs["spans"]
            if s["span"] == "round" and "phase" in s
        ]
        assert [(s["phase"], s["start"]) for s in phased] == [
            ("transfer", 40), ("install", 42),
            ("transfer", 110), ("install", 112),
            ("transfer", 180), ("install", 182),
        ]
        installs = [s for s in phased if s["phase"] == "install"]
        assert all(s["needed"] == 1 and len(s["destinations"]) == 1 for s in installs)

    def test_staleness_metric_present_only_for_non_atomic_models(self):
        atomic = GRID["plain"]().run(trials=1, seed=3)
        bounded = GRID["k-atomic"]().run(trials=1, seed=3)
        atomic_names = {m["metric"] for m in atomic.trials[0].obs["metrics"]}
        bounded_names = {m["metric"] for m in bounded.trials[0].obs["metrics"]}
        assert "staleness.lag" not in atomic_names
        assert "staleness.lag" in bounded_names


class TestMetricsRegistry:
    def test_snapshot_has_exact_counters_and_nearest_rank_quantiles(self):
        registry = MetricsRegistry()
        registry.count("ops.read", 7)
        registry.count("ops.read", 3)
        samples = [(i * 37) % 101 for i in range(512)]
        for sample in samples:
            registry.observe("quorum.wait", sample)
        ordered = sorted(samples)
        assert registry.snapshot() == [
            {"metric": "ops.read", "type": "counter", "value": 10},
            {"metric": "quorum.wait", "type": "histogram", "count": 512,
             "sum": sum(samples), "min": 0, "max": 100,
             "mean": round(sum(samples) / 512, 6),
             "p50": ordered[255], "p90": ordered[460], "p99": ordered[506]},
        ]


class TestExporters:
    def test_jsonl_dumps_merge_extras_and_sort_keys(self):
        result = GRID["plain"]().run(trials=1, seed=3)
        trial = result.trials[0]
        spans_sink, metrics_sink = io.StringIO(), io.StringIO()
        n_spans = dump_spans_jsonl(trial.obs["spans"], spans_sink, extra={"trial": 0})
        n_metrics = dump_metrics_jsonl(trial.obs["metrics"], metrics_sink, extra={"trial": 0})
        span_lines = spans_sink.getvalue().splitlines()
        assert n_spans == len(span_lines) == len(trial.obs["spans"])
        assert n_metrics == len(metrics_sink.getvalue().splitlines())
        for line in span_lines:
            record = json.loads(line)
            assert record["trial"] == 0
            assert list(record) == sorted(record)

    def test_chrome_trace_events_cover_every_span(self):
        result = GRID["crash-recover"]().run(trials=1, seed=3)
        spans = result.trials[0].obs["spans"]
        events = chrome_trace_events(spans, pid=4, label="x")
        named_tracks = [e for e in events if e["ph"] == "M" and e["name"] == "thread_name"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert all(e["pid"] == 4 for e in events)
        assert len(instants) == sum(1 for s in spans if s["span"] == "sync")
        assert len(complete) == sum(1 for s in spans if s["span"] != "sync")
        # Track order: writer first, then readers, then objects.
        track_names = [e["args"]["name"] for e in named_tracks]
        assert track_names[0] == "w"
        roles = [name[0] for name in track_names]
        assert roles == sorted(roles, key="wrqs".index)
        for event in complete:
            assert event["dur"] >= 0

    def test_summarize_spans_renders_one_row_per_trial(self):
        result = GRID["plain"]().run(trials=2, seed=3)
        records = [
            dict(span, trial=trial.trial)
            for trial in result.trials
            for span in trial.obs["spans"]
        ]
        table = summarize_spans(records)
        lines = table.splitlines()
        assert len(lines) == 5  # title, header, rule, two trial rows
        assert lines[3].startswith("0") and lines[4].startswith("1")


class TestCommittedTimeline:
    def test_churn_timeline_artifact_matches_a_fresh_run(self):
        result = churn_cluster().run(trials=2, seed=3)
        sink = io.StringIO()
        write_chrome_trace(
            [
                (trial.trial, f"trial {trial.trial} — reconfig churn",
                 trial.obs["spans"])
                for trial in result.trials
            ],
            sink,
        )
        assert sink.getvalue() == TIMELINE_PATH.read_text(encoding="utf-8")

    def test_timeline_places_repair_phases_at_their_virtual_times(self):
        document = json.loads(TIMELINE_PATH.read_text(encoding="utf-8"))
        repairs = sorted(
            (e["pid"], e["ts"], e["name"])
            for e in document["traceEvents"]
            if e.get("name", "").startswith("repair:")
        )
        expected = sorted(
            (pid, ts, name)
            for pid in (0, 1)
            for ts, name in (
                (40, "repair:transfer"), (42, "repair:install"),
                (110, "repair:transfer"), (112, "repair:install"),
                (180, "repair:transfer"), (182, "repair:install"),
            )
        )
        assert repairs == expected


class TestWitnessObserveField:
    def test_witness_round_trips_the_observe_flag(self):
        from repro.explore.engine import ScheduleProbe
        from repro.explore.witness import ScheduleWitness

        probe = ScheduleProbe(
            protocol="abd",
            protocol_kwargs=(),
            t=1,
            S=None,
            n_readers=1,
            n_writers=1,
            keys=("x",),
            backend="mem",
            allow_overfault=False,
            scenario=None,
            fault_groups=(),
            plans=(),
            checks=("atomicity",),
            observe=True,
        )
        witness = ScheduleWitness(
            probe=probe, decisions=(), discovered=(),
            failures=(("atomicity", "x"),), trace_hash="00" * 12,
        )
        data = witness.to_dict()
        assert data["observe"] is True
        assert ScheduleWitness.from_dict(data).probe.observe is True
        data.pop("observe")
        assert ScheduleWitness.from_dict(data).probe.observe is False

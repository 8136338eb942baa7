"""Robustness frontier + fault-timing choice points (repro.robustness).

Covers the decision vocabulary (HoldLink + FaultTrigger under one
``Decision`` umbrella), the explorer's swept trigger points, symmetry
reduction, and the certified cross-model frontier: abd certifies
atomicity at its resilience bound while the under-provisioned fast-read
stack is refuted at atomicity and lands — with a minimized, replayable
witness — at k-atomic(2).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import Cluster, available_faults, fault_spec
from repro.api.cluster import sweep
from repro.axes import SearchBounds
from repro.errors import ConfigurationError
from repro.explore import (
    ControlledDelivery,
    FaultTrigger,
    HoldLink,
    canonical_decisions,
    decision_from_json,
)
from repro.robustness import FrontierResult, model_ladder, robustness_frontier
from repro.sim.tracing import trace_fingerprint

#: Every registered behaviour the ``timed`` wrapper can defer.
TIMED_INNER = tuple(name for name in available_faults() if name != "timed")
#: Behaviours that deviate once, ``survive_messages`` deliveries in.  (``flap``
#: shares the knob but also spaces its later cycles with it, so zeroing the
#: knob under ``timed`` is not the same run.)
SURVIVE_ONCE = ("crash", "crash-recover", "fsync-lag", "perm-crash", "torn-write")
TIMED_OPS = [("write", "v1", 0), ("read", 1, 40), ("write", "v2", 90),
             ("read", 2, 130), ("read", 1, 200)]


def underprovisioned_cluster() -> Cluster:
    """Two always-stale objects on a 3t+1 stack sized for one."""
    return (
        Cluster("atomic-fast-regular", t=1, S=4, allow_overfault=True)
        .with_faults("stale-echo", count=2)
        .with_operations([("write", "v1", 0), ("read", 1, 100)])
    )


def wire(*faults):
    """Trace fingerprint and history of one abd trial of :data:`TIMED_OPS`
    with one object per ``(name, kwargs)`` fault, on durable object state
    so the recovery family can run."""
    cluster = Cluster("abd", t=1, n_readers=2, durability="mem")
    for name, kwargs in faults:
        cluster = cluster.with_faults(name, count=1, **kwargs)
    trial = cluster.with_operations(TIMED_OPS).run(trials=1, keep_trace=True).trials[0]
    return trace_fingerprint(trial.trace), [
        (r.kind, r.value, r.responded_at) for r in trial.history.records
    ]


def timed_stack() -> Cluster:
    """One always-stale object plus one whose staleness needs a trigger
    (``benchmarks/e2e``'s ``frontier_degrade`` configuration)."""
    return (
        Cluster("atomic-fast-regular", t=1, S=4, allow_overfault=True)
        .with_faults("stale-echo", count=1)
        .with_faults("timed", count=1, inner="stale-echo", at=99)
        .with_operations([("write", "v1", 0), ("read", 1, 100)])
    )


# --------------------------------------------------------------------- #
# Decision vocabulary
# --------------------------------------------------------------------- #


class TestDecisionVocabulary:
    def test_trigger_validates_bounds(self):
        with pytest.raises(ConfigurationError):
            FaultTrigger(obj=0, at=0)
        with pytest.raises(ConfigurationError):
            FaultTrigger(obj=1, at=-1)

    def test_trigger_json_round_trip(self):
        trigger = FaultTrigger(obj=2, at=3)
        assert trigger.to_json() == ["fault", 2, 3]
        assert decision_from_json(trigger.to_json()) == trigger

    def test_decision_from_json_dispatch(self):
        assert decision_from_json([1, 3, None]) == HoldLink(op=1, obj=3)
        assert decision_from_json(["fault", 2, 0]) == FaultTrigger(obj=2, at=0)

    def test_canonical_order_holds_before_triggers(self):
        decisions = canonical_decisions([
            FaultTrigger(obj=1, at=0),
            HoldLink(op=2, obj=1),
            HoldLink(op=1, obj=3),
            FaultTrigger(obj=2, at=5),
        ])
        assert decisions == (
            HoldLink(op=1, obj=3),
            HoldLink(op=2, obj=1),
            FaultTrigger(obj=1, at=0),
            FaultTrigger(obj=2, at=5),
        )

    def test_controlled_delivery_rejects_triggers(self):
        with pytest.raises(ConfigurationError):
            ControlledDelivery(holds=(FaultTrigger(obj=1, at=0),))

    def test_describe(self):
        assert FaultTrigger(obj=2, at=4).describe() == "fire s2@4"


# --------------------------------------------------------------------- #
# Fault-timing choice points
# --------------------------------------------------------------------- #


class TestTimingChoicePoints:
    def test_facade_timing_is_honored(self):
        """``timed(stale-echo@at)`` fires at the facade's chosen point."""
        def stack(at: int) -> Cluster:
            return (
                Cluster("atomic-fast-regular", t=1, S=4, allow_overfault=True)
                .with_faults("timed", count=2, inner="stale-echo", at=at)
                .with_operations([("write", "v1", 0), ("read", 1, 100)])
                .check("atomicity")
            )

        active = stack(0).explore(max_holds=1, max_schedules=500)
        assert active.witnesses, "at=0 staleness should refute atomicity"
        inert = stack(99).explore(max_holds=1, max_schedules=500)
        assert inert.certified and not inert.witnesses

    def test_swept_triggers_expose_inert_faults(self):
        """The explorer finds violations the facade's timing never shows."""
        cluster = (
            Cluster("atomic-fast-regular", t=1, S=4, allow_overfault=True)
            .with_faults("timed", count=2, inner="stale-echo", at=99)
            .with_operations([("write", "v1", 0), ("read", 1, 100)])
            .check("atomicity")
        )
        untimed = cluster.explore(max_holds=3, max_schedules=3000)
        assert untimed.certified and not untimed.witnesses
        timed = cluster.explore(max_holds=3, max_schedules=3000,
                                fault_timing=True)
        assert timed.witnesses
        triggers = [d for d in timed.witnesses[0].decisions
                    if isinstance(d, FaultTrigger)]
        assert sorted((t.obj, t.at) for t in triggers) == [(1, 0), (2, 0)]

    def test_mixed_witness_replays_byte_identically(self):
        result = timed_stack().check("atomicity").explore(
            max_holds=2, max_schedules=3000, fault_timing=True
        )
        assert result.witnesses
        witness = result.witnesses[0]
        kinds = {type(d) for d in witness.decisions}
        assert kinds == {HoldLink, FaultTrigger}
        outcome = witness.replay()
        assert witness.reproduces(outcome)

    def test_trigger_on_unfaulted_object_rejected(self):
        result = timed_stack().check("atomicity").explore(
            max_holds=2, max_schedules=3000, fault_timing=True
        )
        witness = result.witnesses[0]
        doctored = dataclasses.replace(
            witness, decisions=(FaultTrigger(obj=4, at=0),)
        )
        with pytest.raises(ConfigurationError):
            doctored.replay()

    def test_timing_needs_fault_groups(self):
        """fault_timing on a fault-free probe degrades to plain holds."""
        cluster = (
            Cluster("abd")
            .with_operations([("write", "v1", 0), ("read", 1, 100)])
            .check("atomicity")
        )
        plain = cluster.explore(max_holds=1, max_schedules=500)
        swept = cluster.explore(max_holds=1, max_schedules=500,
                                fault_timing=True)
        assert swept.stats.explored == plain.stats.explored
        assert swept.certified == plain.certified


class TestTimedFaultWrapper:
    def test_rejects_nesting_and_timing_clashes(self):
        from repro.faults.timing import timed_fault

        with pytest.raises(ConfigurationError):
            timed_fault("timed", at=1)
        with pytest.raises(ConfigurationError):
            timed_fault("crash", at=1, survive_messages=3)
        with pytest.raises(ConfigurationError):
            timed_fault("crash", at=-1)

    def test_bare_registry_build(self):
        from repro.api.faults import fault_spec
        from repro.faults.timing import TimedFault

        behavior = fault_spec("timed").build()
        assert isinstance(behavior, TimedFault)
        assert behavior.describe() == "timed(silent@0)"

    @pytest.mark.parametrize("inner", TIMED_INNER)
    def test_a_trigger_that_never_comes_is_a_correct_object(self, inner):
        """Dormant means byte-identical to correct, whatever is wrapped."""
        assert wire(("timed", dict(inner=inner, at=10_000))) == wire()

    @pytest.mark.parametrize("inner", TIMED_INNER)
    def test_a_trigger_at_zero_is_the_fault_with_its_timing_at_zero(self, inner):
        fired = wire(("timed", dict(inner=inner, at=0)))
        assert fired == wire((inner, {knob: 0 for knob in fault_spec(inner).timing}))
        assert fired[0] != wire()[0]

    @pytest.mark.parametrize("at", (1, 4))
    @pytest.mark.parametrize("inner", SURVIVE_ONCE)
    def test_a_trigger_point_is_survive_messages(self, inner, at):
        """The module's promise: firing after ``at`` handled messages is the
        facade's ``survive_messages=at``."""
        timed = wire(("timed", dict(inner=inner, at=at)))
        assert timed == wire((inner, dict(survive_messages=at)))
        assert timed[0] != wire()[0]

    def test_crash_trigger_swept_across_a_round_boundary(self):
        """timed(crash)@at behaves exactly like survive_messages=at.

        The trigger point decides which round's message the crash
        swallows: fired before the write's second round the store never
        lands on s1, fired late the object is indistinguishable from
        correct — same verdict either way (t=1 tolerates one crash), but
        the message trace must shift with the trigger.
        """
        def run(at: int):
            return (
                Cluster("abd", t=1)
                .with_faults("timed", count=1, inner="crash", at=at)
                .with_operations([("write", "v1", 0), ("read", 1, 100)])
                .check("atomicity")
                .run(trials=1, keep_trace=True)
            )

        early, late = run(0), run(50)
        assert early.ok and late.ok
        from repro.sim.tracing import trace_fingerprint
        assert (trace_fingerprint(early.trials[0].trace)
                != trace_fingerprint(late.trials[0].trace))

    def test_fsync_lag_trigger_point_flips_the_verdict(self):
        """The stale-rejoin story as a trigger sweep: an fsync-lagged
        object that crashes *after* acknowledging the write's store (but
        before syncing it) can rejoin stale and serve ⊥; the same fault
        fired too late to matter leaves the bounded space clean."""
        def explore(at: int):
            return (
                Cluster("abd", t=1, durability="mem")
                .with_faults("timed", count=1, inner="fsync-lag", at=at,
                             rejoin_after=0, lag=1)
                .with_operations([("write", "v1", 0), ("read", 1, 100)])
                .check("atomicity")
                .explore(max_holds=2, max_schedules=1000)
            )

        vulnerable = explore(1)
        assert vulnerable.witnesses, "crash inside the sync lag must refute"
        safe = explore(99)
        assert safe.certified and not safe.witnesses


# --------------------------------------------------------------------- #
# Symmetry reduction
# --------------------------------------------------------------------- #


class TestSymmetry:
    def test_same_verdict_fewer_schedules(self):
        """Relabeling fault-free twins prunes without changing the verdict."""
        cluster = underprovisioned_cluster().check("atomicity")
        plain = cluster.explore(max_holds=2, max_schedules=3000)
        reduced = cluster.explore(max_holds=2, max_schedules=3000,
                                  symmetry=True)
        assert bool(plain.witnesses) == bool(reduced.witnesses)
        assert reduced.stats.pruned_symmetry > 0
        assert reduced.stats.explored < plain.stats.explored

    def test_symmetry_preserves_certification(self):
        cluster = (
            Cluster("abd", t=1)
            .with_faults("crash", count=1)
            .with_operations([("write", "v1", 0), ("read", 1, 100)])
            .check("atomicity")
        )
        plain = cluster.explore(max_holds=2, max_schedules=3000)
        reduced = cluster.explore(max_holds=2, max_schedules=3000,
                                  symmetry=True)
        assert plain.certified and reduced.certified


# --------------------------------------------------------------------- #
# The frontier
# --------------------------------------------------------------------- #


class TestModelLadder:
    def test_single_writer_ladder(self):
        assert model_ladder(4) == (
            "atomicity", "k-atomic(2)", "k-atomic(3)", "k-atomic(4)",
            "regularity", "safety",
        )

    def test_multi_writer_drops_swmr_models(self):
        assert model_ladder(3, multi_writer=True) == (
            "atomicity", "k-atomic(2)", "k-atomic(3)",
        )

    def test_trivial_and_invalid_ladders(self):
        assert model_ladder(1) == ("atomicity", "regularity", "safety")
        with pytest.raises(ConfigurationError):
            model_ladder(0)


class TestFrontier:
    def test_abd_certifies_atomicity_at_resilience_bound(self):
        """The paper's baseline: ABD is atomic with t crash faults at 2t+1."""
        cluster = (
            Cluster("abd", t=1)
            .with_faults("crash", count=1)
            .with_operations([("write", "v1", 0), ("read", 1, 100)])
        )
        result = robustness_frontier(cluster, max_holds=2, max_schedules=1000)
        assert isinstance(result, FrontierResult)
        assert result.strongest == "atomicity"
        assert result.certified
        assert result.refuted is None and result.witness is None
        assert not result.degraded
        assert result.outcomes == {"atomicity": "certified"}

    def test_underprovisioned_stack_lands_at_k2(self):
        """Two stale objects exceed t=1: atomicity refuted, k=2 certified."""
        result = robustness_frontier(
            underprovisioned_cluster(), max_holds=2, max_schedules=3000,
        )
        assert result.degraded
        assert result.outcomes["atomicity"] == "refuted"
        assert result.strongest == "k-atomic(2)"
        assert result.certified
        assert result.refuted == "atomicity"
        assert result.witness is not None
        assert result.witness.failures[0][0] == "atomicity"
        outcome = result.witness.replay()
        assert result.witness.reproduces(outcome)

    def test_timed_frontier_witness_carries_trigger(self):
        """The separating witness includes a fault-timing choice point."""
        result = robustness_frontier(
            timed_stack(), max_holds=2, max_schedules=3000,
        )
        assert result.strongest == "k-atomic(2)"
        assert result.refuted == "atomicity"
        triggers = [d for d in result.witness.decisions
                    if isinstance(d, FaultTrigger)]
        assert triggers == [FaultTrigger(obj=2, at=0)]

    def test_engine_parity(self, reference_engine):
        """The whole frontier payload, witness included, matches the reference."""
        def frontier():
            return robustness_frontier(
                underprovisioned_cluster(), max_holds=2, max_schedules=3000,
            ).to_dict()

        production = frontier()
        with reference_engine():
            assert frontier() == production

    def test_multi_writer_ladder_applies(self):
        cluster = (
            Cluster("mwmr-fast-regular", n_writers=2)
            .with_faults("crash", count=1)
            .with_workload(operations=3, spacing=60)
        )
        result = robustness_frontier(
            cluster, max_k=2, max_holds=1, max_schedules=500,
        )
        assert result.ladder == ("atomicity", "k-atomic(2)")
        assert result.strongest == "atomicity"

    def test_cluster_with_faults_argument_conflict(self):
        with pytest.raises(ConfigurationError):
            robustness_frontier(underprovisioned_cluster(), {"crash": 1})

    def test_with_checks_replaces_instead_of_appending(self):
        cluster = Cluster("abd").check("atomicity")
        assert cluster.with_checks("regularity")._checks == ("regularity",)
        assert cluster._checks == ("atomicity",)  # original untouched

    def test_facade_entry_point_matches_function(self):
        via_method = underprovisioned_cluster().frontier(
            max_holds=2, max_schedules=3000,
        )
        via_function = robustness_frontier(
            underprovisioned_cluster(), max_holds=2, max_schedules=3000,
        )
        assert via_method.to_dict() == via_function.to_dict()


# --------------------------------------------------------------------- #
# One simulation, many verdicts
# --------------------------------------------------------------------- #

OPS = [("write", "v1", 0), ("read", 1, 100)]

#: name → (cluster factory, frontier bounds).  ``budget`` is the
#: benchmark cell again with a schedule budget far below the space, so every
#: rung stops on its own count of judged schedules.
SHARING_GRID = {
    "benchmark": (timed_stack, dict(max_holds=2, max_schedules=3000)),
    "budget": (timed_stack, dict(max_holds=2, max_schedules=60)),
    # Three holds deep the atomicity rung stops at violating two-hold sets
    # that the k-atomic(2) rung expands: the rungs walk different sub-spaces.
    "deeper": (
        underprovisioned_cluster, dict(max_k=2, max_holds=3, max_schedules=3000),
    ),
    "abd-crash": (
        lambda: Cluster("abd", t=1)
        .with_faults("crash", count=1).with_operations(OPS),
        dict(max_holds=2, max_schedules=1000),
    ),
    "fast-regular": (
        lambda: Cluster("fast-regular", t=1)
        .with_operations([("write", "v1", 0), ("read", 1, 120), ("read", 2, 240)]),
        dict(max_holds=1, max_schedules=500, granularity="round"),
    ),
    "mwmr": (
        lambda: Cluster("mwmr-fast-regular", n_writers=2)
        .with_faults("crash", count=1).with_workload(operations=3, spacing=60),
        dict(max_k=2, max_holds=1, max_schedules=500),
    ),
}

def _explore_bounds(bounds: dict) -> dict:
    """The ``Cluster.explore`` call one rung of ``frontier(**bounds)`` equals."""
    return {"fault_timing": True, **{k: v for k, v in bounds.items() if k != "max_k"}}


class TestFrontierSharesSimulations:
    """The rungs share simulated schedules and nothing else: every rung
    still reports what its standalone exploration reports."""

    @pytest.mark.parametrize("cell", sorted(SHARING_GRID))
    def test_every_rung_equals_its_standalone_exploration(self, cell):
        build, bounds = SHARING_GRID[cell]
        serial = build().frontier(**bounds)
        assert serial.results and set(serial.results) == set(serial.outcomes)
        for model, rung in serial.results.items():
            alone = build().with_checks(model).explore(**_explore_bounds(bounds))
            # Stats, witnesses, trace hashes, exhausted: the whole payload.
            assert rung.to_dict() == alone.to_dict(), (cell, model)
        assert serial.schedules == sum(
            r.stats.explored for r in serial.results.values()
        )
        assert serial.simulated <= serial.schedules
        pooled = build().frontier(**bounds, parallel=True, max_workers=2)
        assert pooled.to_dict() == serial.to_dict()
        assert pooled.simulated == serial.simulated
        for model, rung in pooled.results.items():
            assert rung.to_dict() == serial.results[model].to_dict()

    @pytest.mark.parametrize("cell", sorted(SHARING_GRID))
    def test_a_decision_set_is_simulated_at_most_once(self, cell, monkeypatch):
        from collections import Counter

        from repro.explore import engine

        runs: Counter = Counter()
        real = engine.simulate

        def counting(probe):
            runs[probe.decisions] += 1
            return real(probe)

        monkeypatch.setattr(engine, "simulate", counting)
        build, bounds = SHARING_GRID[cell]
        result = build().frontier(**bounds)
        assert set(runs.values()) == {1}
        assert result.simulated == len(runs)

    @pytest.fixture(scope="class")
    def benchmark_frontier(self):
        build, bounds = SHARING_GRID["benchmark"]
        return build().frontier(**bounds)

    def test_benchmark_cell_simulates_a_third_of_what_it_judges(self, benchmark_frontier):
        result = benchmark_frontier
        assert len(result.results) == 3
        assert (result.schedules, result.simulated) == (525, 175)
        # The atomicity rung's two minimization runs were hits as well.
        assert result.results["atomicity"].stats.minimization_runs == 2
        # A live count beside the golden-pinned payload, never inside it.
        assert "simulated" not in result.to_dict()
        assert "simulated" not in result.render()

    def test_rungs_still_search_their_own_sub_space(self):
        build, bounds = SHARING_GRID["deeper"]
        result = build().frontier(**bounds)
        explored = {m: r.stats.explored for m, r in result.results.items()}
        assert explored == {"atomicity": 613, "k-atomic(2)": 643}
        # The second rung simulated the 30 schedules the first never reached.
        assert result.simulated == 643 and result.schedules == 613 + 643

    def test_first_rung_certificate_simulates_exactly_what_it_explored(self):
        build, bounds = SHARING_GRID["abd-crash"]
        result = build().frontier(**bounds)
        assert list(result.results) == ["atomicity"] and result.certified
        assert result.simulated == result.results["atomicity"].stats.explored
        assert result.simulated == result.schedules

    def test_judging_is_pure(self, benchmark_frontier):
        import copy

        from repro.explore import judge, simulate

        witness = benchmark_frontier.witness
        record = simulate(witness.probe)
        before = copy.deepcopy(record)
        ladder = model_ladder(4)
        first = [judge(record, (model,)) for model in ladder]
        second = [judge(record, (model,)) for model in reversed(ladder)]
        assert first == second[::-1]
        assert first[0].failures == witness.failures and not first[1].failures
        assert judge(record, ladder).failures == tuple(
            pair for outcome in first for pair in outcome.failures
        )
        fresh = simulate(witness.probe)
        for name, history in record.histories.items():
            assert history.records == fresh.histories[name].records
            assert history.records == before.histories[name].records
        assert record.outcome == fresh.outcome == judge(record, ())

    def test_store_refuses_another_configuration(self):
        from repro.explore import Explorer, SimulationStore, minimize_decisions

        probe = timed_stack()._schedule_probe()
        store = SimulationStore(probe)
        # Checks (and decisions) are what probes sharing a store may differ in.
        rung = dataclasses.replace(probe, checks=("k-atomic(2)",))
        Explorer(rung, store=store)
        assert store.run_schedule(
            rung.with_decisions((FaultTrigger(obj=2, at=0),))
        ).decisions == (FaultTrigger(obj=2, at=0),)
        for other in (
            dataclasses.replace(probe, S=5),
            dataclasses.replace(probe, durability="mem"),
            dataclasses.replace(probe, max_events=100),
            dataclasses.replace(probe, plans=probe.plans[:1]),
            timed_stack()._schedule_probe(SearchBounds(granularity="round")),
        ):
            with pytest.raises(ConfigurationError, match="another configuration"):
                Explorer(other, store=store)
            with pytest.raises(ConfigurationError, match="another configuration"):
                minimize_decisions(other, (), store.run_schedule(probe), store=store)

    def test_store_keeps_no_message_or_simulator_alive(self):
        import gc
        import pickle

        from repro.explore import Explorer, SimulationStore
        from repro.sim.network import Message
        from repro.sim.simulator import Simulator

        def live() -> int:
            return sum(
                1 for obj in gc.get_objects() if isinstance(obj, (Message, Simulator))
            )

        probe = timed_stack()._schedule_probe()
        Explorer(probe, SearchBounds(max_holds=1)).run()  # imports and caches settle
        gc.collect()
        gc.disable()
        try:
            before = live()
            store = SimulationStore(probe)
            for model in ("atomicity", "k-atomic(2)"):
                Explorer(
                    dataclasses.replace(probe, checks=(model,)),
                    SearchBounds(max_holds=2, max_schedules=3000, fault_timing=True),
                    store,
                ).run()
            assert len(store) == 175
            # Each finished system went by reference count as it closed, so
            # the store holds plain data only before any collection runs.
            assert live() == before
            assert gc.collect() == 0
            assert len(pickle.loads(pickle.dumps(store))) == 175
        finally:
            gc.enable()


class TestFrontierNamesItsAxes:
    """A frontier says which run axes it was walked under: tagged axes away
    from their default are written and rendered, default ones add nothing."""

    OPS = [("write", "v1", 0), ("read", 1, 100)]

    def _frontier(self, **axes):
        return Cluster("abd", t=1, **axes).with_operations(self.OPS).frontier(
            max_k=2, max_holds=1, max_schedules=200,
        )

    def test_default_axes_add_no_key_and_no_tag(self):
        result = self._frontier()
        payload = result.to_dict()
        assert "durability" not in payload and "consistency" not in payload
        assert "t=1, S=3, faults: fault-free" in result.render()

    def test_durability_is_written_and_rendered(self):
        result = self._frontier(durability="mem")
        assert result.to_dict()["durability"] == "mem"
        assert "t=1, S=3, durability=mem, faults:" in result.render()
        assert result.axes.durability == result.durability == "mem"

    def test_consistency_is_written_and_rendered(self):
        result = self._frontier(consistency="k-atomic(2)")
        assert result.to_dict()["consistency"] == "k-atomic(2)"
        assert "t=1, S=3, consistency=k-atomic(2), faults:" in result.render()

    def test_cli_rows_are_distinguishable(self, tmp_path, capsys):
        import json

        from repro.__main__ import main

        sink = tmp_path / "frontier.jsonl"
        base = ["frontier", "--protocol", "abd", "--op", "write:v1@0",
                "--op", "read:1@100", "--max-k", "2", "--max-holds", "1",
                "--jsonl", str(sink)]
        assert main(base) == 0
        assert main(base + ["--durability", "mem"]) == 0
        # Newly accepted by `frontier` through the shared parent parser.
        assert main(base + ["--consistency", "k-atomic(2)"]) == 0
        assert "consistency=k-atomic(2)" in capsys.readouterr().out
        plain, durable, stale = map(json.loads, sink.read_text().splitlines())
        assert "durability" not in plain and durable["durability"] == "mem"
        assert stale["consistency"] == "k-atomic(2)"

    def test_cli_repair_flags_take_effect(self, tmp_path):
        import json

        from repro.__main__ import main

        # --repair / --spares / --xfer-quorum, also new on `frontier`: the
        # under-quorum transfer is refuted only because the flags arrive.
        witness = tmp_path / "underquorum.json"
        argv = ["frontier", "--protocol", "abd", "--backend", "reconfig",
                "--faults", "perm-crash", "--fault-arg", "survive_messages=1",
                "--repair", "1@5", "--ops", "2", "--reads", "0.5",
                "--spacing", "10", "--seed", "7", "--max-k", "2",
                "--max-holds", "1", "--no-fault-timing"]
        assert main(argv + ["--expect-strongest", "atomicity"]) == 0
        assert main(argv + ["--xfer-quorum", "1", "--spares", "2",
                            "--witness", str(witness),
                            "--expect-strongest", "k-atomic(2)"]) == 0
        saved = json.loads(witness.read_text())
        assert saved["repairs"] == [[1, 5]]
        assert saved["xfer_quorum"] == 1 and saved["spares"] == 2


class TestSweepPayload:
    def test_sweep_attaches_robustness_payload(self):
        result = sweep(
            ["abd"], scenarios=["crash"], trials=1, operations=4,
            frontier=True,
            frontier_bounds={"max_holds": 1, "max_schedules": 100},
        )
        payload = result.runs[0].robustness
        assert payload is not None
        assert payload["bounds"]["max_holds"] == 1
        assert payload["strongest"] is not None
        assert "robustness" in result.runs[0].to_dict()

    def test_sweep_without_frontier_has_no_payload(self):
        result = sweep(["abd"], scenarios=["crash"], trials=1, operations=4)
        assert result.runs[0].robustness is None
        assert "robustness" not in result.runs[0].to_dict()

"""Tests for the bounded schedule explorer (:mod:`repro.explore`)."""

import json
import pickle

import pytest

from repro.api import Cluster, protocol_specs
from repro.axes import SearchBounds
from repro.errors import ConfigurationError
from repro.explore import (
    ControlledDelivery,
    Explorer,
    HoldLink,
    ScheduleProbe,
    ScheduleWitness,
    canonical_decisions,
    minimize_decisions,
    run_schedule,
)
from repro.registers.base import RegisterSystem
from repro.registers.fast_regular import FastRegularProtocol
from repro.sim.tracing import TraceKind
from repro.workloads.generator import OperationPlan


def underprovisioned_cluster():
    """The flagship refutation target: a fast-read stack below min_size(t).

    The system is provisioned for t=1 (S=4 = 3t+1) but suffers two
    stale-echo Byzantine objects — the paper's bound would require
    S ≥ 3·2+1 = 7 to tolerate them.
    """
    return (
        Cluster("atomic-fast-regular", t=1, S=4, allow_overfault=True)
        .with_faults("stale-echo", count=2)
        .with_operations([("write", "v1", 0), ("read", 1, 100)])
        .check("atomicity")
    )


def small_cluster(name="fast-regular", **kwargs):
    return (
        Cluster(name, t=1, **kwargs)
        .with_operations([("write", "v1", 0), ("read", 1, 120)])
    )


class TestHoldLink:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HoldLink(op=0, obj=1)
        with pytest.raises(ConfigurationError):
            HoldLink(op=1, obj=0)
        with pytest.raises(ConfigurationError):
            HoldLink(op=1, obj=1, round_no=0)

    def test_canonical_decisions_dedups_and_orders(self):
        links = (HoldLink(2, 1), HoldLink(1, 3), HoldLink(2, 1), HoldLink(1, 2))
        assert canonical_decisions(links) == (
            HoldLink(1, 2), HoldLink(1, 3), HoldLink(2, 1),
        )

    def test_json_round_trip(self):
        for link in (HoldLink(3, 2), HoldLink(1, 4, round_no=2)):
            assert HoldLink.from_json(link.to_json()) == link

    def test_equality_is_on_the_fields(self):
        from repro.explore import FaultTrigger

        assert HoldLink(1, 2) == HoldLink(1, 2) and HoldLink(1, 2) != HoldLink(1, 2, 1)
        assert HoldLink(1, 2, 3) != HoldLink(1, 3, 3) != HoldLink(2, 3, 3)
        assert HoldLink(1, 2) != FaultTrigger(1, 2) and HoldLink(1, 2) != (1, 2, None)
        assert len({HoldLink(1, 2), HoldLink(1, 2), HoldLink(1, 2, 1)}) == 2

    def test_hash_survives_pickling(self):
        for link in (HoldLink(1, 2), HoldLink(1, 2, 3)):
            clone = pickle.loads(pickle.dumps(link))
            assert clone == link and hash(clone) == hash(link)
            assert repr(clone) == repr(link) == repr(HoldLink(*link.to_json()))

    def test_hash_agrees_across_hash_seeds(self):
        """A link pickled to a pool worker must index the same set slot there:
        its hash is over ints only (``hash(None)`` is address-based on some
        interpreters)."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        script = (
            "from repro.explore import HoldLink\n"
            "print(hash('seeded'), hash(HoldLink(1, 2)), hash(HoldLink(1, 2, 3)))\n"
        )
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=str(Path(repro.__file__).parents[1]))
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, timeout=60, check=True)
            outputs.append(done.stdout.decode().split())
        (seeded_1, *hashes_1), (seeded_2, *hashes_2) = outputs
        assert seeded_1 != seeded_2  # the seeds really differ
        expected = [str(hash(HoldLink(1, 2))), str(hash(HoldLink(1, 2, 3)))]
        assert hashes_1 == hashes_2 == expected


class TestControlledDelivery:
    def _run(self, policy):
        # Links address operations by serial, so pin serials to plan order
        # exactly the way the trial/explore engines do.
        from repro.types import scoped_operation_serials

        with scoped_operation_serials():
            system = RegisterSystem(FastRegularProtocol(), t=1, S=4, policy=policy)
            system.write("v1", at=0)
            system.read(1, at=100)
            system.run()
            return system

    def test_holds_cut_the_link_both_directions(self):
        policy = ControlledDelivery(holds=[HoldLink(1, 3)])
        system = self._run(policy)
        assert policy.held_messages > 0
        # The held link never shows up as delivered ...
        assert HoldLink(1, 3) not in policy.delivered_links
        # ... and its messages are parked in transit, not lost.
        held = [m for _, kind, m in system.trace.entries if kind is TraceKind.HOLD]
        assert held and all(
            (message.dst.index == 3 and not message.is_reply)
            or (message.src.index == 3 and message.is_reply)
            for message in held
        )

    def test_records_expansion_alphabet(self):
        policy = ControlledDelivery()
        self._run(policy)
        # Operation granularity over 2 operations × 4 objects.
        assert len(policy.delivered_links) == 8
        assert all(link.round_no is None for link in policy.delivered_links)

    def test_round_granularity_links_carry_rounds(self):
        policy = ControlledDelivery(granularity="round")
        self._run(policy)
        assert all(link.round_no is not None for link in policy.delivered_links)
        # 2 ops × 4 objects × 2 rounds each for fast-regular.
        assert len(policy.delivered_links) == 16

    @pytest.mark.parametrize("granularity", ("operation", "round"))
    def test_links_are_built_at_the_boundary_only(self, granularity, monkeypatch):
        """Inside the policy a link is a tuple; the first ``simulate``
        constructs a ``HoldLink`` per reported expansion, not one per message
        on the wire, and a later schedule reporting the same links
        constructs none."""
        from repro.explore.controlled import _boundary_link
        from repro.explore.engine import simulate

        probe = small_cluster()._schedule_probe(SearchBounds(granularity=granularity))
        round_no = 1 if granularity == "round" else None
        probe = probe.with_decisions((HoldLink(1, 2, round_no), HoldLink(2, 3, round_no)))
        built = []
        validate = HoldLink.__post_init__

        def counting(link):
            built.append(link)
            validate(link)

        _boundary_link.cache_clear()
        monkeypatch.setattr(HoldLink, "__post_init__", counting)
        outcome = simulate(probe).outcome
        assert outcome.held_messages >= 2 and outcome.events > 2 * len(outcome.expansions)
        assert built and len(built) <= len(outcome.expansions) + len(outcome.decisions)
        assert tuple(built) == outcome.expansions == canonical_decisions(outcome.expansions)
        built.clear()
        assert simulate(probe).outcome == outcome
        assert built == []

    def test_granularity_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            ControlledDelivery(holds=[HoldLink(1, 1, round_no=2)], granularity="operation")
        with pytest.raises(ConfigurationError):
            ControlledDelivery(holds=[HoldLink(1, 1)], granularity="round")
        with pytest.raises(ConfigurationError):
            ControlledDelivery(granularity="message")


class TestRunSchedule:
    def _probe(self, **overrides):
        base = dict(
            protocol="fast-regular",
            protocol_kwargs=(),
            t=1,
            S=4,
            n_readers=2,
            n_writers=1,
            keys=(),
            backend="single",
            allow_overfault=False,
            scenario=None,
            fault_groups=(),
            plans=(
                OperationPlan(kind="write", client_index=1, value="v1", at=0),
                OperationPlan(kind="read", client_index=1, value=None, at=120),
            ),
            checks=("regularity",),
        )
        base.update(overrides)
        return ScheduleProbe(**base)

    def test_judge_replaces_the_verdicts_only(self):
        from dataclasses import fields

        from repro.explore import judge
        from repro.explore.engine import ScheduleOutcome, SimulatedSchedule

        marked = {item.name: f"<{item.name}>" for item in fields(ScheduleOutcome)}
        judged = judge(SimulatedSchedule(ScheduleOutcome(**marked), {}), ())
        assert judged == ScheduleOutcome(**{**marked, "failures": (), "passed": ()})

    def test_empty_schedule_passes(self):
        outcome = run_schedule(self._probe())
        assert not outcome.violating
        assert outcome.completed == 2
        assert outcome.incomplete == 0 and outcome.dropped == 0
        assert outcome.held_messages == 0

    def test_purity_same_probe_same_outcome(self):
        probe = self._probe().with_decisions((HoldLink(2, 4),))
        assert run_schedule(probe) == run_schedule(probe)

    def test_probe_is_picklable(self):
        probe = self._probe().with_decisions((HoldLink(1, 2),))
        assert pickle.loads(pickle.dumps(probe)) == probe

    def test_blocking_holds_leave_operations_incomplete(self):
        # Holding a write's link to 2 of 4 objects starves its S−t quorum.
        outcome = run_schedule(
            self._probe().with_decisions((HoldLink(1, 1), HoldLink(1, 2)))
        )
        assert outcome.incomplete == 1 and outcome.completed == 1
        assert not outcome.violating  # an incomplete write is a legal partial run

    def test_blocked_clients_drop_later_invocations(self):
        # Same client reads twice; the first read is starved, so the second
        # planned invocation is dropped instead of violating the
        # sequential-client model.
        probe = self._probe(plans=(
            OperationPlan(kind="write", client_index=1, value="v1", at=0),
            OperationPlan(kind="read", client_index=1, value=None, at=120),
            OperationPlan(kind="read", client_index=1, value=None, at=700),
        ))
        starved = probe.with_decisions(
            (HoldLink(2, 1), HoldLink(2, 2), HoldLink(2, 3))
        )
        outcome = run_schedule(starved)
        assert outcome.dropped == 1
        assert outcome.incomplete == 1  # the starved read itself


class TestExplorerRefutation:
    def test_finds_and_minimizes_known_violation(self):
        result = underprovisioned_cluster().explore(max_holds=2)
        assert not result.certified
        assert result.stats.explored == 37  # 1 + 8 + C(8,2)
        assert result.alphabet == 8
        assert result.stats.violating == 3
        # Two root causes survive minimization-deduplication ...
        assert result.violations == 2
        first = result.witnesses[0]
        # ... and the flagship one shrinks to a single held link: the
        # write never reaches s3, so a reader quorum {s1, s2, s3} has no
        # correct holder of the completed write — a genuine stale read.
        assert first.decisions == (HoldLink(1, 3),)
        assert first.failures[0][0] == "atomicity"
        assert "stale read" in first.failures[0][1]

    def test_stop_on_violation_short_circuits(self):
        result = underprovisioned_cluster().explore(
            max_holds=2, stop_on_violation=True
        )
        assert result.violations == 1
        assert result.stats.explored < 37
        assert not result.certified and not result.exhausted

    def test_minimization_deduplicates_root_causes(self):
        result = underprovisioned_cluster().explore(max_holds=2)
        # Three violating schedules collapse onto two witnesses: the 2-link
        # discovery {op1↔s3, op2↔s4} delta-debugs down to {op1↔s3}, the
        # same root cause the depth-1 frontier already found.
        assert result.stats.violating == 3
        assert result.violations == 2
        assert result.stats.minimization_runs > 0

    def test_violation_requires_the_search(self):
        # The empty schedule is clean: the violation genuinely lives in the
        # schedule space, it is not a property of the configuration alone.
        result = underprovisioned_cluster().explore(max_holds=0)
        assert result.certified and result.stats.explored == 1


class TestExplorerCertification:
    def test_every_registered_swmr_protocol_certifies_at_small_bound(self):
        for spec in protocol_specs():
            if spec.backend != "single":
                continue
            cluster = Cluster(spec.name, t=1).with_operations(
                [("write", "v1", 0), ("read", 1, 120), ("read", 2, 240)]
            )
            result = cluster.explore(max_holds=1)
            assert result.certified, (
                f"{spec.name} violated {spec.default_check()} under "
                f"{result.witnesses and result.witnesses[0].describe()}"
            )
            assert result.exhausted and result.violations == 0

    def test_bfs_and_dfs_cover_the_same_space(self):
        cluster = small_cluster()
        bfs = cluster.explore(max_holds=2, granularity="round")
        dfs = cluster.explore(max_holds=2, granularity="round", strategy="dfs")
        assert bfs.stats.explored == dfs.stats.explored == 137
        assert bfs.certified and dfs.certified

    def test_round_granularity_prunes(self):
        result = small_cluster().explore(max_holds=3, granularity="round")
        assert result.certified
        # Depth-3 holds can starve a round's quorum, so its successor-round
        # links go inactive (sleep-set pruning) and some schedules collapse
        # onto identical wire traces (transcript-hash PoR).
        assert result.stats.pruned_inactive > 0
        assert result.stats.pruned_duplicate > 0

    def test_schedule_budget_bounds_the_sweep(self):
        result = small_cluster().explore(max_holds=2, max_schedules=5)
        assert result.stats.explored == 5
        assert not result.exhausted and not result.certified

    def test_event_budget_truncates_and_forfeits_certification(self):
        result = small_cluster().explore(max_holds=0, max_events=5)
        assert result.stats.truncated_runs == 1
        assert not result.certified

    def test_mwmr_backend_explores_too(self):
        result = (
            Cluster("mw-abd", t=1, backend="multi-writer", n_writers=2)
            .with_operations([("write", "v1", 0), ("read", 1, 120)])
            .check("linearizability")
            .explore(max_holds=1)
        )
        assert result.certified and result.backend == "multi-writer"


class TestExplorerParallel:
    def test_parallel_results_byte_identical(self):
        cluster = underprovisioned_cluster()
        serial = cluster.explore(max_holds=2)
        parallel = cluster.explore(max_holds=2, parallel=True)
        assert (
            json.dumps(serial.to_dict(), sort_keys=True)
            == json.dumps(parallel.to_dict(), sort_keys=True)
        )


class TestNoStateCrossesSchedules:
    """What a configuration fixes is derived once (sizes, identifiers, hold
    links); everything stateful is built fresh per schedule.  So a schedule's
    outcome cannot depend on which schedules ran before it in the process."""

    @pytest.mark.parametrize("cluster,bounds", [
        (lambda: small_cluster().check("regularity"),
         SearchBounds(granularity="round", max_holds=2)),
        (underprovisioned_cluster, SearchBounds(max_holds=2, fault_timing=True)),
    ], ids=("certify", "refute-timed"))
    def test_forward_reversed_and_pooled_agree(self, cluster, bounds, monkeypatch):
        from repro.api.cluster import _pool_map
        from repro.explore import engine as explore_engine

        probe = cluster()._schedule_probe(bounds)
        searched = []
        simulate = explore_engine.simulate
        monkeypatch.setattr(
            explore_engine, "simulate", lambda p: searched.append(p) or simulate(p)
        )
        serial = Explorer(probe, bounds).run()
        monkeypatch.undo()
        assert len(searched) == serial.stats.explored + serial.stats.minimization_runs > 20

        def outcome(p):
            return explore_engine.judge(explore_engine.simulate(p), p.checks)

        forward = [outcome(p) for p in searched]
        backward = [outcome(p) for p in reversed(searched)][::-1]
        pooled = _pool_map(searched, 2, fn=explore_engine._search_schedule)
        assert forward == backward == pooled
        assert list(map(repr, forward)) == list(map(repr, backward)) == list(map(repr, pooled))
        parallel = Explorer(probe, bounds).run(parallel=True, max_workers=2)
        assert (json.dumps(serial.to_dict(), sort_keys=True)
                == json.dumps(parallel.to_dict(), sort_keys=True))


class TestWitness:
    def _witness(self):
        return underprovisioned_cluster().explore(max_holds=2).witnesses[0]

    def test_json_round_trip_is_identity(self):
        witness = self._witness()
        clone = ScheduleWitness.from_json(witness.to_json())
        assert clone.to_json() == witness.to_json()
        assert clone.decisions == witness.decisions
        assert clone.probe == witness.probe

    def test_replay_reproduces_byte_identically(self):
        witness = self._witness()
        outcome = witness.replay()
        assert outcome.failures == witness.failures
        assert outcome.trace_hash == witness.trace_hash
        assert witness.reproduces(outcome)

    def test_save_load_replay(self, tmp_path):
        witness = self._witness()
        path = witness.save(tmp_path / "witness.json")
        loaded = ScheduleWitness.load(path)
        assert loaded.reproduces()

    def test_tampered_witness_does_not_reproduce(self):
        data = json.loads(self._witness().to_json())
        data["decisions"] = []  # drop the held link: the violation vanishes
        tampered = ScheduleWitness.from_dict(data)
        assert not tampered.reproduces()

    def test_unknown_version_rejected(self):
        data = json.loads(self._witness().to_json())
        data["version"] = 999
        with pytest.raises(ConfigurationError):
            ScheduleWitness.from_dict(data)

    def test_non_primitive_plan_values_refused_loudly(self):
        # JSON would mutate a tuple value into a list, so the loaded
        # witness would replay a different schedule; serialization must
        # refuse instead of emitting a witness that cannot reproduce.
        result = (
            Cluster("atomic-fast-regular", t=1, S=4, allow_overfault=True)
            .with_faults("stale-echo", count=2)
            .with_operations([("write", ("v", 1), 0), ("read", 1, 100)])
            .check("atomicity")
            .explore(max_holds=1, stop_on_violation=True)
        )
        assert result.witnesses  # the violation itself is still found
        with pytest.raises(ConfigurationError):
            result.witnesses[0].to_dict()

    def test_minimize_decisions_directly(self):
        result = underprovisioned_cluster().explore(max_holds=2, minimize=False)
        bloated = next(
            witness for witness in result.witnesses if len(witness.decisions) == 2
            and HoldLink(1, 3) in witness.decisions
        )
        outcome = bloated.replay()
        minimal, final, runs = minimize_decisions(
            bloated.probe, bloated.decisions, outcome
        )
        assert minimal == (HoldLink(1, 3),)
        assert final.violating and runs > 0


class TestExplorerValidation:
    def test_probe_with_decisions_rejected(self):
        witness = underprovisioned_cluster().explore(
            max_holds=2, stop_on_violation=True
        ).witnesses[0]
        with pytest.raises(ConfigurationError):
            Explorer(witness.probe)  # the probe already carries decisions

    def test_bad_bounds_rejected(self):
        cluster = small_cluster()
        with pytest.raises(ConfigurationError):
            cluster.explore(max_holds=-1)
        with pytest.raises(ConfigurationError):
            cluster.explore(max_schedules=0)
        with pytest.raises(ConfigurationError):
            cluster.explore(strategy="random")
        with pytest.raises(ConfigurationError):
            cluster.explore(granularity="message")


@pytest.mark.slow
class TestExplorerStress:
    def test_deeper_search_finds_more_schedules_and_violations(self):
        cluster = (
            Cluster("atomic-fast-regular", t=1, S=4, allow_overfault=True)
            .with_faults("stale-echo", count=2)
            .with_operations([
                ("write", "v1", 0), ("write", "v2", 200),
                ("read", 1, 400), ("read", 2, 600),
            ])
            .check("atomicity")
        )
        result = cluster.explore(max_holds=3)
        assert not result.certified
        assert result.violations >= 2
        assert result.stats.explored > 500
        # Every emitted witness replays byte-identically.
        for witness in result.witnesses:
            assert witness.reproduces()

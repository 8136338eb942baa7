"""Adversarial schedules as first-class facade citizens.

Covers :meth:`Cluster.with_schedule` (plan-addressed
:class:`~repro.faults.schedules.PlannedSkip` rules), the scenario
registry's ``policy_factory`` hook, and their interplay with the parallel
trial engine.
"""

import json

import pytest

from repro.api import Cluster
from repro.errors import ConfigurationError
from repro.faults.schedules import PlannedSchedulePolicy, PlannedSkip
from repro.types import object_id
from repro.workloads.scenarios import Scenario, register_scenario


def write_read_cluster(**kwargs):
    return (
        Cluster("fast-regular", t=1, S=4, **kwargs)
        .with_operations([("write", "v1", 0), ("read", 1, 120)])
        .check("regularity")
    )


class TestPlannedSkip:
    def test_matches_invocations_of_its_round(self):
        from repro.sim.network import Message
        from repro.types import writer_id

        skip = PlannedSkip(op=1, objects=(2, 3), round_no=1)
        make = lambda dst, rnd, reply=False: Message(  # noqa: E731
            src=writer_id() if not reply else object_id(dst),
            dst=object_id(dst) if not reply else writer_id(),
            op=_op_with_serial(1),
            round_no=rnd,
            tag="T",
            payload={},
            is_reply=reply,
        )
        assert skip.matches(make(2, 1))
        assert not skip.matches(make(2, 2))      # other round
        assert not skip.matches(make(4, 1))      # object outside the block
        assert not skip.matches(make(2, 1, reply=True))  # replies flow

    def test_withhold_replies_extends_to_reply_direction(self):
        from repro.sim.network import Message
        from repro.types import writer_id

        skip = PlannedSkip(op=1, objects=(2,), withhold_replies=True)
        reply = Message(
            src=object_id(2), dst=writer_id(), op=_op_with_serial(1),
            round_no=1, tag="T", payload={}, is_reply=True,
        )
        assert skip.matches(reply)


def _op_with_serial(serial):
    from repro.types import OperationId, writer_id

    return OperationId(client=writer_id(), kind="write", serial=serial)


class TestWithSchedule:
    def test_skipped_write_stays_incomplete(self):
        # Op 1 (the write) skips {s1, s2}: only 2 of the S−t = 3 acks it
        # needs can arrive, so the write is a partial-run operation — and
        # the reader, which still hears everyone, keeps regularity.
        result = write_read_cluster().with_schedule((1, (1, 2))).run(trials=1)
        trial = result.trials[0]
        assert trial.incomplete == 1
        assert trial.checks["regularity"].ok

    def test_round_scoped_skip_only_delays(self):
        # Skipping only round 1 of the read leaves rounds ≥ 2 untouched;
        # round 1 can still terminate on the remaining 3 replies.
        result = write_read_cluster().with_schedule((2, (4,), 1)).run(trials=1)
        trial = result.trials[0]
        assert trial.incomplete == 0
        assert trial.checks["regularity"].ok

    def test_withheld_replies_model_slow_correct_objects(self):
        result = (
            write_read_cluster()
            .with_schedule(PlannedSkip(op=2, objects=(4,), withhold_replies=True))
            .run(trials=1)
        )
        trial = result.trials[0]
        assert trial.incomplete == 0  # quorum 3 of 4 still reachable
        assert trial.checks["regularity"].ok

    def test_schedule_changes_the_run(self):
        baseline = write_read_cluster().run(trials=1, keep_trace=True)
        skipped = (
            write_read_cluster().with_schedule((1, (1, 2))).run(trials=1, keep_trace=True)
        )
        held = skipped.trials[0].trace
        base = baseline.trials[0].trace
        assert not base.events or all(e.kind.value != "hold" for e in base.events)
        assert any(e.kind.value == "hold" for e in held.events)

    def test_rules_stack_across_calls(self):
        cluster = write_read_cluster().with_schedule((1, (1,))).with_schedule((2, (4,)))
        assert len(cluster._schedule) == 2

    def test_build_backend_applies_the_schedule(self):
        backend = write_read_cluster().with_schedule((1, (1,))).build_backend()
        policy = backend.simulator.network.policy
        assert isinstance(policy, PlannedSchedulePolicy)
        assert policy.skips[0].objects == (1,)

    def test_shorthand_validation(self):
        cluster = write_read_cluster()
        with pytest.raises(ConfigurationError):
            cluster.with_schedule((0, (1,)))        # 0-based op
        with pytest.raises(ConfigurationError):
            cluster.with_schedule((1, (0,)))        # 0-based object
        with pytest.raises(ConfigurationError):
            cluster.with_schedule((1, ()))          # empty block
        with pytest.raises(ConfigurationError):
            cluster.with_schedule((1, (1,), 2, 3))  # too many elements
        with pytest.raises(ConfigurationError):
            cluster.with_schedule((1,))             # too few elements
        with pytest.raises(ConfigurationError):
            cluster.with_schedule((1, 2))           # scalar block

    def test_parallel_scheduled_trials_byte_identical(self):
        cluster = write_read_cluster().with_schedule((1, (1, 2)))
        serial = cluster.run(trials=3, seed=5)
        parallel = cluster.run(trials=3, seed=5, parallel=True)
        assert (
            json.dumps(serial.to_dict(), sort_keys=True)
            == json.dumps(parallel.to_dict(), sort_keys=True)
        )


class TestScenarioPolicies:
    def test_policy_factory_reaches_the_trial_fabric(self):
        register_scenario(
            "skip-first-write",
            lambda t: Scenario(
                name="skip-first-write",
                description="op 1 skips {s1, s2} — a schedule, not a fault",
                policy_factory=lambda: PlannedSchedulePolicy(
                    [PlannedSkip(op=1, objects=(1, 2))]
                ),
            ),
            overwrite=True,
        )
        result = (
            Cluster("fast-regular", t=1, S=4)
            .with_scenario("skip-first-write")
            .with_operations([("write", "v1", 0), ("read", 1, 120)])
            .check("regularity")
            .run(trials=1)
        )
        trial = result.trials[0]
        assert trial.incomplete == 1  # the skipped write never completes
        assert trial.checks["regularity"].ok

    def test_with_schedule_stacks_on_scenario_policy(self):
        register_scenario(
            "skip-first-write-stacking",
            lambda t: Scenario(
                name="skip-first-write-stacking",
                policy_factory=lambda: PlannedSchedulePolicy(
                    [PlannedSkip(op=1, objects=(1, 2))]
                ),
            ),
            overwrite=True,
        )
        result = (
            Cluster("fast-regular", t=1, S=4)
            .with_scenario("skip-first-write-stacking")
            .with_operations([("write", "v1", 0), ("read", 1, 120)])
            .with_schedule(PlannedSkip(op=2, objects=(4,), withhold_replies=True))
            .check("regularity")
            .run(trials=1)
        )
        trial = result.trials[0]
        # Both layers bite: the scenario starves the write, the stacked rule
        # silences s4's replies to the read — which still completes on 3.
        assert trial.incomplete == 1
        assert trial.checks["regularity"].ok

    def test_scenarios_without_policies_keep_default_fabric(self):
        backend = (
            Cluster("fast-regular", t=1).with_scenario("fault-free").build_backend()
        )
        assert not isinstance(backend.simulator.network.policy, PlannedSchedulePolicy)

"""Tests for the declarative Cluster builder and its structured results."""

import json

import pytest

from repro.api import Cluster, available_checks, get_spec, sweep
from repro.errors import ConfigurationError
from repro.registers.base import RegisterSystem


class TestBuilderFluency:
    def test_builder_methods_return_new_instances(self):
        base = Cluster("abd", t=1)
        faulted = base.with_faults("crash")
        checked = faulted.check("atomicity")
        assert base is not faulted and faulted is not checked
        # The template is unaffected: running it stays fault-free.
        assert base.run(seed=1).faults.effective == 0
        assert checked.run(seed=1).faults.effective == 1

    def test_unknown_protocol_and_check_rejected_early(self):
        with pytest.raises(ConfigurationError):
            Cluster("no-such-protocol")
        with pytest.raises(ConfigurationError, match="atomicity"):
            Cluster("abd").check("totality")
        with pytest.raises(ConfigurationError):
            Cluster("abd").with_faults("no-such-fault")

    def test_available_checks(self):
        assert set(available_checks()) >= {"atomicity", "regularity", "safety", "linearizability"}

    def test_workload_validation(self):
        with pytest.raises(ConfigurationError):
            Cluster("abd").with_workload(reads=1.5)
        with pytest.raises(ConfigurationError):
            Cluster("abd").with_workload(operations=0)
        with pytest.raises(ConfigurationError):
            Cluster("abd").with_workload(spacing=-1)

    def test_explicit_operations_validate_reader_indices(self):
        with pytest.raises(ConfigurationError, match="readers"):
            Cluster("abd", n_readers=2).with_operations([("read", 9, 0)])
        with pytest.raises(ConfigurationError, match="read/write"):
            Cluster("abd").with_operations([("scan", 1, 0)])

    def test_build_backend_is_the_system(self):
        system = Cluster("fast-regular", t=1).with_faults("silent").build_backend()
        assert isinstance(system, RegisterSystem)
        assert system.ctx.S == 4
        assert sum(1 for s in system.servers if s.behavior is not None) == 1


class TestRun:
    def test_run_is_deterministic_per_seed(self):
        cluster = Cluster("abd", t=1).with_workload(operations=10).check("atomicity")
        first = cluster.run(trials=2, seed=42).to_dict()
        second = cluster.run(trials=2, seed=42).to_dict()
        assert first == second
        assert first != cluster.run(trials=2, seed=43).to_dict()

    def test_trials_use_consecutive_seeds(self):
        result = Cluster("abd").run(trials=3, seed=10)
        assert [trial.seed for trial in result.trials] == [10, 11, 12]

    def test_explicit_operations_replayed_each_trial(self):
        result = (
            Cluster("abd")
            .with_operations([("write", "x", 0), ("read", 1, 50)])
            .check("atomicity")
            .run(trials=2, seed=0)
        )
        assert result.ok
        for trial in result.trials:
            assert trial.seed is None
            assert len(trial.write_rounds) == 1 and len(trial.read_rounds) == 1
            assert len(trial.history.records) == 2

    def test_result_is_structured_and_serializable(self):
        result = (
            Cluster("fast-regular", t=2)
            .with_faults("stale-echo", count=2)
            .check("regularity")
            .run(trials=2, seed=7)
        )
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["protocol"] == "fast-regular"
        assert payload["S"] == 7 and payload["t"] == 2
        assert payload["faults"]["effective"] == 2
        assert len(payload["trials"]) == 2
        assert payload["trials"][0]["checks"]["regularity"]["ok"] is True
        assert "2/" in result.row()["writes (worst/mean)"]
        assert "fast-regular" in result.render()

    def test_check_failures_are_recorded_not_raised(self):
        # ABD is crash-tolerant only; t fabricating objects can defeat it.
        result = (
            Cluster("abd", t=1)
            .with_faults("fabricating", count=1)
            .with_workload(operations=12, spacing=20)
            .check("atomicity")
            .run(trials=4, seed=2)
        )
        assert len(result.trials) == 4  # no exception even if checks fail
        for trial, verdict in result.failures():
            assert verdict.explanation

    def test_scenario_adoption(self):
        result = Cluster("fast-regular", t=2).with_scenario("replay").run(seed=1)
        assert result.scenario == "replay"
        assert result.faults.effective == 2
        assert all("stale-echo" in how for how in result.faults.assignments.values())


class TestFaultStacking:
    def test_fault_groups_stack_and_clamp(self):
        result = (
            Cluster("fast-regular", t=2)
            .with_faults("silent", count=1)
            .with_faults("crash", count=3)  # clamped: only one slot left
            .run(seed=0)
        )
        assert result.faults.requested == 4
        assert result.faults.effective == 2
        assert result.scenario == "silent×1+crash×3"

    def test_strict_overfault_raises(self):
        cluster = Cluster("fast-regular", t=1).with_faults("silent", count=2, strict=True)
        with pytest.raises(ConfigurationError, match="strict"):
            cluster.run(seed=0)

    def test_allow_overfault_bypasses_the_clamp(self):
        # Over-threshold silence stalls quorums, so schedule a single
        # operation: the point is the inventory, not completion.
        result = (
            Cluster("fast-regular", t=1, S=7, allow_overfault=True)
            .with_faults("silent", count=2)
            .with_operations([("write", "x", 0)])
            .run(seed=0)
        )
        assert result.faults.effective == 2
        assert result.faults.requested == 2

    def test_fault_kwargs_reach_the_behaviour(self):
        result = Cluster("abd", t=1).with_faults("crash", survive_messages=1).run(seed=0)
        assert result.faults.assignments["s1"] == "crash-after-1"


class TestSweep:
    def test_sweep_defaults_to_metadata_scenarios(self):
        result = sweep(["abd"], t=1, operations=6)
        assert [run.scenario for run in result.runs] == list(get_spec("abd").scenarios)
        assert result.worst_rounds("abd") == (1, 2)

    def test_sweep_table_renders_every_cell(self):
        result = sweep(["abd", "secret-token"], t=1, operations=6, checks=("regularity",))
        table = result.table("sweep")
        assert "abd" in table and "secret-token" in table
        assert result.protocols() == ("abd", "secret-token")
        assert all(run.trials[0].checks["regularity"].ok for run in result.runs)

    def test_unknown_protocol_in_results_lookup(self):
        with pytest.raises(ConfigurationError):
            sweep(["abd"], t=1, operations=6).worst_rounds("zab")

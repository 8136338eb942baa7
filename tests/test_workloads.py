"""Tests for workload generation and scenarios."""

import pytest

from repro.api.cluster import _materialize_behaviors
from repro.errors import ConfigurationError
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.scenarios import get_scenario


class TestGenerator:
    def test_deterministic_per_seed(self):
        a = WorkloadGenerator(seed=5).plan(30)
        b = WorkloadGenerator(seed=5).plan(30)
        assert a == b

    def test_different_seeds_differ(self):
        assert WorkloadGenerator(seed=1).plan(30) != WorkloadGenerator(seed=2).plan(30)

    def test_plan_length(self):
        assert len(WorkloadGenerator().plan(17)) == 17

    def test_read_fraction_extremes(self):
        reads_only = WorkloadGenerator(read_fraction=1.0).plan(20)
        assert all(p.kind == "read" for p in reads_only)
        writes_only = WorkloadGenerator(read_fraction=0.0).plan(20)
        assert all(p.kind == "write" for p in writes_only)

    def test_write_values_unique(self):
        plans = WorkloadGenerator(read_fraction=0.0).plan(20)
        values = [p.value for p in plans]
        assert len(set(values)) == len(values)

    def test_per_client_sequentiality_window(self):
        plans = WorkloadGenerator(seed=3, read_fraction=0.5, spacing=1).plan(60)
        last: dict = {}
        for plan in plans:
            key = (plan.kind, plan.client_index)
            if key in last:
                assert plan.at >= last[key] + 500
            last[key] = plan.at

    def test_client_indices_in_range(self):
        plans = WorkloadGenerator(seed=1, n_readers=3).plan(50)
        for plan in plans:
            if plan.kind == "read":
                assert 1 <= plan.client_index <= 3

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WorkloadGenerator(read_fraction=2.0)
        with pytest.raises(ConfigurationError):
            WorkloadGenerator(n_readers=0)
        with pytest.raises(ConfigurationError):
            WorkloadGenerator(spacing=-1)

    def test_plans_drive_a_register_system(self):
        from repro.registers.abd import AbdProtocol
        from repro.registers.base import RegisterSystem
        from repro.spec.atomicity import check_swmr_atomicity

        system = RegisterSystem(AbdProtocol(), t=1, n_readers=2)
        for plan in WorkloadGenerator(seed=7, spacing=50).plan(12):
            system.schedule(plan)
        system.run()
        history = system.history()
        assert sum(r.complete for r in history.records) == 12
        assert check_swmr_atomicity(history).ok


class TestKeyedGenerator:
    def test_keyless_plans_carry_no_key(self):
        assert all(p.key is None for p in WorkloadGenerator(seed=1).plan(20))

    def test_keyed_plans_deterministic_per_seed(self):
        a = WorkloadGenerator(seed=5, keys=4, key_skew=1.0).plan(40)
        b = WorkloadGenerator(seed=5, keys=4, key_skew=1.0).plan(40)
        assert a == b
        assert a != WorkloadGenerator(seed=6, keys=4, key_skew=1.0).plan(40)

    def test_key_count_expands_to_names(self):
        generator = WorkloadGenerator(seed=1, keys=3)
        assert generator.keys == ("k1", "k2", "k3")
        assert all(p.key in generator.keys for p in generator.plan(30))

    def test_explicit_key_names_pass_through(self):
        generator = WorkloadGenerator(seed=1, keys=("users", "orders"))
        assert {p.key for p in generator.plan(40)} <= {"users", "orders"}

    def test_zero_skew_is_roughly_uniform(self):
        plans = WorkloadGenerator(seed=7, keys=4, key_skew=0.0).plan(400)
        counts = {key: 0 for key in ("k1", "k2", "k3", "k4")}
        for plan in plans:
            counts[plan.key] += 1
        assert min(counts.values()) > 50  # uniform expectation: 100 each

    def test_skew_concentrates_on_the_first_keys(self):
        plans = WorkloadGenerator(seed=7, keys=8, key_skew=2.0).plan(400)
        counts: dict = {}
        for plan in plans:
            counts[plan.key] = counts.get(plan.key, 0) + 1
        # Zipf(2) over 8 ranks puts ~65% of the mass on k1.
        assert counts.get("k1", 0) > 3 * counts.get("k8", 0)
        assert counts.get("k1", 0) > counts.get("k2", 0)

    def test_per_key_write_windows_are_independent(self):
        # Each key has its own writer, so writes serialize per key only;
        # readers stay sequential across the whole keyspace.
        plans = WorkloadGenerator(seed=3, keys=4, read_fraction=0.5, spacing=1).plan(80)
        last: dict = {}
        for plan in plans:
            window = (
                ("write", plan.client_index, plan.key)
                if plan.kind == "write"
                else ("read", plan.client_index)
            )
            if window in last:
                assert plan.at >= last[window] + 500
            last[window] = plan.at

    def test_keyed_validation(self):
        with pytest.raises(ConfigurationError):
            WorkloadGenerator(keys=0)
        with pytest.raises(ConfigurationError):
            WorkloadGenerator(keys=("a", "a"))
        with pytest.raises(ConfigurationError):
            WorkloadGenerator(keys=("a/b",))
        with pytest.raises(ConfigurationError):
            WorkloadGenerator(keys=2, key_skew=-1.0)


class TestScenarios:
    def test_fault_plans_respect_threshold(self):
        for name in ("fault-free", "crash", "silent", "replay", "fabricate"):
            scenario = get_scenario(name, 2)
            behaviors = _materialize_behaviors(scenario.name, (), 2, False)
            assert len(behaviors) == sum(count for _, count, *_ in scenario.faults) <= 2

    def test_fault_free_has_no_behaviors(self):
        scenario = get_scenario("fault-free", 3)
        assert scenario.faults == ()
        assert _materialize_behaviors(scenario.name, (), 3, False) == {}

    def test_behaviors_are_fresh_instances(self):
        scenario = get_scenario("crash", 2)
        behaviors = _materialize_behaviors(scenario.name, (), 2, False)
        instances = list(behaviors.values())
        assert instances[0] is not instances[1]

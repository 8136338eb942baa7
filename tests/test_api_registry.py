"""Tests for the protocol / fault / scenario registries of the facade."""

import pytest

from repro.api import (
    Cluster,
    available_faults,
    available_protocols,
    fault_spec,
    get_protocol,
    get_spec,
    protocol_specs,
)
from repro.errors import ConfigurationError
from repro.registers.base import RegisterProtocol
from repro.sim.process import FaultBehavior
from repro.workloads import scenarios
from repro.workloads.scenarios import (
    Scenario,
    available_scenarios,
    get_scenario,
    register_scenario,
)


class TestProtocolRegistry:
    def test_registry_covers_the_whole_suite(self):
        names = available_protocols()
        assert len(names) >= 8
        for expected in (
            "abd", "mw-abd", "byz-safe", "fast-regular", "bounded-regular",
            "secret-token", "lucky-atomic", "atomic-fast-regular",
            "atomic-secret-token", "strawman-2r", "strawman-3r",
        ):
            assert expected in names

    def test_every_protocol_constructible_by_name(self):
        for name in available_protocols():
            protocol = get_protocol(name)
            assert isinstance(protocol, RegisterProtocol)

    def test_instances_are_fresh_not_shared(self):
        assert get_protocol("abd") is not get_protocol("abd")

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_metadata_min_size_passes_validation(self, t):
        for spec in protocol_specs():
            get_protocol(spec.name).validate_configuration(spec.min_size(t), t)

    @pytest.mark.parametrize("t", [1, 2])
    def test_one_object_below_minimum_is_rejected(self, t):
        for spec in protocol_specs():
            with pytest.raises(ConfigurationError):
                get_protocol(spec.name).validate_configuration(spec.min_size(t) - 1, t)

    def test_aliases_resolve_to_the_same_spec(self):
        assert get_spec("lucky") is get_spec("lucky-atomic")
        assert get_spec("atomic(fast-regular)") is get_spec("atomic-fast-regular")

    def test_unknown_name_lists_available(self):
        with pytest.raises(ConfigurationError, match="abd"):
            get_protocol("paxos")

    def test_scenarios_metadata_names_registered_scenarios(self):
        for spec in protocol_specs():
            for scenario in spec.scenarios:
                assert scenario in available_scenarios(), (spec.name, scenario)

    def test_advertised_consistency_check_holds_end_to_end(self):
        """Each protocol satisfies its own semantics rung on a real run."""
        for spec in protocol_specs():
            result = (
                Cluster(spec.name, t=1)
                .with_workload(operations=8, spacing=150)
                .check(spec.default_check())
                .run(trials=1, seed=3)
            )
            assert result.ok, (spec.name, result.failures())
            assert result.incomplete == 0

    def test_atomic_protocols_run_under_stale_echo_by_name(self):
        """The acceptance-criterion loop: structured results under faults."""
        atomic = [s for s in protocol_specs() if s.semantics == "atomic"]
        assert atomic
        for spec in atomic:
            result = (
                Cluster(spec.name, t=2)
                .with_faults("stale-echo", count=1)
                .check("atomicity")
                .run(trials=3, seed=1)
            )
            assert len(result.trials) == 3
            for trial in result.trials:
                assert trial.write_rounds or trial.read_rounds
                assert "atomicity" in trial.checks
            assert result.faults.effective == 1


class TestFaultRegistry:
    def test_builtin_behaviours_present(self):
        names = available_faults()
        for expected in ("crash", "silent", "stale-echo", "fabricating", "flaky"):
            assert expected in names

    def test_instances_are_behaviours_and_fresh(self):
        for name in available_faults():
            behavior = fault_spec(name).build()
            assert isinstance(behavior, FaultBehavior)
            assert behavior is not fault_spec(name).build()

    def test_maker_kwargs_forwarded(self):
        behavior = fault_spec("crash").build(survive_messages=7)
        assert behavior.survive_messages == 7

    def test_aliases(self):
        assert fault_spec("replay") is fault_spec("stale-echo")
        assert fault_spec("fabricate") is fault_spec("fabricating")

    def test_unknown_fault_rejected(self):
        with pytest.raises(ConfigurationError, match="stale-echo"):
            fault_spec("gremlin")

    def test_a_custom_behaviour_without_describe_runs_under_its_class_name(self, monkeypatch):
        """``register_fault`` is public: a behaviour that only answers
        ``reply`` runs, and the fault inventory labels it by its class."""
        from repro.api import faults

        class Mute(FaultBehavior):
            def reply(self, server, message, honest_payload):
                return None

        fault_spec("silent")  # register the built-ins before copying them
        monkeypatch.setattr(faults, "_FAULTS", dict(faults._FAULTS))
        faults.register_fault("mute", Mute, model="benign")
        result = Cluster("abd", t=1).with_faults("mute").run(trials=1)
        assert result.faults.assignments == {"s1": "Mute"}
        assert result.ok and result.incomplete == 0

    def test_a_maker_is_introspected_once(self, monkeypatch):
        """``timed`` validates its inner fault on every build — once per
        simulated schedule — so the maker's signature is read only once."""
        import inspect
        from unittest import mock

        from repro.api import faults
        from repro.faults.adversary import CrashAt
        from repro.faults.timing import timed_fault

        fault_spec("silent")  # register the built-ins before copying them
        monkeypatch.setattr(faults, "_FAULTS", dict(faults._FAULTS))
        faults.register_fault(
            "crash-once", lambda survive_messages=3: CrashAt(survive_messages=survive_messages),
            model="benign", timing=("survive_messages",),
        )
        with mock.patch("inspect.signature", wraps=inspect.signature) as signature:
            first, second = timed_fault("crash-once", at=2), timed_fault("crash-once", at=2)
        assert first is not second
        assert signature.call_count == 1
        assert fault_spec("crash-once").params() == {"survive_messages": 3}


class TestScenarioRegistry:
    def test_get_scenario_builds_for_threshold(self):
        scenario = get_scenario("crash", t=3)
        assert scenario.faults == (("crash", 3),)
        assert Cluster("abd", t=3).with_scenario("crash").run().faults.effective == 3

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError, match="fault-free"):
            get_scenario("apocalypse", t=1)

    def test_custom_scenario_registration(self):
        register_scenario(
            "one-silent",
            lambda t: Scenario(
                name="one-silent",
                faults=(("silent", 1),),
            ),
            overwrite=True,
        )
        assert "one-silent" in available_scenarios()
        result = Cluster("fast-regular", t=2).with_scenario("one-silent").run(seed=5)
        assert result.faults.effective == 1

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_scenario("crash", lambda t: get_scenario("crash", t))


#: Every registered scenario's adversary as the parent commit (where each
#: scenario built its behaviours with its own maker lambda) materialized it:
#: name → (each faulty object's ``describe()``, count at t = 1, 2, 3).
SCENARIO_FAULTS = {
    "fault-free": (None, (0, 0, 0)),
    "crash": ("crash-after-3", (1, 2, 3)),
    "silent": ("silent", (1, 2, 3)),
    "replay": ("stale-echo", (1, 2, 3)),
    "fabricate": ("fabricating", (1, 2, 3)),
    "crash-storm": ("flap(survive=2, rejoin=1, cycles=3)", (1, 1, 1)),
    "rolling-restart": ("rolling-restart(base=3, stagger=6, rejoin=2)", (3, 5, 7)),
}


class TestScenarioFaults:
    def test_the_table_names_every_built_in_scenario(self):
        # Built in = registered by the scenarios module itself, whatever
        # other tests have added to the registry since.
        assert set(SCENARIO_FAULTS) == {
            name for name, builder in scenarios._SCENARIOS.items()
            if builder.__module__ == scenarios.__name__
        }

    @pytest.mark.parametrize("t", (1, 2, 3))
    @pytest.mark.parametrize("name", sorted(SCENARIO_FAULTS))
    def test_registry_resolved_scenarios_materialize_what_their_makers_did(self, name, t):
        describe, counts = SCENARIO_FAULTS[name]
        count = counts[t - 1]
        cluster = Cluster("abd", t=t, durability="mem").with_scenario(name)
        behaviors, inventory = cluster._materialize_faults()
        assert inventory.to_dict() == {
            "requested": count,
            "effective": count,
            "assignments": {f"s{index}": describe for index in range(1, count + 1)},
        }
        assert [b.describe() for _, b in sorted(behaviors.items())] == [describe] * count
        # The request still names the scenario and carries no groups of its
        # own, so stored witnesses and JSONL rows replay with no loader.
        request = cluster._request_fields()
        assert request["scenario"] == name and request["fault_groups"] == ()


class TestFaultClamp:
    """One clamp rule, whether the groups come from ``with_faults`` or from
    a scenario's declaration."""

    @staticmethod
    def _five_crashes():
        register_scenario(
            "five-crashes",
            lambda t: Scenario(name="five-crashes", faults=(("crash", 5),)),
            overwrite=True,
        )
        return "five-crashes"

    def test_the_inventory_reports_the_clamp(self):
        for cluster in (
            Cluster("abd", t=2).with_faults("crash", count=5),
            Cluster("abd", t=2).with_scenario(self._five_crashes()),
        ):
            behaviors, inventory = cluster._materialize_faults()
            assert (inventory.requested, inventory.effective, len(behaviors)) == (5, 2, 2)
            assert cluster.run().faults.describe().endswith("(requested 5)")

    def test_strict_raises_instead_of_clamping(self):
        with pytest.raises(ConfigurationError, match="strict"):
            Cluster("abd", t=2).with_faults("crash", count=5, strict=True).run()

    def test_strict_within_threshold_is_fine(self):
        result = Cluster("abd", t=2).with_faults("crash", count=2, strict=True).run()
        assert result.faults.effective == 2

    def test_an_empty_request_has_no_effect(self):
        for cluster in (
            Cluster("abd", t=1).with_faults("crash", count=0, strict=True),
            Cluster("abd", t=1).with_scenario("fault-free"),
        ):
            behaviors, inventory = cluster._materialize_faults()
            assert behaviors == {} and inventory.to_dict() == {
                "requested": 0, "effective": 0, "assignments": {},
            }
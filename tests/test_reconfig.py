"""The reconfigurable backend: membership epochs, repair, and churn faults.

Covers the PR's acceptance criteria end to end:

* a repair is an ordinary two-round client operation (transfer read +
  install) whose rounds are accounted separately from reads and writes;
* a rolling-replacement churn run — every original object replaced once
  while client operations keep flowing — completes with an atomic verdict
  and **byte-identical** results across both engines and serial/parallel;
* the explorer certifies quorum state transfer at small bounds and refutes
  the under-quorum variant with a minimized, replayable witness;
* the churn fault family (perm-crash, flap, rolling-replace) and the
  recovery scenarios (rolling-restart, crash-storm) behave identically on
  both engines, and their configuration errors fire parent-side.
"""

from __future__ import annotations

import pytest

from repro.api import Cluster, fault_spec
from repro.errors import ConfigurationError
from repro.sim.tracing import trace_fingerprint
from repro.types import scoped_operation_serials

pytestmark = pytest.mark.filterwarnings("error")


def churn_cluster():
    """The acceptance-run shape: every original member replaced once.

    rolling-replace kills s1 after 4 deliveries, s2 after 12, s3 after 20;
    the repairs retire each dead member in sequence while nine client
    operations keep flowing.  ``allow_overfault`` is required because all
    three originals misbehave over the run (staggered, so at most t=1 is
    down at any instant).
    """
    return (
        Cluster("abd", t=1, S=3, backend="reconfig", allow_overfault=True)
        .with_faults("rolling-replace", count=3, base=4, stagger=8)
        .with_repairs((1, 40), (2, 110), (3, 180))
        .with_workload(operations=9, reads=0.5, spacing=30)
        .check("atomicity")
    )


def explore_base():
    """The certify/refute pair's shared configuration.

    s1 permanently crashes after one delivery; the repair at time 5
    replaces it.  With the default transfer quorum (S - t = 2) the state
    transfer must see a surviving member that stored the write; with
    ``xfer_quorum=1`` it may read only the crashed-then-replaced member's
    blank spare and resurrect ⊥.
    """
    return (
        Cluster("abd", t=1, S=3, backend="reconfig")
        .with_faults("perm-crash", survive_messages=1)
        .with_operations([("write", "v1", 0), ("read", 1, 12)])
        .check("atomicity")
    )


class TestRepairMechanics:
    def test_repair_is_two_rounds_and_flips_the_epoch(self):
        cluster = (
            Cluster("abd", t=1, S=3, backend="reconfig")
            .with_operations([("write", "v1", 0), ("read", 1, 12)])
            .with_repairs((1, 5))
            .check("atomicity")
        )
        result = cluster.run(trials=1, seed=0, keep_history=True)
        assert result.ok and result.incomplete == 0
        assert result.trials[0].repair_rounds == [2]

    def test_epoch_advances_and_reads_survive_replacement(self):
        backend = (
            Cluster("abd", t=1, S=3, backend="reconfig")
            .with_repairs((1, 5))
            .build_backend()
        )
        system = backend.system
        assert system.epoch == 0
        assert [str(pid) for pid in system.members] == ["s1", "s2", "s3"]
        from repro.workloads.generator import OperationPlan

        backend.schedule(OperationPlan(kind="write", client_index=0,
                                       value="v1", at=0))
        backend.schedule(OperationPlan(kind="read", client_index=1,
                                       value=None, at=12))
        backend.run()
        assert system.epoch == 1
        assert [str(pid) for pid in system.members] == ["s4", "s2", "s3"]
        assert system.completed_repairs == 1

    def test_history_excludes_repair_operations(self):
        cluster = (
            Cluster("abd", t=1, S=3, backend="reconfig")
            .with_operations([("write", "v1", 0), ("read", 1, 12)])
            .with_repairs((1, 5))
            .check("atomicity")
        )
        result = cluster.run(trials=1, seed=0, keep_history=True)
        kinds = {record.op_id.kind for record in result.trials[0].history.records}
        assert kinds == {"write", "read"}  # repairs never enter the checked history

    def test_repair_rounds_serialized_only_when_present(self):
        churn = churn_cluster().run(trials=1, seed=3)
        assert churn.trials[0].to_dict()["repair_rounds"] == [2, 2, 2]
        plain = (
            Cluster("abd", t=1)
            .with_workload(operations=3)
            .check("atomicity")
            .run(trials=1, seed=0)
        )
        assert "repair_rounds" not in plain.trials[0].to_dict()


class TestChurnAcceptanceRun:
    def test_rolling_replacement_is_atomic_on_both_engines(self, reference_engine):
        production = churn_cluster().run(trials=2, seed=3)
        assert production.ok, production.failures()
        assert production.incomplete == 0
        for trial in production.trials:
            assert trial.repair_rounds == [2, 2, 2]
        with reference_engine():
            reference = churn_cluster().run(trials=2, seed=3)
        assert production.to_dict() == reference.to_dict()

    def test_serial_and_parallel_runs_are_byte_identical(self):
        serial = churn_cluster().run(trials=3, seed=3, parallel=False)
        pooled = churn_cluster().run(trials=3, seed=3, parallel=True,
                                     max_workers=2)
        assert serial.to_dict() == pooled.to_dict()

    def test_wire_trace_fingerprints_match_across_engines(self, reference_engine):
        def fingerprint():
            with scoped_operation_serials():
                result = churn_cluster().run(trials=1, seed=3, keep_trace=True)
            return trace_fingerprint(result.trials[0].trace)

        production = fingerprint()
        with reference_engine():
            assert fingerprint() == production


class TestExploreCertifiesRepair:
    def test_quorum_transfer_is_certified_at_small_bounds(self):
        result = explore_base().with_repairs((1, 5)).explore(max_holds=1)
        assert result.certified
        assert not result.witnesses

    def test_under_quorum_transfer_is_refuted_with_a_witness(self):
        result = (
            explore_base()
            .with_repairs((1, 5), xfer_quorum=1)
            .explore(max_holds=1)
        )
        assert not result.certified
        assert len(result.witnesses) == 1
        witness = result.witnesses[0]
        assert len(witness.decisions) == 1  # minimized to a single held link
        assert witness.failures[0][0] == "atomicity"
        assert "stale read" in witness.failures[0][1]

    def test_refutation_witness_replays_on_both_engines(self, reference_engine):
        result = (
            explore_base()
            .with_repairs((1, 5), xfer_quorum=1)
            .explore(max_holds=1)
        )
        witness = result.witnesses[0]
        assert witness.reproduces()
        with reference_engine():
            assert witness.reproduces()


class TestReconfigValidation:
    def test_repairs_need_the_reconfig_backend(self):
        with pytest.raises(ConfigurationError, match="reconfig backend"):
            Cluster("abd", t=1).with_repairs((1, 5))

    def test_member_index_out_of_range(self):
        with pytest.raises(ConfigurationError, match="member"):
            (Cluster("abd", t=1, S=3, backend="reconfig")
             .with_operations([("write", "v", 0)])
             .with_repairs((4, 5))
             .check("atomicity").run(trials=1, seed=0))

    def test_duplicate_member_rejected(self):
        with pytest.raises(ConfigurationError, match="at most once"):
            (Cluster("abd", t=1, S=3, backend="reconfig")
             .with_operations([("write", "v", 0)])
             .with_repairs((1, 5), (1, 25))
             .check("atomicity").run(trials=1, seed=0))

    def test_spares_must_cover_repairs(self):
        with pytest.raises(ConfigurationError, match="spare"):
            (Cluster("abd", t=1, S=3, backend="reconfig")
             .with_operations([("write", "v", 0)])
             .with_repairs((1, 5), (2, 25), spares=1)
             .check("atomicity").run(trials=1, seed=0))

    def test_xfer_quorum_bounds(self):
        with pytest.raises(ConfigurationError, match="xfer_quorum"):
            (Cluster("abd", t=1, S=3, backend="reconfig")
             .with_operations([("write", "v", 0)])
             .with_repairs((1, 5), xfer_quorum=4)
             .check("atomicity").run(trials=1, seed=0))

    def test_non_transferable_protocol_rejected(self):
        with pytest.raises(ConfigurationError, match="not reconfigurable"):
            (Cluster("fast-regular", t=1, backend="reconfig")
             .with_operations([("write", "v", 0)])
             .with_repairs((1, 5))
             .check("regularity").run(trials=1, seed=0))

    def test_keyed_plans_rejected(self):
        from repro.workloads.generator import OperationPlan

        backend = (
            Cluster("abd", t=1, S=3, backend="reconfig")
            .with_repairs((1, 5))
            .build_backend()
        )
        with pytest.raises(ConfigurationError, match="sharded"):
            backend.schedule(OperationPlan(kind="write", client_index=0,
                                           value="v", at=0, key="hot"))


class TestChurnFaults:
    def test_perm_crash_needs_no_durability(self):
        result = (
            Cluster("abd", t=1, S=3)
            .with_faults("perm-crash", survive_messages=1)
            .with_workload(operations=6, spacing=30)
            .check("atomicity")
            .run(trials=2, seed=1)
        )
        assert result.ok and result.incomplete == 0

    @pytest.mark.parametrize("scenario", ["rolling-restart", "crash-storm"])
    def test_recovery_scenarios_match_across_engines(self, scenario, reference_engine):
        cluster = (
            Cluster("abd", t=1, S=3, durability="mem")
            .with_scenario(scenario)
            .with_workload(operations=8, spacing=25)
            .check("atomicity")
        )
        production = cluster.run(trials=2, seed=5)
        assert production.ok, f"{scenario}: {production.failures()}"
        with reference_engine():
            reference = cluster.run(trials=2, seed=5)
        assert production.to_dict() == reference.to_dict()

    @pytest.mark.parametrize("scenario", ["rolling-restart", "crash-storm"])
    def test_recovery_scenarios_require_durability(self, scenario):
        cluster = (
            Cluster("abd", t=1, S=3)
            .with_scenario(scenario)
            .with_workload(operations=4)
            .check("atomicity")
        )
        with pytest.raises(ConfigurationError, match="durability"):
            cluster.run(trials=1, seed=0)
        with pytest.raises(ConfigurationError, match="durability"):
            cluster.explore(max_holds=1)

    def test_flap_restabilises_after_cycles(self):
        result = (
            Cluster("abd", t=1, S=3, durability="mem")
            .with_faults("flap", survive_messages=2, rejoin_after=1, cycles=2)
            .with_workload(operations=8, spacing=25)
            .check("atomicity")
            .run(trials=2, seed=7)
        )
        assert result.ok and result.incomplete == 0


class TestFaultArgValidation:
    def test_unknown_fault_arg_raises_parent_side(self):
        with pytest.raises(ConfigurationError,
                           match="accepted: survive_messages"):
            Cluster("abd", t=1).with_faults("perm-crash", survive=1)

    def test_fault_spec_params_enumerates_maker_signature(self):
        assert fault_spec("perm-crash").params() == {"survive_messages": 3}
        assert fault_spec("rolling-replace").params() == {"base": 3,
                                                          "stagger": 6}
        assert fault_spec("flap").params() == {
            "survive_messages": 2, "rejoin_after": 1, "cycles": 2,
        }
        assert fault_spec("silent").params() == {}

    def test_params_serialized_in_to_dict(self):
        payload = fault_spec("perm-crash").to_dict()
        assert payload["params"] == {"survive_messages": 3}


class TestReconfigCli:
    def test_run_with_repairs(self, capsys):
        from repro.__main__ import main

        assert main([
            "run", "--protocol", "abd", "--backend", "reconfig",
            "--allow-overfault",
            "--faults", "rolling-replace", "--count", "3",
            "--fault-arg", "base=4", "--fault-arg", "stagger=8",
            "--repair", "1@40", "--repair", "2@110", "--repair", "3@180",
            "--ops", "9", "--reads", "0.5", "--spacing", "30",
            "--trials", "1", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "atomicity:ok" in out

    def test_run_scenario_flag(self, capsys):
        from repro.__main__ import main

        assert main([
            "run", "--protocol", "abd", "--scenario", "crash-storm",
            "--durability", "mem", "--ops", "6", "--trials", "1",
        ]) == 0
        assert "atomicity:ok" in capsys.readouterr().out

    def test_repair_flag_parse_error(self, capsys):
        from repro.__main__ import main

        assert main([
            "run", "--protocol", "abd", "--backend", "reconfig",
            "--repair", "1:40",
        ]) == 2
        assert "MEMBER@AT" in capsys.readouterr().err

    def test_spares_without_repair_rejected(self, capsys):
        from repro.__main__ import main

        assert main([
            "run", "--protocol", "abd", "--backend", "reconfig",
            "--spares", "2",
        ]) == 2
        assert "--repair" in capsys.readouterr().err

    def test_list_faults_shows_params(self, capsys):
        from repro.__main__ import main

        assert main(["list-faults"]) == 0
        out = capsys.readouterr().out
        assert "perm-crash" in out and "rolling-replace" in out
        assert "survive_messages=3" in out
        assert "base=3, stagger=6" in out

    def test_explore_refutes_under_quorum_via_cli(self, capsys):
        from repro.__main__ import main

        argv = [
            "explore", "--protocol", "abd", "--backend", "reconfig",
            "--faults", "perm-crash", "--fault-arg", "survive_messages=1",
            "--repair", "1@5", "--ops", "2", "--reads", "0.5",
            "--spacing", "10", "--seed", "7", "--max-holds", "1",
        ]
        assert main(argv) == 0  # quorum transfer: certified
        assert "CERTIFIED" in capsys.readouterr().out
        assert main(argv + ["--xfer-quorum", "1", "--expect-violation"]) == 0
        assert "stale read" in capsys.readouterr().out

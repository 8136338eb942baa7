"""System-level tests for crash-recover faults over the durability seam.

The crash-recover family (``crash-recover``, ``fsync-lag``, ``torn-write``)
extends the PR-5 engine-equivalence contract: a run with a recovering
object must produce byte-identical ``RunResult.to_dict()`` payloads and
wire-trace fingerprints on the production and reference engines, and
serially and on a process pool.  The explorer treats recovery timing as an ordinary choice
point: it certifies a well-provisioned recovery configuration and refutes
an under-provisioned (fsync-lagged) one with a minimized witness.
"""

from __future__ import annotations

import gc
import glob
import json
import os
import tempfile
from dataclasses import replace

import pytest

from repro.api import Cluster, sweep
from repro.errors import StorageError
from repro.sim.tracing import trace_fingerprint
from repro.storage import DURABILITIES

RECOVERY_FAULTS = ("crash-recover", "fsync-lag", "torn-write")


def canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def _recovering_cluster(durability="mem", fault="crash-recover", **kwargs):
    return (
        Cluster("abd", t=1, n_readers=2, durability=durability)
        .with_faults(fault, **kwargs)
        .with_workload(operations=8, spacing=40)
        .check("atomicity")
    )


class TestRecoveryRuns:
    @pytest.mark.parametrize("durability", ("mem", "dir"))
    def test_crash_recover_completes_and_stays_atomic(self, durability):
        result = _recovering_cluster(durability=durability).run(trials=2, seed=7)
        assert result.ok
        assert result.durability == durability
        payload = result.to_dict()
        assert payload["durability"] == durability
        for trial in payload["trials"]:
            meter = trial["storage"]
            assert meter["durability"] == durability
            assert meter["retained_bytes"] > 0
            assert set(meter["objects"]) == {"s1", "s2", "s3"}

    @pytest.mark.parametrize("fault", RECOVERY_FAULTS)
    def test_production_and_reference_byte_identical(self, fault, reference_engine):
        production = _recovering_cluster(fault=fault).run(trials=2, seed=9)
        with reference_engine():
            reference = _recovering_cluster(fault=fault).run(trials=2, seed=9)
        assert canonical(production.to_dict()) == canonical(reference.to_dict())

    def test_wire_traces_identical_across_engines(self, reference_engine):
        production = _recovering_cluster().run(trials=1, seed=3, keep_trace=True)
        with reference_engine():
            reference = _recovering_cluster().run(trials=1, seed=3, keep_trace=True)
        assert trace_fingerprint(production.trials[0].trace) == trace_fingerprint(
            reference.trials[0].trace
        )

    def test_parallel_matches_serial(self):
        serial = _recovering_cluster().run(trials=3, seed=11)
        parallel = _recovering_cluster().run(trials=3, seed=11, parallel=True)
        assert canonical(serial.to_dict()) == canonical(parallel.to_dict())

    def test_mem_and_dir_retain_identical_bytes(self):
        mem = _recovering_cluster(durability="mem").run(trials=1, seed=5)
        disk = _recovering_cluster(durability="dir").run(trials=1, seed=5)
        mem_meter = mem.trials[0].storage
        dir_meter = disk.trials[0].storage
        for field in ("retained_bytes", "retained_records", "retained_timestamps",
                      "gc_retained_bytes", "gc_freed_bytes"):
            assert mem_meter[field] == dir_meter[field]

    def test_torn_write_recovery_discards_the_torn_record(self):
        # A torn final record must not wedge the run: the object rejoins
        # one update behind and ABD's quorum still masks it.
        result = _recovering_cluster(fault="torn-write").run(trials=2, seed=13)
        assert result.ok

    def test_fsync_lag_loses_exactly_the_unsynced_suffix(self):
        # Undisturbed (no held links) the lagged object rejoins stale but
        # t=1 quorums mask the staleness — the run stays atomic; the
        # explorer test below shows the adversarial schedule that doesn't.
        result = _recovering_cluster(fault="fsync-lag", lag=1).run(trials=2, seed=17)
        assert result.ok

    def test_recovery_fault_without_durability_raises(self):
        with pytest.raises(StorageError, match="durability"):
            Cluster("abd", t=1).with_faults("crash-recover").run(seed=1)

    def test_durability_axis_is_fluent_and_tagged(self):
        assert DURABILITIES == ("none", "mem", "dir")
        base = Cluster("abd", t=1)
        durable = base.with_axes(replace(base.axes, durability="mem"))
        assert base is not durable
        plain = base.with_workload(operations=4).run(seed=2)
        assert "durability" not in plain.to_dict()  # absent means default
        tagged = durable.with_workload(operations=4).run(seed=2)
        assert tagged.to_dict()["durability"] == "mem"


def _open_resources():
    """(this process's open descriptors, live ``repro-storage-*`` directories)."""
    return (
        len(os.listdir("/proc/self/fd")),
        len(glob.glob(os.path.join(tempfile.gettempdir(), "repro-storage-*"))),
    )


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
class TestATrialClosesWhatItOpens:
    """Journal files and temp directories of ``durability="dir"`` are released
    by the call that opened them, not whenever the collector gets to them."""

    @pytest.mark.parametrize("call", (
        lambda cluster: cluster.run(trials=4),
        lambda cluster: cluster.run(trials=2, parallel=True, max_workers=2),
        lambda cluster: cluster.with_operations(
            [("write", "v1", 0), ("read", 1, 40)]
        ).explore(max_holds=1),
        lambda _: sweep(("abd",), scenarios=("fault-free", "crash"), trials=2, durability="dir"),
    ), ids=("run", "run-parallel", "explore", "sweep"))
    def test_no_descriptor_or_directory_outlives_the_call(self, call):
        cluster = _recovering_cluster(durability="dir")
        gc.collect()  # earlier tests' garbage, not ours, out of the baseline
        before = _open_resources()
        call(cluster)
        # No gc.collect() here: the call itself must have closed everything.
        assert _open_resources() == before


class TestRecoveryExploration:
    BASE = (
        Cluster("abd", t=1, durability="mem")
        .with_operations([("write", "v1", 0), ("read", 1, 40)])
        .check("atomicity")
    )

    def test_explorer_certifies_sync_before_ack_recovery(self):
        result = self.BASE.with_faults(
            "crash-recover", survive_messages=1, rejoin_after=0
        ).explore(max_holds=2)
        assert result.certified
        assert result.violations == 0
        assert result.durability == "mem"

    def test_explorer_refutes_fsync_lagged_recovery(self):
        result = self.BASE.with_faults(
            "fsync-lag", survive_messages=1, rejoin_after=0, lag=1
        ).explore(max_holds=2)
        assert not result.certified
        assert result.witnesses
        witness = min(result.witnesses, key=lambda w: len(w.decisions))
        assert len(witness.decisions) == 1  # minimized: one held link suffices
        assert witness.failures[0][0] == "atomicity"
        assert witness.reproduces()

    def test_spacemeter_gc_shrinks_superseded_history(self):
        # Every write supersedes the previous one, so GC must reclaim the
        # whole prefix: per object only the newest record per key survives.
        result = (
            Cluster("abd", t=1, durability="mem")
            .with_workload(operations=12, reads=0.0, spacing=30)
            .check("atomicity")
            .run(seed=19)
        )
        meter = result.trials[0].storage
        assert meter["gc_retained_bytes"] < meter["retained_bytes"]
        assert meter["gc_retained_timestamps"] < meter["retained_timestamps"]
        for figures in meter["objects"].values():
            assert figures["gc_records"] <= 2  # ts + value keys, one record each


class TestRecoveryCli:
    def test_list_faults_shows_recovery_family(self, capsys):
        from repro.__main__ import main

        assert main(["list-faults"]) == 0
        out = capsys.readouterr().out
        for name in RECOVERY_FAULTS:
            assert name in out

    def test_run_durability_flag(self, capsys):
        from repro.__main__ import main

        assert main([
            "run", "--protocol", "abd", "--durability", "mem",
            "--faults", "crash-recover", "--trials", "1", "--ops", "6",
        ]) == 0
        out = capsys.readouterr().out
        assert "durability=mem" in out
        assert "crash-recover" in out

    def test_run_recovery_fault_without_durability_exits_2(self, capsys):
        from repro.__main__ import main

        assert main([
            "run", "--protocol", "abd", "--faults", "crash-recover",
            "--trials", "1", "--ops", "4",
        ]) == 2
        assert "durability" in capsys.readouterr().err

    def test_fault_arg_parameterizes_the_behaviour(self, capsys):
        from repro.__main__ import main

        assert main([
            "run", "--protocol", "abd", "--durability", "mem",
            "--faults", "fsync-lag", "--fault-arg", "survive_messages=2",
            "--fault-arg", "lag=2", "--trials", "1", "--ops", "6",
        ]) == 0
        assert "fsync-lag(lag=2, survive=2" in capsys.readouterr().out

    def test_fault_arg_validation_exits_2(self, capsys):
        from repro.__main__ import main

        # a parameter without --faults is a configuration error ...
        assert main([
            "run", "--protocol", "abd", "--fault-arg", "lag=2",
        ]) == 2
        assert "--fault-arg" in capsys.readouterr().err
        # ... and so is a malformed KEY=VALUE pair
        assert main([
            "run", "--protocol", "abd", "--faults", "crash-recover",
            "--durability", "mem", "--fault-arg", "lag",
        ]) == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_explore_refutes_from_the_command_line(self, capsys, tmp_path):
        from repro.__main__ import main

        witness = tmp_path / "stale_rejoin_cli.json"
        assert main([
            "explore", "--protocol", "abd", "--durability", "mem",
            "--faults", "fsync-lag", "--fault-arg", "survive_messages=1",
            "--fault-arg", "rejoin_after=0", "--ops", "2", "--reads", "0.5",
            "--seed", "7", "--max-holds", "2",
            "--witness", str(witness), "--expect-violation",
        ]) == 0
        capsys.readouterr()
        assert main(["replay", str(witness)]) == 0
        assert "byte-identically" in capsys.readouterr().out

"""The ``k-atomic`` backend and the consistency spectrum, end to end.

The acceptance bar for the spectrum subsystem:

* every registered protocol's fault-free run has spectrum k = 1;
* the ``k-atomic(2)`` backend under a write-overlapping workload has
  spectrum exactly 2 — atomicity fails, 2-atomicity holds;
* the measured staleness never exceeds the configured bound − 1;
* everything — run payloads, verdicts, staleness distributions — is
  byte-identical across the production/reference engines and
  serial/parallel execution;
* the explorer refutes k-atomic(1) and certifies k-atomic(2) on the same
  bounded schedule space (the committed ``k1_violation.json`` witness).
"""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.api import Cluster, protocol_specs
from repro.consistency import atomicity_spectrum, bounded_stale_view, read_staleness
from repro.errors import ConfigurationError, SpecificationError
from repro.types import BOTTOM

#: The witness scenario: w2 overlaps the read, so the lagged view returns
#: the previous value while the schedule decides whether w2 is visible.
OVERLAP_OPS = [("write", "v1", 0), ("write", "v2", 30), ("read", 1, 31)]
#: The read strictly follows both writes, so the k-lag is observable.
LAGGED_OPS = [("write", "v1", 0), ("write", "v2", 30), ("read", 1, 40)]


def _spectrum_cluster(consistency="k-atomic(2)", **kwargs):
    return Cluster("abd", consistency=consistency, **kwargs)


class TestBoundedStaleView:
    def test_bound_one_is_identity(self):
        history = (
            Cluster("abd").with_workload(operations=6).run(trials=1, keep_history=True)
            .trials[0].history
        )
        assert bounded_stale_view(history, 1) is history

    def test_bound_must_be_positive(self):
        with pytest.raises(SpecificationError):
            bounded_stale_view(
                Cluster("abd").with_workload(operations=2)
                .run(trials=1, keep_history=True).trials[0].history,
                0,
            )


class TestSpectrum:
    @pytest.mark.parametrize(
        "protocol", [s.name for s in protocol_specs()]
    )
    def test_every_protocol_is_atomic_fault_free(self, protocol):
        """Spectrum k = 1 on every registered protocol's fault-free run.

        Regular/safe protocols still produce atomic histories without an
        adversary, so the whole registry sits at the bottom of the
        spectrum when nothing misbehaves.
        """
        result = (
            Cluster(protocol, t=1)
            .with_workload(operations=8, spacing=90)
            .run(trials=2, keep_history=True)
        )
        for trial in result.trials:
            assert atomicity_spectrum(trial.history) == 1, (protocol, trial.trial)

    def test_k_atomic_backend_has_spectrum_exactly_two(self):
        result = (
            _spectrum_cluster()
            .with_operations(LAGGED_OPS)
            .check("k-atomic(1)", "k-atomic(2)")
            .run(trials=1, keep_history=True)
        )
        trial = result.trials[0]
        assert not trial.checks["k-atomic(1)"].ok
        assert trial.checks["k-atomic(2)"].ok
        assert atomicity_spectrum(trial.history) == 2

    @pytest.mark.parametrize("bound", [1, 2, 4])
    def test_staleness_never_exceeds_the_bound(self, bound):
        result = (
            _spectrum_cluster(consistency=f"k-atomic({bound})")
            .with_workload(operations=14, spacing=25, reads=0.6)
            .check(f"k-atomic({bound})")
            .run(trials=3, keep_history=True)
        )
        assert result.ok
        for trial in result.trials:
            assert trial.staleness is not None
            assert trial.staleness["max"] <= bound - 1
            assert max(s for s in read_staleness(trial.history) if s is not None) \
                <= bound - 1

    def test_atomic_runs_record_no_staleness(self):
        result = Cluster("abd").with_workload(operations=6).run(trials=1)
        assert result.trials[0].staleness is None
        assert "staleness" not in result.trials[0].to_dict()


class TestParity:
    def _payload(self, parallel=False):
        result = (
            _spectrum_cluster()
            .with_workload(operations=12, spacing=25)
            .check("k-atomic(2)")
            .run(trials=3, parallel=parallel, max_workers=2 if parallel else None)
        )
        return json.dumps(result.to_dict(), sort_keys=True)

    def test_engines_agree_byte_for_byte(self, reference_engine):
        production = self._payload()
        with reference_engine():
            assert self._payload() == production

    def test_parallel_agrees_byte_for_byte(self):
        assert self._payload() == self._payload(parallel=True)


class TestShardedSpectrum:
    def test_per_key_staleness_under_skew(self):
        result = (
            Cluster("abd", consistency="k-atomic(3)", keys=4)
            .with_workload(operations=24, spacing=25, key_skew=1.2)
            .check("k-atomic(3)")
            .run(trials=1, keep_history=True)
        )
        assert result.ok
        trial = result.trials[0]
        assert trial.staleness["max"] <= 2
        per_key = trial.staleness["per_key"]
        assert len(per_key) == 4
        assert all(stats["max"] <= 2 for stats in per_key.values())
        verdict = trial.checks["k-atomic(3)"]
        assert verdict.per_key and all(verdict.per_key.values())
        assert verdict.model == "k-atomic(3)"


class TestRoutingAndErrors:
    def test_consistency_routes_single_onto_k_atomic_backend(self):
        cluster = _spectrum_cluster()
        result = cluster.with_workload(operations=4).run(trials=1)
        assert result.backend == "k-atomic"
        assert result.consistency == "k-atomic(2)"

    def test_k_atomic_backend_defaults_consistency(self):
        result = (
            Cluster("abd", backend="k-atomic")
            .with_workload(operations=4).run(trials=1)
        )
        assert result.consistency == "k-atomic(2)"

    def test_with_consistency_is_fluent(self):
        result = (
            Cluster("abd").with_consistency("k-atomic(3)")
            .with_workload(operations=4).run(trials=1)
        )
        assert result.consistency == "k-atomic(3)"
        assert result.backend == "k-atomic"

    def test_non_atomic_consistency_rejected_off_spectrum_backends(self):
        with pytest.raises(ConfigurationError):
            Cluster("mwmr-fast-regular", consistency="k-atomic(2)")
        with pytest.raises(ConfigurationError):
            Cluster("abd", backend="reconfig", consistency="k-atomic(2)")

    def test_atomic_payloads_unchanged(self):
        """Pre-spectrum runs emit no consistency field at all."""
        payload = Cluster("abd").with_workload(operations=4).run(trials=1).to_dict()
        assert "consistency" not in payload

    def test_check_k_requires_a_k_atomic_name(self):
        with pytest.raises(ConfigurationError):
            Cluster("abd").check("atomicity", k=2)


class TestExplorerSpectrum:
    def test_refutes_k1_and_certifies_k2_on_the_same_space(self):
        base = _spectrum_cluster().with_operations(OVERLAP_OPS)
        refutation = base.check("k-atomic(1)").explore(max_holds=2)
        assert refutation.witnesses, "expected a 1-atomicity violation"
        witness = refutation.witnesses[0]
        assert witness.failures[0][0] == "k-atomic(1)"
        assert witness.probe.consistency == "k-atomic(2)"
        certification = base.check("k-atomic(2)").explore(max_holds=2)
        assert not certification.witnesses
        assert certification.exhausted
        # Same protocol, workload and bounds ⇒ the certified space is the
        # refuted one: identical hold-link alphabet on both passes.
        assert certification.alphabet == refutation.alphabet


class TestCliSpectrum:
    def test_list_checkers(self, capsys):
        assert main(["list-checkers"]) == 0
        out = capsys.readouterr().out
        assert "k-atomic" in out and "bounded-stale" in out and "atomicity" in out

    def test_run_check_model_k_atomic(self, capsys):
        assert main([
            "run", "--protocol", "abd", "--consistency", "k-atomic(2)",
            "--check-model", "k-atomic", "--k", "2",
            "--trials", "1", "--ops", "6",
        ]) == 0
        out = capsys.readouterr().out
        assert "k-atomic(2):ok" in out and "consistency=k-atomic(2)" in out

    def test_run_check_model_atomic_fails_on_stale_backend(self, capsys):
        assert main([
            "run", "--protocol", "abd", "--consistency", "k-atomic(2)",
            "--check-model", "atomic", "--trials", "1", "--ops", "8",
            "--spacing", "25",
        ]) == 1
        assert "atomicity FAILED" in capsys.readouterr().out

    def test_k_without_k_atomic_exits_2(self, capsys):
        assert main(["run", "--protocol", "abd", "--k", "3", "--trials", "1"]) == 2
        assert "--k has no effect" in capsys.readouterr().err

    def test_compare_keys_on_consistency(self, tmp_path, capsys):
        atomic, stale = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["run", "--protocol", "abd", "--trials", "1", "--ops", "4",
                     "--jsonl", str(atomic)]) == 0
        assert main(["run", "--protocol", "abd", "--consistency", "k-atomic(2)",
                     "--check-model", "k-atomic", "--trials", "1", "--ops", "4",
                     "--jsonl", str(stale)]) == 0
        capsys.readouterr()
        assert main(["compare", str(atomic), str(stale)]) == 0
        out = capsys.readouterr().out
        assert "compared 0 run(s)" in out  # models never match as like-for-like

    def test_explore_refutes_k1_via_cli(self, tmp_path, capsys):
        witness = tmp_path / "k1.json"
        assert main([
            "explore", "--protocol", "abd", "--consistency", "k-atomic(2)",
            "--check-model", "k-atomic", "--k", "1",
            "--ops", "3", "--reads", "0.4", "--spacing", "30",
            "--max-holds", "2", "--witness", str(witness), "--expect-violation",
        ]) == 0
        capsys.readouterr()
        assert main(["replay", str(witness)]) == 0
        assert "reproduced byte-identically" in capsys.readouterr().out

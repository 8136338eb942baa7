"""Tests for the ``python -m repro`` command-line reproducer."""

import json

import pytest

from repro.__main__ import main


class TestCli:
    def test_summary_runs_clean(self, capsys):
        assert main(["summary"]) == 0
        out = capsys.readouterr().out
        assert "Proposition 1" in out and "VALID" in out
        assert "Lemma 1" in out

    def test_read_bound_command(self, capsys):
        assert main(["read-bound", "--t", "1", "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert "certificate valid: True" in out

    def test_write_bound_command(self, capsys):
        assert main(["write-bound", "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert "certificate valid: True" in out

    def test_latency_command(self, capsys):
        assert main(["latency"]) == 0
        out = capsys.readouterr().out
        assert "abd" in out and "atomic(fast-regular)" in out

    def test_recurrence_command(self, capsys):
        assert main(["recurrence", "--max-k", "5"]) == 0
        out = capsys.readouterr().out
        assert "t_k" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestRegistryCli:
    def test_list_protocols(self, capsys):
        assert main(["list-protocols"]) == 0
        out = capsys.readouterr().out
        for name in ("abd", "fast-regular", "atomic-fast-regular", "secret-token",
                     "mwmr-fast-regular"):
            assert name in out
        assert "S ≥ 3t + 1" in out
        assert "multi-writer" in out  # the backend column

    def test_list_backends(self, capsys):
        assert main(["list-backends"]) == 0
        out = capsys.readouterr().out
        for name in ("single", "multi-writer", "sharded"):
            assert name in out
        assert "mwmr" in out  # aliases are shown

    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios", "--t", "2"]) == 0
        out = capsys.readouterr().out
        for name in ("fault-free", "crash", "silent", "replay", "fabricate"):
            assert name in out
        assert "replay×2" in out  # plans sized for the requested threshold

    def test_run_fault_free(self, capsys):
        assert main(["run", "--protocol", "abd"]) == 0
        out = capsys.readouterr().out
        assert "atomicity:ok" in out
        assert "all 3 trials complete" in out

    def test_run_with_faults(self, capsys):
        assert main(["run", "--protocol", "abd", "--faults", "crash"]) == 0
        out = capsys.readouterr().out
        assert "crash-after-3" in out

    def test_run_explicit_checks_and_trials(self, capsys):
        assert main([
            "run", "--protocol", "fast-regular", "--t", "2",
            "--faults", "stale-echo", "--count", "2",
            "--trials", "2", "--check", "regularity", "--check", "safety",
        ]) == 0
        out = capsys.readouterr().out
        assert "regularity:ok" in out and "safety:ok" in out

    def test_run_unknown_protocol_exits_2(self, capsys):
        assert main(["run", "--protocol", "raft"]) == 2
        assert "unknown protocol" in capsys.readouterr().err

    def test_run_strict_overfault_exits_2(self, capsys):
        assert main([
            "run", "--protocol", "abd", "--faults", "silent",
            "--count", "3", "--strict",
        ]) == 2
        assert "strict" in capsys.readouterr().err

    def test_run_parallel_flag(self, capsys):
        assert main([
            "run", "--protocol", "abd", "--trials", "2",
            "--parallel", "--workers", "2",
        ]) == 0
        assert "all 2 trials complete" in capsys.readouterr().out

    def test_run_sharded_backend(self, capsys):
        assert main([
            "run", "--protocol", "abd", "--backend", "sharded",
            "--keys", "4", "--key-skew", "1.0", "--trials", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "backend=sharded (4 key(s)" in out
        assert "all 2 trials complete" in out

    def test_run_mwmr_protocol_resolves_backend(self, capsys):
        assert main([
            "run", "--protocol", "mwmr-fast-regular", "--writers", "3",
            "--trials", "1", "--ops", "6",
        ]) == 0
        out = capsys.readouterr().out
        assert "backend=multi-writer" in out and "3 writer(s)" in out

    def test_run_keys_without_keyed_backend_exits_2(self, capsys):
        assert main(["run", "--protocol", "abd", "--keys", "4"]) == 2
        assert "sharded" in capsys.readouterr().err


class TestJsonlAndCompare:
    def _emit(self, path, seed, spacing="50"):
        assert main([
            "run", "--protocol", "abd", "--trials", "2",
            "--seed", str(seed), "--spacing", spacing, "--jsonl", str(path),
        ]) == 0

    def test_jsonl_appends_structured_results(self, tmp_path, capsys):
        sink = tmp_path / "runs.jsonl"
        self._emit(sink, seed=0)
        self._emit(sink, seed=0)
        capsys.readouterr()
        lines = sink.read_text().strip().splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert record["protocol"] == "abd"
        assert len(record["trials"]) == 2
        assert lines[0] == lines[1]  # same seed ⇒ identical structured line

    def test_compare_identical_files_passes(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._emit(a, seed=3)
        self._emit(b, seed=3)
        assert main(["compare", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "no regressions detected" in out

    def test_compare_flags_round_count_regressions(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._emit(a, seed=3)
        record = json.loads(a.read_text())
        # Doctor the candidate: pretend reads got one round slower.
        record["worst_read"] += 1
        for trial in record["trials"]:
            trial["read_rounds"] = [r + 1 for r in trial["read_rounds"]]
        b.write_text(json.dumps(record) + "\n")
        assert main(["compare", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSIONS" in out and "worst_read" in out and "mean read rounds" in out
        # The reverse direction is an improvement, not a regression.
        capsys.readouterr()
        assert main(["compare", str(b), str(a)]) == 0
        assert "improvements" in capsys.readouterr().out

    def test_compare_never_matches_across_backends(self, tmp_path, capsys):
        # Same protocol/scenario/sizes, different backend + key layout:
        # the rows must not be compared as like-for-like.
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._emit(a, seed=3)
        assert main([
            "run", "--protocol", "abd", "--backend", "sharded", "--keys", "4",
            "--trials", "2", "--seed", "3", "--spacing", "50", "--jsonl", str(b),
        ]) == 0
        capsys.readouterr()
        assert main(["compare", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "compared 0 run(s)" in out
        assert "only in" in out

    def test_compare_matches_same_backend_rows(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            assert main([
                "run", "--protocol", "abd", "--backend", "sharded", "--keys", "4",
                "--trials", "2", "--seed", "3", "--jsonl", str(path),
            ]) == 0
        capsys.readouterr()
        assert main(["compare", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "compared 1 run(s)" in out and "no regressions detected" in out

    def test_compare_reports_unmatched_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._emit(a, seed=1)
        b.write_text("")
        assert main(["compare", str(a), str(b)]) == 0
        assert "only in" in capsys.readouterr().out

    def test_compare_rejects_malformed_lines(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text("not json\n")
        b.write_text("")
        assert main(["compare", str(a), str(b)]) == 2
        assert "not valid JSON" in capsys.readouterr().err


class TestTraceDump:
    def test_run_trace_writes_jsonl(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main([
            "run", "--protocol", "abd", "--trials", "2", "--trace", str(path),
        ]) == 0
        assert f"trace events to {path}" in capsys.readouterr().out
        lines = [line for line in path.read_text().splitlines() if line]
        assert lines
        records = [json.loads(line) for line in lines]
        assert {record["trial"] for record in records} == {0, 1}
        assert {record["kind"] for record in records} >= {"send", "deliver"}
        assert all("op_serial" in record and "tag" in record for record in records)

    def test_obs_summary_names_every_host_phase(self, capsys):
        assert main(["run", "--protocol", "abd", "--trials", "2", "--obs"]) == 0
        line = next(
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("host seconds by phase: ")
        )
        names = [part.split()[0] for part in line.split(": ", 1)[1].split(", ")]
        assert names == ["build", "plan", "schedule", "drain", "account",
                         "freeze", "check", "meter", "derive"]


class TestExploreCli:
    #: The under-provisioned fast-read stack: provisioned for t=1 (S=4),
    #: hit by 2 stale-echo objects.  Seed 7 generates write-then-read.
    REFUTE = [
        "explore", "--protocol", "atomic-fast-regular", "--t", "1", "--S", "4",
        "--faults", "stale-echo", "--count", "2", "--allow-overfault",
        "--ops", "2", "--reads", "0.5", "--seed", "7", "--max-holds", "2",
    ]

    def test_explore_certifies_clean_configuration(self, capsys):
        assert main([
            "explore", "--protocol", "abd", "--ops", "2", "--reads", "0.5",
            "--seed", "7", "--max-holds", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "CERTIFIED" in out and "atomicity" in out

    def test_explore_finds_violation_and_exits_1(self, capsys):
        assert main(self.REFUTE) == 1
        out = capsys.readouterr().out
        assert "VIOLATIONS" in out and "stale read" in out

    def test_expect_violation_inverts_exit_code(self, capsys):
        assert main(self.REFUTE + ["--expect-violation"]) == 0
        assert main([
            "explore", "--protocol", "abd", "--ops", "2", "--seed", "7",
            "--max-holds", "1", "--expect-violation",
        ]) == 1
        assert "expected a violation" in capsys.readouterr().err

    def test_witness_round_trips_through_replay(self, tmp_path, capsys):
        witness = tmp_path / "witness.json"
        assert main(self.REFUTE + ["--expect-violation", "--witness", str(witness)]) == 0
        assert witness.exists()
        assert main(["replay", str(witness)]) == 0
        out = capsys.readouterr().out
        assert "reproduced byte-identically" in out

    def test_tampered_witness_fails_replay(self, tmp_path, capsys):
        witness = tmp_path / "witness.json"
        assert main(self.REFUTE + ["--expect-violation", "--witness", str(witness)]) == 0
        data = json.loads(witness.read_text())
        data["decisions"] = []
        witness.write_text(json.dumps(data))
        assert main(["replay", str(witness)]) == 1
        assert "DIVERGED" in capsys.readouterr().err

    def test_explore_parallel_flag(self, capsys):
        assert main(self.REFUTE + ["--expect-violation", "--parallel"]) == 0
        assert "VIOLATIONS" in capsys.readouterr().out

    def test_explore_unknown_protocol_exits_2(self, capsys):
        assert main(["explore", "--protocol", "raft"]) == 2
        assert "unknown protocol" in capsys.readouterr().err


class TestFrontierCli:
    #: Two inert ``timed(stale-echo@99)`` objects on the t=1 stack: the
    #: refutation only exists through swept fault-trigger decisions.
    TIMED = [
        "--protocol", "atomic-fast-regular", "--S", "4", "--allow-overfault",
        "--faults", "timed", "--count", "2",
        "--fault-arg", "inner=stale-echo", "--fault-arg", "at=99",
        "--op", "write:v1@0", "--op", "read:1@100", "--max-holds", "3",
    ]

    def test_frontier_certifies_clean_abd(self, capsys):
        assert main([
            "frontier", "--protocol", "abd", "--faults", "crash",
            "--op", "write:v1@0", "--op", "read:1@100",
            "--expect-strongest", "atomicity",
        ]) == 0
        out = capsys.readouterr().out
        assert "✓ atomicity: certified" in out

    def test_frontier_walks_ladder_and_saves_witness(self, tmp_path, capsys):
        witness = tmp_path / "frontier.json"
        assert main(
            ["frontier", *self.TIMED, "--witness", str(witness),
             "--expect-strongest", "k-atomic(2)"]
        ) == 0
        out = capsys.readouterr().out
        assert "✗ atomicity: refuted" in out
        assert "✓ k-atomic(2): certified" in out
        assert "[over budget]" in out
        assert "fire s1@0" in out
        data = json.loads(witness.read_text())
        assert ["fault", 1, 0] in data["decisions"]
        assert main(["replay", str(witness)]) == 0
        assert "reproduced byte-identically" in capsys.readouterr().out

    def test_frontier_expect_mismatch_exits_1(self, capsys):
        assert main(
            ["frontier", *self.TIMED, "--expect-strongest", "atomicity"]
        ) == 1
        assert "expected strongest" in capsys.readouterr().err

    def test_frontier_jsonl_payload(self, tmp_path, capsys):
        sink = tmp_path / "frontier.jsonl"
        assert main(["frontier", *self.TIMED, "--jsonl", str(sink)]) == 0
        capsys.readouterr()
        record = json.loads(sink.read_text())
        assert record["strongest"] == "k-atomic(2)"
        assert record["degraded"] is True
        assert record["witness"]["failures"][0][0] == "atomicity"

    def test_explore_fault_timing_flag(self, tmp_path, capsys):
        base = TestFrontierCli.TIMED + ["--check", "atomicity"]
        assert main(["explore", *base]) == 0  # facade timing: clean
        assert "CERTIFIED" in capsys.readouterr().out
        assert main(["explore", *base, "--fault-timing",
                     "--expect-violation"]) == 0
        assert "fire s1@0" in capsys.readouterr().out

    def test_op_flag_rejects_malformed_entries(self, capsys):
        assert main([
            "explore", "--protocol", "abd", "--op", "write@v1:0",
        ]) == 2
        assert "--op expects" in capsys.readouterr().err

    def test_compare_keys_on_trigger_point(self, tmp_path, capsys):
        """Runs with different fault trigger points are never like-for-like:
        the trigger travels in the scenario label, so timed@0 and timed@99
        rows get distinct compare keys."""
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path, at in ((a, "0"), (b, "99")):
            assert main([
                "run", "--protocol", "abd", "--faults", "timed",
                "--fault-arg", "inner=silent", "--fault-arg", f"at={at}",
                "--trials", "1", "--seed", "3", "--jsonl", str(path),
            ]) == 0
        capsys.readouterr()
        assert main(["compare", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "compared 0 run(s)" in out and "only in" in out


#: The CLI surface of the three configurable subcommands, written down at the
#: commit before their flags moved into shared parent parsers:
#: ``{subcommand: {dest: (default, choices)}}``.  A refactor of the parser may
#: neither drop nor re-default any of these.  (``--engine`` left the table
#: when the axis was retired: tests/test_old_payloads.py::
#: test_the_retired_flag_is_gone.)
PINNED_CLI = {'explore': {'S': (None, None),
                 'allow_overfault': (False, None),
                 'backend': (None, None),
                 'check': (None, None),
                 'check_model': (None, ('atomic', 'regular', 'safe', 'k-atomic')),
                 'consistency': ('atomic', None),
                 'count': (1, None),
                 'durability': ('none', ('none', 'mem', 'dir')),
                 'expect_violation': (False, None),
                 'fault_arg': (None, None),
                 'fault_timing': (False, None),
                 'faults': (None, None),
                 'granularity': ('operation', ('operation', 'round')),
                 'k': (None, None),
                 'keys': (None, None),
                 'max_events': (200000, None),
                 'max_holds': (2, None),
                 'max_schedules': (2000, None),
                 'op': (None, None),
                 'ops': (3, None),
                 'parallel': (False, None),
                 'protocol': (None, None),
                 'readers': (2, None),
                 'reads': (0.6, None),
                 'repair': (None, None),
                 'scenario': (None, None),
                 'seed': (0, None),
                 'spacing': (50, None),
                 'spares': (None, None),
                 'stop_on_violation': (False, None),
                 'strategy': ('bfs', ('bfs', 'dfs')),
                 'strict': (False, None),
                 'symmetry': (False, None),
                 't': (1, None),
                 'witness': (None, None),
                 'workers': (None, None),
                 'writers_count': (None, None),
                 'xfer_quorum': (None, None)},
     'frontier': {'S': (None, None),
                  'allow_overfault': (False, None),
                  'backend': (None, None),
                  'count': (1, None),
                  'durability': ('none', ('none', 'mem', 'dir')),
                   'expect_strongest': (None, None),
                  'fault_arg': (None, None),
                  'faults': (None, None),
                  'granularity': ('operation', ('operation', 'round')),
                  'jsonl': (None, None),
                  'keys': (None, None),
                  'max_events': (200000, None),
                  'max_holds': (2, None),
                  'max_k': (4, None),
                  'max_schedules': (2000, None),
                  'no_fault_timing': (False, None),
                  'op': (None, None),
                  'ops': (3, None),
                  'parallel': (False, None),
                  'protocol': (None, None),
                  'readers': (2, None),
                  'reads': (0.6, None),
                  'seed': (0, None),
                  'spacing': (50, None),
                  'strategy': ('bfs', ('bfs', 'dfs')),
                  'strict': (False, None),
                  'symmetry': (False, None),
                  't': (1, None),
                  'witness': (None, None),
                  'workers': (None, None),
                  'writers_count': (None, None)},
     'run': {'S': (None, None),
             'allow_overfault': (False, None),
             'backend': (None, None),
             'check': (None, None),
             'check_model': (None, ('atomic', 'regular', 'safe', 'k-atomic')),
             'consistency': ('atomic', None),
             'count': (1, None),
             'durability': ('none', ('none', 'mem', 'dir')),
             'fault_arg': (None, None),
             'faults': (None, None),
             'jsonl': (None, None),
             'k': (None, None),
             'key_skew': (0.0, None),
             'keys': (None, None),
             'metrics': (None, None),
             'obs': (False, None),
             'ops': (10, None),
             'parallel': (False, None),
             'protocol': (None, None),
             'readers': (2, None),
             'reads': (0.6, None),
             'repair': (None, None),
             'scenario': (None, None),
             'seed': (0, None),
             'spacing': (50, None),
             'spans': (None, None),
             'spares': (None, None),
             'strict': (False, None),
             't': (1, None),
             'timeline': (None, None),
             'trace': (None, None),
             'trials': (3, None),
             'workers': (None, None),
             'writers_count': (None, None),
             'xfer_quorum': (None, None)}}



class TestCliSurfaceIsPinned:
    @staticmethod
    def _surface(subcommand):
        from repro.__main__ import build_parser

        subparsers = build_parser()._subparsers._group_actions[0]
        return {
            action.dest: (
                action.default,
                None if action.choices is None else tuple(action.choices),
            )
            for action in subparsers.choices[subcommand]._actions
            if action.dest != "help"
        }

    @pytest.mark.parametrize("subcommand", sorted(PINNED_CLI))
    def test_no_flag_dropped_or_re_defaulted(self, subcommand):
        surface = self._surface(subcommand)
        for dest, pinned in PINNED_CLI[subcommand].items():
            assert surface.get(dest) == pinned, f"repro {subcommand}: {dest}"

    @pytest.mark.parametrize("subcommand", sorted(PINNED_CLI))
    def test_only_declared_axis_flags_were_added(self, subcommand):
        """Beyond the pinned table a subcommand accepts only what the shared
        parent parser gives it: the flags ``RunAxes`` declares.  Today that
        is ``frontier`` gaining --consistency / --repair / --spares /
        --xfer-quorum (they take effect: tests/test_axes.py::
        test_cli_flags_reach_the_cluster, tests/test_robustness.py::
        TestFrontierNamesItsAxes)."""
        from dataclasses import fields

        from repro.axes import RunAxes

        axis_flags = {
            axis.metadata["flag"][2:].replace("-", "_")
            for axis in fields(RunAxes) if axis.metadata["flag"]
        }
        extra = set(self._surface(subcommand)) - set(PINNED_CLI[subcommand])
        assert extra <= axis_flags
        assert axis_flags <= set(self._surface(subcommand))

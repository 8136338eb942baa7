"""Parallel trial execution: TrialSpec compilation, equivalence, fallback.

The contract under test: ``Cluster.run(..., parallel=True)`` and
``sweep(..., parallel=True)`` produce **byte-identical**
``to_dict()`` output to their serial counterparts for identical seeds,
because both paths execute the same pure :func:`repro.api.run_trial`
function over the same picklable :class:`repro.api.TrialSpec` values.
"""

import json
import pickle
import warnings

import pytest

from repro.api import Cluster, TrialSpec, run_trial, sweep

#: ≥3 protocols × ≥2 fault scenarios, covering crash and Byzantine regimes.
EQUIVALENCE_GRID = [
    ("abd", "fault-free"),
    ("abd", "crash"),
    ("fast-regular", "crash"),
    ("fast-regular", "replay"),
    ("secret-token", "replay"),
    ("atomic-fast-regular", "fault-free"),
    # mwmr-* advertises backend="multi-writer", so this cell auto-resolves
    # to the MWMR system yet sweeps through the same TrialSpec/run_trial
    # path; mw-abd stays on its default single backend here (the explicit
    # multi-writer route is covered by BACKEND_GRID below).
    ("mwmr-fast-regular", "replay"),
    ("mw-abd", "crash"),
]

#: Backend-pinned cells: (protocol, backend kwargs) for keyed/writer layouts.
BACKEND_GRID = [
    ("abd", dict(backend="sharded", keys=4)),
    ("fast-regular", dict(backend="sharded", keys=3)),
    ("mwmr-fast-regular", dict(n_writers=3)),
    ("mw-abd", dict(backend="multi-writer", n_writers=2)),
]


def _payload(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


class TestTrialSpecs:
    def test_specs_are_picklable_and_pure(self):
        cluster = (
            Cluster("abd", t=1)
            .with_workload(operations=6, spacing=30)
            .check("atomicity")
        )
        specs = cluster._trial_specs(trials=2, seed=9, keep_history=False)
        assert [spec.trial for spec in specs] == [0, 1]
        assert [spec.workload_seed for spec in specs] == [9, 10]

        revived = pickle.loads(pickle.dumps(specs))
        assert revived == specs

        # run_trial is a pure function of the spec: repeated execution and
        # execution of a pickled copy give identical structured results.
        first = run_trial(specs[0]).to_dict()
        second = run_trial(specs[0]).to_dict()
        third = run_trial(revived[0]).to_dict()
        assert first == second == third

    def test_explicit_plan_specs_record_no_seed(self):
        cluster = Cluster("abd").with_operations([("write", "x", 0), ("read", 1, 40)])
        (spec,) = cluster._trial_specs(trials=1, seed=5, keep_history=False)
        assert spec.recorded_seed is None
        assert spec.explicit_plans is not None
        result = run_trial(spec)
        assert result.seed is None
        assert len(result.write_rounds) == 1 and len(result.read_rounds) == 1


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("protocol,scenario", EQUIVALENCE_GRID)
    def test_run_byte_identical(self, protocol, scenario):
        cluster = (
            Cluster(protocol, t=1, n_readers=2)
            .with_scenario(scenario)
            .with_workload(operations=8, spacing=40)
            .check("linearizability")
        )
        serial = cluster.run(trials=3, seed=21, keep_history=False)
        parallel = cluster.run(
            trials=3, seed=21, keep_history=False, parallel=True, max_workers=2
        )
        assert _payload(serial) == _payload(parallel)

    def test_failing_checks_identical_across_modes(self):
        # Fabricating objects defeat ABD; failure *explanations* embed
        # operation ids, so this pins the deterministic serial numbering.
        cluster = (
            Cluster("abd", t=1)
            .with_faults("fabricating", count=1)
            .with_workload(operations=10, spacing=20)
            .check("atomicity")
        )
        serial = cluster.run(trials=4, seed=2, keep_history=False)
        parallel = cluster.run(
            trials=4, seed=2, keep_history=False, parallel=True, max_workers=2
        )
        assert _payload(serial) == _payload(parallel)
        assert serial.failures()  # the scenario actually produces failures

    @pytest.mark.parametrize("protocol,backend_kwargs", BACKEND_GRID)
    def test_backend_runs_byte_identical(self, protocol, backend_kwargs):
        cluster = (
            Cluster(protocol, t=1, n_readers=2, **backend_kwargs)
            .with_workload(operations=8, spacing=60, key_skew=0.8)
            .check("atomicity")
        )
        serial = cluster.run(trials=3, seed=14, keep_history=False)
        parallel = cluster.run(
            trials=3, seed=14, keep_history=False, parallel=True, max_workers=2
        )
        assert _payload(serial) == _payload(parallel)

    def test_sweep_byte_identical_and_flattened(self):
        kwargs = dict(t=1, operations=6, trials=2, checks=("regularity",))
        serial = sweep(["abd", "secret-token"], **kwargs)
        parallel = sweep(["abd", "secret-token"], parallel=True, max_workers=2, **kwargs)
        assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
            parallel.to_dict(), sort_keys=True
        )

    def test_sharded_sweep_byte_identical(self):
        kwargs = dict(
            t=1, operations=8, trials=2, checks=("atomicity",),
            backend="sharded", keys=3, key_skew=1.0, scenarios=("fault-free", "crash"),
        )
        serial = sweep(["abd", "fast-regular"], **kwargs)
        parallel = sweep(["abd", "fast-regular"], parallel=True, max_workers=2, **kwargs)
        assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
            parallel.to_dict(), sort_keys=True
        )
        for run in serial.runs:
            assert run.backend == "sharded" and run.key_count == 3

    def test_mixed_registry_sweep_resolves_backends_per_protocol(self):
        result = sweep(
            ["abd", "mwmr-fast-regular"],
            t=1, operations=6, trials=1, scenarios=("fault-free",),
            checks=("atomicity",), parallel=True, max_workers=2,
        )
        by_name = {run.protocol: run for run in result.runs}
        assert by_name["abd"].backend == "single"
        assert by_name["mwmr-fast-regular"].backend == "multi-writer"
        assert all(run.ok for run in result.runs)

    def test_histories_survive_the_process_boundary(self):
        result = Cluster("abd").check("atomicity").run(
            trials=2, seed=1, parallel=True, max_workers=2
        )
        assert all(trial.history is not None for trial in result.trials)
        assert len(result.trials[0].history.records) > 0


class TestSerialFallback:
    def test_unpicklable_explicit_plans_warn_and_run_serially(self):
        class Opaque:
            def __reduce__(self):
                raise TypeError("live object, refuses pickling")

        cluster = Cluster("abd").with_operations([("write", Opaque(), 0)])
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            result = cluster.run(trials=2, parallel=True)
        assert len(result.trials) == 2

    def test_a_broken_pool_warns_and_reruns_serially(self, monkeypatch):
        """A pool whose workers die (a ``__main__`` a ``spawn`` worker cannot
        re-import) is a warning and a serial rerun, not a traceback."""
        import concurrent.futures
        from concurrent.futures.process import BrokenProcessPool

        class BrokenPool:
            _max_workers = 2

            def __init__(self, max_workers=None):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, specs, chunksize=1):
                raise BrokenProcessPool("a worker died")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", BrokenPool)
        cluster = Cluster("abd").with_workload(operations=6).check("atomicity")
        with pytest.warns(RuntimeWarning, match="rerunning serially"):
            pooled = cluster.run(trials=2, seed=4, parallel=True)
        assert _payload(pooled) == _payload(cluster.run(trials=2, seed=4))

    def test_serial_run_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Cluster("abd").run(trials=2, seed=0)

    def test_single_trial_parallel_stays_in_process(self):
        # One trial gains nothing from a pool; no warning, same result.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            serial = Cluster("abd").check("atomicity").run(trials=1, seed=4)
            parallel = Cluster("abd").check("atomicity").run(
                trials=1, seed=4, parallel=True
            )
        assert _payload(serial) == _payload(parallel)


class TestScopedSerials:
    def test_facade_runs_do_not_corrupt_live_systems(self):
        # A hand-held system interleaved with facade runs must keep
        # allocating fresh operation serials — run_trial scopes its reset.
        from repro.registers.base import RegisterSystem
        from repro.registers.abd import AbdProtocol

        system = RegisterSystem(AbdProtocol(), t=1, n_readers=2)
        for index in range(10):
            system.write(f"v{index}", at=index * 600)
        Cluster("abd").with_workload(operations=5).run(trials=2, seed=0)
        system.read(1, at=7000)  # would raise "duplicate invocation" before
        system.run()
        history = system.history()
        assert len({r.op_id for r in history.records}) == len(history.records)


class TestConfigurationErrorsSurfaceInParent:
    def test_strict_overfault_raises_before_any_pool_work(self):
        from repro.errors import ConfigurationError

        cluster = Cluster("fast-regular", t=1).with_faults("silent", count=2, strict=True)
        with pytest.raises(ConfigurationError, match="strict"):
            cluster.run(trials=4, parallel=True, max_workers=2)

    def test_trial_count_validated(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            Cluster("abd").run(trials=0, parallel=True)

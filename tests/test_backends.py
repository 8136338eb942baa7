"""Tests for the system-backend registry and the built-in backends."""

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.api import (
    Cluster,
    SystemBackend,
    available_backends,
    get_backend_spec,
    get_spec,
    protocol_specs,
)
from repro.api.backends import KAtomicBackend
from repro.errors import ConfigurationError
from repro.registers.base import RegisterSystem
from repro.registers.reconfig import ReconfigRegisterSystem
from repro.registers.sharded import ShardedRegisterSystem
from repro.registers.transform_mwmr import (
    MultiWriterRegisterSystem,
    NativeMultiWriterSystem,
)


def _payload(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


class TestBackendRegistry:
    def test_builtins_registered(self):
        assert set(available_backends()) >= {"single", "multi-writer", "sharded"}

    def test_aliases_resolve(self):
        assert get_backend_spec("mwmr") is get_backend_spec("multi-writer")
        assert get_backend_spec("swmr") is get_backend_spec("single")

    def test_unknown_backend_rejected_with_listing(self):
        with pytest.raises(ConfigurationError, match="sharded"):
            get_backend_spec("raft")
        with pytest.raises(ConfigurationError, match="unknown backend"):
            Cluster("abd", backend="paxos")

    def test_protocols_advertise_their_backend(self):
        assert get_spec("abd").backend == "single"
        assert get_spec("mwmr-fast-regular").backend == "multi-writer"
        assert get_spec("mwmr-secret-token").backend == "multi-writer"


class TestDefaultBackendEquivalence:
    def test_explicit_single_equals_default(self):
        base = Cluster("abd", t=1).check("atomicity").run(trials=2, seed=4, keep_history=False)
        explicit = (
            Cluster("abd", t=1, backend="single")
            .check("atomicity")
            .run(trials=2, seed=4, keep_history=False)
        )
        assert _payload(base) == _payload(explicit)

    def test_default_to_dict_carries_no_backend_metadata(self):
        payload = Cluster("abd").run(seed=0).to_dict()
        assert "backend" not in payload and "keys" not in payload

    def test_build_backend_returns_the_system(self):
        assert type(Cluster("abd").build_backend()) is RegisterSystem
        assert type(Cluster("mwmr-fast-regular").build_backend()) is MultiWriterRegisterSystem
        assert (
            type(Cluster("mw-abd", backend="multi-writer").build_backend())
            is NativeMultiWriterSystem
        )
        assert (
            type(Cluster("abd", backend="sharded", keys=3).build_backend())
            is ShardedRegisterSystem
        )
        assert (
            type(Cluster("abd", backend="reconfig").build_backend())
            is ReconfigRegisterSystem
        )


class TestBackendValidation:
    def test_mwmr_stack_rejected_on_single_backend(self):
        with pytest.raises(ConfigurationError, match="multi-writer"):
            Cluster("mwmr-fast-regular", backend="single").run(seed=0)

    def test_single_writer_protocol_rejected_on_multi_writer_backend(self):
        with pytest.raises(ConfigurationError, match="single-writer"):
            Cluster("fast-regular", backend="multi-writer").run(seed=0)

    def test_keys_need_a_keyed_backend(self):
        with pytest.raises(ConfigurationError, match="sharded"):
            Cluster("abd", keys=4)
        with pytest.raises(ConfigurationError, match="sharded"):
            Cluster("mwmr-fast-regular", keys=4)

    def test_n_writers_needs_a_multi_writer_backend(self):
        with pytest.raises(ConfigurationError, match="multi-writer"):
            Cluster("abd", n_writers=3)

    def test_key_layout_validation(self):
        with pytest.raises(ConfigurationError, match="at least one key"):
            Cluster("abd", backend="sharded", keys=0)
        with pytest.raises(ConfigurationError, match="duplicate"):
            Cluster("abd", backend="sharded", keys=("a", "a"))
        with pytest.raises(ConfigurationError, match="'/'"):
            Cluster("abd", backend="sharded", keys=("a/b",))


def _crashed():
    from repro.api import fault_spec

    return fault_spec("crash").build()


#: Each system class built with whatever ``behaviors`` the test hands it.
SYSTEM_BUILDERS = {
    "RegisterSystem": lambda behaviors, **kw: RegisterSystem(
        get_spec("abd").build(n_readers=2), t=1, behaviors=behaviors, **kw),
    "MultiWriterRegisterSystem": lambda behaviors, **kw: MultiWriterRegisterSystem(
        get_spec("mwmr-fast-regular").build(n_readers=2).substrate_factory,
        t=1, behaviors=behaviors, **kw),
    "NativeMultiWriterSystem": lambda behaviors, **kw: NativeMultiWriterSystem(
        get_spec("mw-abd").build(n_readers=2), t=1, behaviors=behaviors, **kw),
    "ShardedRegisterSystem": lambda behaviors, **kw: ShardedRegisterSystem(
        lambda: get_spec("abd").build(n_readers=2), keys=("k1", "k2"),
        t=1, behaviors=behaviors, **kw),
    "ReconfigRegisterSystem": lambda behaviors, **kw: ReconfigRegisterSystem(
        get_spec("abd").build(n_readers=2), t=1, behaviors=behaviors, **kw),
}


class TestUnknownObjectBehaviours:
    """Every system rejects fault behaviours addressed to objects it does not
    have, with the same message — they share one constructor path.  (The
    multi-writer stack used to accept them silently and fail later with an
    unrelated ProtocolError.)"""

    @pytest.mark.parametrize("name", sorted(SYSTEM_BUILDERS))
    def test_every_system_class_rejects_them(self, name):
        from repro.types import object_id

        with pytest.raises(ConfigurationError) as error:
            SYSTEM_BUILDERS[name]({object_id(9): _crashed()})
        assert str(error.value) == f"behaviours for unknown objects: [{object_id(9)!r}]"

    @pytest.mark.parametrize("name", sorted(SYSTEM_BUILDERS))
    def test_every_system_class_enforces_the_fault_budget_alike(self, name):
        from repro.types import object_id

        two = {object_id(1): _crashed(), object_id(2): _crashed()}
        with pytest.raises(ConfigurationError) as error:
            SYSTEM_BUILDERS[name](two)
        assert str(error.value) == "2 faulty objects exceed the threshold t=1"
        assert SYSTEM_BUILDERS[name](two, allow_overfault=True).ctx.t == 1

    @pytest.mark.parametrize("protocol,backend", [
        ("abd", "single"),
        ("mwmr-fast-regular", "multi-writer"),
        ("mw-abd", "multi-writer"),
        ("abd", "sharded"),
        ("abd", "reconfig"),
        ("abd", "k-atomic"),
    ])
    def test_every_backend_rejects_them_through_the_facade(self, protocol, backend):
        cluster = Cluster(protocol, t=1, backend=backend, allow_overfault=True)
        with pytest.raises(ConfigurationError, match="behaviours for unknown objects"):
            cluster.with_faults("crash", count=9).run()

    def test_the_reconfig_pool_still_admits_behaviours_on_spares(self):
        from repro.types import object_id

        build = SYSTEM_BUILDERS["ReconfigRegisterSystem"]
        system = build({object_id(4): _crashed()}, S=3, repairs=((1, 5),))
        assert system.server(object_id(4)).behavior is not None
        with pytest.raises(ConfigurationError, match="behaviours for unknown objects"):
            build({object_id(5): _crashed()}, S=3, repairs=((1, 5),))


class TestMultiWriterBackend:
    def test_mwmr_stack_runs_checks_and_accounts_rounds(self):
        result = (
            Cluster("mwmr-fast-regular", t=1, n_readers=2, n_writers=3)
            .with_workload(operations=8, spacing=100)
            .check("atomicity", "linearizability")
            .run(trials=2, seed=6, keep_history=False)
        )
        assert result.ok
        # Section 5 accounting: reads r + w = 4, writes (r + w) + w = 6.
        assert result.worst_read == 4
        assert result.worst_write == 6
        payload = result.to_dict()
        assert payload["backend"] == "multi-writer"
        assert payload["writers"] == 3

    def test_advertised_rounds_match_measured(self):
        spec = get_spec("mwmr-fast-regular")
        result = (
            Cluster(spec.name, t=1)
            .with_workload(operations=6, spacing=120, reads=0.5)
            .run(trials=1, seed=3)
        )
        assert result.worst_write == spec.write_rounds
        assert result.worst_read == spec.read_rounds

    def test_multiple_writers_actually_write(self):
        result = (
            Cluster("mwmr-fast-regular", t=1, n_writers=3)
            .with_workload(operations=12, spacing=90, reads=0.3)
            .run(trials=1, seed=1)
        )
        writers = {
            record.client
            for record in result.trials[0].history.records
            if record.kind == "write"
        }
        assert len(writers) > 1

    def test_native_mw_abd_through_the_backend(self):
        result = (
            Cluster("mw-abd", t=1, backend="multi-writer", n_writers=3)
            .with_workload(operations=10, spacing=80)
            .check("atomicity", "linearizability")
            .run(trials=2, seed=9, keep_history=False)
        )
        assert result.ok
        assert result.worst_write == 2 and result.worst_read == 2

    def test_mwmr_survives_stale_echo(self):
        result = (
            Cluster("mwmr-fast-regular", t=1)
            .with_faults("stale-echo", count=1)
            .with_workload(operations=8, spacing=100)
            .check("atomicity")
            .run(trials=2, seed=2, keep_history=False)
        )
        assert result.ok
        assert result.faults.effective == 1


class TestShardedBackend:
    def test_runs_and_checks_per_key(self):
        result = (
            Cluster("abd", t=1, backend="sharded", keys=4)
            .with_workload(operations=16, spacing=40)
            .check("atomicity")
            .run(trials=2, seed=8, keep_history=False)
        )
        assert result.ok
        verdict = result.trials[0].checks["atomicity"]
        assert verdict.per_key == {"k1": True, "k2": True, "k3": True, "k4": True}
        assert verdict.to_dict()["per_key"]["k1"] is True
        payload = result.to_dict()
        assert payload["backend"] == "sharded" and payload["keys"] == 4

    def test_shards_add_capacity_not_latency(self):
        # Per-shard rounds are the substrate's own: ABD stays 1W/2R.
        result = (
            Cluster("abd", t=1, backend="sharded", keys=6)
            .with_workload(operations=18, spacing=50)
            .run(trials=1, seed=5)
        )
        assert result.worst_write == 1 and result.worst_read == 2

    def test_named_keys_and_explicit_plans(self):
        result = (
            Cluster("abd", backend="sharded", keys=("users", "orders"))
            .with_operations([
                ("write", "alice", 0, "users"),
                ("write", "o-1", 0, "orders"),
                ("read", 1, 60, "users"),
                ("read", 2, 60, "orders"),
            ])
            .check("atomicity")
            .run(trials=1, seed=0)
        )
        assert result.ok
        verdict = result.trials[0].checks["atomicity"]
        assert set(verdict.per_key) == {"users", "orders"}
        reads = [r for r in result.trials[0].history.records if r.kind == "read"]
        assert sorted(r.value for r in reads) == ["alice", "o-1"]

    def test_sharded_over_composite_protocol(self):
        # Nested multiplexing: each shard is itself a regular→atomic stack.
        result = (
            Cluster("atomic-fast-regular", t=1, backend="sharded", keys=2)
            .with_faults("stale-echo", count=1)
            .with_workload(operations=8, spacing=80)
            .check("atomicity")
            .run(trials=1, seed=4)
        )
        assert result.ok
        assert result.worst_write == 2 and result.worst_read == 4

    def test_sharded_failure_names_the_key(self):
        # One fabricating object defeats ABD on whichever shards it hits: the
        # stock fabricator forges every shard's nested reply.
        result = (
            Cluster("abd", t=1, backend="sharded", keys=2)
            .with_faults("fabricating")
            .with_workload(operations=16, spacing=20)
            .check("atomicity")
            .run(trials=4, seed=2, keep_history=False)
        )
        failures = [v for _, v in result.failures()]
        assert failures  # the adversary actually bites
        assert any("[k" in v.explanation for v in failures)
        for verdict in failures:
            assert verdict.per_key is not None and not all(verdict.per_key.values())

    def test_plan_without_key_rejected(self):
        cluster = Cluster("abd", backend="sharded", keys=2).with_operations(
            [("write", "x", 0)]
        )
        with pytest.raises(ConfigurationError, match="key"):
            cluster.run(seed=0)

    def test_keyed_plan_rejected_on_single_backend(self):
        cluster = Cluster("abd").with_operations([("write", "x", 0, "k1")])
        with pytest.raises(ConfigurationError, match="sharded"):
            cluster.run(seed=0)


class TestShardedSystemDirectly:
    def test_histories_partition_the_combined_history(self):
        from repro.registers.abd import AbdProtocol

        system = ShardedRegisterSystem(AbdProtocol, keys=("a", "b"), t=1, n_readers=2)
        system.write("a", "x", at=0)
        system.write("b", "y", at=0)
        system.read("a", 1, at=60)
        system.read("b", 2, at=60)
        system.run()
        per_key = system.histories()
        assert {len(h.records) for h in per_key.values()} == {2}
        total = sum(len(h.records) for h in per_key.values())
        assert total == len(system.history().records)
        assert per_key["a"].reads()[0].value == "x"
        assert per_key["b"].reads()[0].value == "y"

    def test_each_shard_has_its_own_writer(self):
        from repro.registers.abd import AbdProtocol

        system = ShardedRegisterSystem(AbdProtocol, keys=("a", "b"), t=1)
        # Concurrent writes to different shards are legal (distinct writers)…
        system.write("a", "x", at=0)
        system.write("b", "y", at=0)
        system.run()
        clients = {r.client for r in system.history().records}
        assert len(clients) == 2

    def test_unknown_key_rejected(self):
        from repro.registers.abd import AbdProtocol

        system = ShardedRegisterSystem(AbdProtocol, keys=("a",), t=1)
        with pytest.raises(ConfigurationError, match="unknown shard"):
            system.write("z", "x")

    def test_bottom_not_writable(self):
        from repro.registers.abd import AbdProtocol
        from repro.types import BOTTOM

        system = ShardedRegisterSystem(AbdProtocol, keys=("a",), t=1)
        with pytest.raises(ConfigurationError, match="reserved"):
            system.write("a", BOTTOM)


# --------------------------------------------------------------------- #
# One surface: a built system is its own backend
# --------------------------------------------------------------------- #

ROOT = Path(__file__).resolve().parent.parent

#: One cluster per registered backend (both multi-writer systems, both
#: k-atomic layouts) and what its built system did with one plan at the
#: parent of the fold, where wrappers routed the plans:
#: (S, keys, events, operations, trace fingerprint prefix, combined
#: history length, per-key (kind, client, value) records).
SURFACE = {
    "single": (
        Cluster("abd"),
        (3, ("default",), 48, 6, "c860bbf23cd90dca", 6, {"default": [
            ("write", "w", "v1"), ("read", "r1", "v1"), ("write", "w", "v2"),
            ("write", "w", "v3"), ("write", "w", "v4"), ("write", "w", "v5")]}),
    ),
    "reconfig": (
        Cluster("abd", backend="reconfig").with_repairs((1, 30)),
        (3, ("default",), 57, 7, "e32d20103189ec8b", 6, {"default": [
            ("write", "w", "v1"), ("read", "r1", "v1"), ("write", "w", "v2"),
            ("write", "w", "v3"), ("write", "w", "v4"), ("write", "w", "v5")]}),
    ),
    "multi-writer": (
        Cluster("mwmr-fast-regular"),
        (4, ("default",), 278, 6, "43b2fc5fc4514ee0", 6, {"default": [
            ("write", "w", "v1"), ("write", "w", "v2"), ("read", "r1001", "v2"),
            ("write", "w", "v3"), ("write", "w", "v4"), ("write", "w", "v5")]}),
    ),
    "multi-writer-native": (
        Cluster("mw-abd", backend="multi-writer"),
        (3, ("default",), 78, 6, "f0ebf2887a9ded0a", 6, {"default": [
            ("write", "w", "v1"), ("write", "w", "v2"), ("read", "r1", "v2"),
            ("write", "w", "v3"), ("write", "w", "v4"), ("write", "w", "v5")]}),
    ),
    "sharded": (
        Cluster("abd", backend="sharded", keys=2),
        (3, ("k1", "k2"), 66, 6, "8cb8758141e392ef", 6, {
            "k1": [("write", "w", "v1"), ("write", "w", "v2"), ("read", "r1", "v2")],
            "k2": [("read", "r1", "⊥"), ("read", "r1", "⊥"), ("read", "r1", "⊥")]}),
    ),
    "k-atomic": (
        Cluster("abd", backend="k-atomic"),
        (3, ("default",), 48, 6, "c860bbf23cd90dca", 6, {"default": [
            ("write", "w", "v1"), ("read", "r1", "⊥"), ("write", "w", "v2"),
            ("write", "w", "v3"), ("write", "w", "v4"), ("write", "w", "v5")]}),
    ),
    "k-atomic-keyed": (
        Cluster("abd", backend="k-atomic", keys=2),
        (3, ("k1", "k2"), 66, 6, "8cb8758141e392ef", 6, {
            "k1": [("write", "w", "v1"), ("write", "w", "v2"), ("read", "r1", "v1")],
            "k2": [("read", "r1", "⊥"), ("read", "r1", "⊥"), ("read", "r1", "⊥")]}),
    ),
}

#: The routing refusals, as the parent's wrapper classes worded them.
ONE_REGISTER = "the {} backend holds one register — keyed plans need backend='sharded'"
NEEDS_A_KEY = (
    "the sharded backend needs a key on every plan — generate the workload "
    "with keys= or give explicit plans a key"
)
BOTTOM_RESERVED = "⊥ is reserved for the initial value and cannot be written"


def _plans(cluster):
    from repro.workloads.generator import WorkloadGenerator

    return WorkloadGenerator(
        seed=3, n_readers=2,
        n_writers=2 if cluster.backend_spec.multi_writer else 1,
        read_fraction=0.5, spacing=20, keys=cluster._key_names() or None,
    ).plan(6)


def _plan(kind="write", key=None, value="x"):
    from repro.workloads.generator import OperationPlan

    return OperationPlan(kind=kind, client_index=1, value=value, at=0, key=key)


class TestOneSurface:
    def test_every_registered_backend_builds_a_system_or_a_view_over_one(self):
        for name in available_backends():
            protocol = "mw-abd" if name == "multi-writer" else "abd"
            backend = Cluster(protocol, backend=name).build_backend()
            if name == "k-atomic":
                assert type(backend) is KAtomicBackend
                assert isinstance(backend.system, SystemBackend)
            else:
                assert isinstance(backend, SystemBackend)
                assert backend.system is backend
        assert isinstance(Cluster("mwmr-fast-regular").build_backend(), SystemBackend)

    @pytest.mark.parametrize("keys", (None, 3), ids=("single", "keyed"))
    def test_the_k_atomic_view_forwards_nine_names_and_no_other(self, keys):
        view = Cluster("abd", backend="k-atomic", keys=keys).build_backend()
        system = view.system
        for name in ("simulator", "trace", "storage", "keys", "label", "S"):
            assert getattr(view, name) is getattr(system, name), name
        for name in ("schedule", "run", "close"):
            assert getattr(view, name) == getattr(system, name), name
        # Anything else a system has is reached through ``view.system``.
        for name in ("ctx", "recorder", "server", "max_rounds", "no_such_name"):
            with pytest.raises(AttributeError):
                getattr(view, name)
        view.close()

    @pytest.mark.parametrize("name", sorted(SURFACE))
    def test_the_surface_behaves_as_before_the_fold(self, name):
        from repro.sim.tracing import trace_fingerprint
        from repro.types import scoped_operation_serials

        cluster, expected = SURFACE[name]
        with scoped_operation_serials():
            backend = cluster.build_backend()
            for plan in _plans(cluster):
                backend.schedule(plan)
            events = backend.run()
            histories = {
                key: [(r.kind, str(r.client), r.value) for r in history.records]
                for key, history in backend.histories().items()
            }
            observed = (
                backend.S, backend.keys, events, len(backend.simulator.operations),
                trace_fingerprint(backend.trace)[:16], len(backend.history().records),
                histories,
            )
            # A drained system runs again to the same fixed point: no new events.
            assert backend.run() == 0
            backend.close()
        assert observed == expected

    @pytest.mark.parametrize("name", sorted(SURFACE))
    def test_close_releases_the_stable_stores(self, name):
        cluster = SURFACE[name][0]
        cluster = cluster.with_axes(replace(cluster.axes, durability="dir"))
        backend = cluster.build_backend()
        for plan in _plans(cluster):
            backend.schedule(plan)
        backend.run()
        root = backend.storage._root
        assert root.is_dir()
        backend.close()
        assert not root.exists()

    @pytest.mark.parametrize("name,backend", [
        ("single", "single"),
        ("reconfig", "reconfig"),
        ("multi-writer", "multi-writer"),
        ("multi-writer-native", "multi-writer"),
        ("k-atomic", "single"),
    ])
    def test_a_keyed_plan_is_refused_on_one_register(self, name, backend):
        system = SURFACE[name][0].build_backend()
        for kind in ("write", "read"):
            with pytest.raises(ConfigurationError) as error:
                system.schedule(_plan(kind, key="k1"))
            assert str(error.value) == ONE_REGISTER.format(backend)

    @pytest.mark.parametrize("name", ["sharded", "k-atomic-keyed"])
    def test_an_unkeyed_plan_is_refused_on_shards(self, name):
        system = SURFACE[name][0].build_backend()
        for kind in ("write", "read"):
            with pytest.raises(ConfigurationError) as error:
                system.schedule(_plan(kind))
            assert str(error.value) == NEEDS_A_KEY

    @pytest.mark.parametrize("name", sorted(SURFACE))
    def test_bottom_is_not_writable_anywhere(self, name):
        from repro.types import BOTTOM

        system = SURFACE[name][0].build_backend()
        key = "k1" if len(system.keys) > 1 else None
        with pytest.raises(ConfigurationError) as error:
            system.schedule(_plan(key=key, value=BOTTOM))
        assert str(error.value) == BOTTOM_RESERVED

    def test_latency_reports_take_the_system_label(self):
        from repro.analysis.metrics import measure_backend_latency

        labels = {
            name: measure_backend_latency(cluster.build_backend(), []).protocol
            for name, (cluster, _) in SURFACE.items()
        }
        assert labels == {
            "single": "abd", "reconfig": "abd", "sharded": "abd",
            "k-atomic": "abd", "k-atomic-keyed": "abd",
            "multi-writer": "mwmr[fast-regular[replay]]",
            "multi-writer-native": "mw-abd",
        }

    def test_a_direct_mwmr_system_takes_the_default_size_rule(self):
        from repro.registers.abd import AbdProtocol
        from repro.registers.fast_regular import FastRegularProtocol
        from repro.registers.secret_token import SecretTokenProtocol

        # A crash substrate gets 2t+1 like every other system; both
        # registered stacks resolve to 3t+1 either way.
        assert MultiWriterRegisterSystem(AbdProtocol, t=1).S == 3
        assert MultiWriterRegisterSystem(AbdProtocol, t=2).S == 5
        assert MultiWriterRegisterSystem(lambda: FastRegularProtocol("replay"), t=2).S == 7
        assert MultiWriterRegisterSystem(SecretTokenProtocol, t=1).S == 4
        assert Cluster("mwmr-secret-token", t=2).run().S == 7

    def test_sizing_is_derived_once_and_rejections_raise_every_time(self):
        from repro.registers.base import _default_size, _sized
        from repro.registers.fast_regular import FastRegularProtocol

        for spec in protocol_specs():
            for t in (1, 2):
                protocol = spec.build()
                first = _sized(protocol, None, t)
                assert first == _default_size(protocol, t) == spec.min_size(t)
                assert _sized(spec.build(), None, t) == first
                assert _sized(protocol, first + 1, t) == first + 1
        for _ in range(2):
            with pytest.raises(ConfigurationError):
                RegisterSystem(FastRegularProtocol(), t=1, S=3)

    def test_the_retired_layers_stay_retired(self):
        retired = re.compile(
            r"class (SingleRegisterBackend|MultiWriterBackend|ShardedBackend)\b"
            r"|def (measure_latency|apply_plan|build_system|finish_delivery)\b"
            r"|verify_against_wire"
        )
        hits = [
            f"{path.relative_to(ROOT)}:{number}"
            for folder in ("src", "benchmarks", "examples")
            for path in sorted((ROOT / folder).rglob("*.py"))
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if retired.search(line)
        ]
        assert hits == []

"""Integration matrix: every protocol × scenario × random workload.

The central promise of the library — each protocol meets its advertised
consistency level under every in-model adversary regime — checked end to
end on seeded random workloads.  This is where benchmark configurations are
kept honest by the test suite.
"""

import pytest

from repro.api.cluster import _materialize_behaviors
from repro.registers.abd import AbdProtocol
from repro.registers.base import RegisterSystem
from repro.registers.bounded_regular import BoundedRegularProtocol
from repro.registers.fast_regular import FastRegularProtocol
from repro.registers.lucky import LuckyAtomicProtocol
from repro.registers.secret_token import SecretTokenProtocol
from repro.registers.transform_atomic import RegularToAtomicProtocol
from repro.spec.atomicity import check_swmr_atomicity
from repro.spec.regularity import check_swmr_regularity
from repro.workloads.generator import WorkloadGenerator

from helpers import RandomDelivery

#: (factory, consistency checker, scenarios the protocol's model covers)
PROTOCOLS = [
    pytest.param(
        lambda n: AbdProtocol(),
        check_swmr_atomicity,
        ("fault-free", "crash", "silent"),
        id="abd",
    ),
    pytest.param(
        lambda n: FastRegularProtocol(trust_model="replay"),
        check_swmr_regularity,
        ("fault-free", "crash", "silent", "replay"),
        id="fast-regular-replay",
    ),
    pytest.param(
        lambda n: FastRegularProtocol(trust_model="unauthenticated"),
        check_swmr_regularity,
        ("fault-free", "crash", "silent", "fabricate"),
        id="fast-regular-unauth",
    ),
    pytest.param(
        lambda n: BoundedRegularProtocol(),
        check_swmr_regularity,
        ("fault-free", "crash", "silent", "fabricate"),
        id="bounded-regular",
    ),
    pytest.param(
        lambda n: SecretTokenProtocol(),
        check_swmr_regularity,
        ("fault-free", "crash", "silent", "replay", "fabricate"),
        id="secret-token",
    ),
    pytest.param(
        lambda n: RegularToAtomicProtocol(lambda: FastRegularProtocol("replay"), n_readers=n),
        check_swmr_atomicity,
        ("fault-free", "crash", "silent", "replay"),
        id="atomic-from-fast-regular",
    ),
    pytest.param(
        lambda n: RegularToAtomicProtocol(lambda: SecretTokenProtocol(), n_readers=n),
        check_swmr_atomicity,
        ("fault-free", "crash", "silent", "replay", "fabricate"),
        id="atomic-from-secret-token",
    ),
    pytest.param(
        lambda n: LuckyAtomicProtocol(),
        check_swmr_atomicity,
        ("fault-free", "crash", "silent", "replay", "fabricate"),
        id="lucky-atomic",
    ),
]


@pytest.mark.parametrize("factory,checker,covered", PROTOCOLS)
@pytest.mark.parametrize("seed", [0, 1])
def test_protocol_meets_spec_under_every_covered_scenario(factory, checker, covered, seed):
    n_readers = 2
    for scenario in covered:
        protocol = factory(n_readers)
        system = RegisterSystem(
            protocol,
            t=1,
            n_readers=n_readers,
            behaviors=_materialize_behaviors(scenario, (), 1, False),
        )
        for plan in WorkloadGenerator(seed=seed, n_readers=n_readers, spacing=120).plan(8):
            system.schedule(plan)
        system.run()
        history = system.history()
        complete = [op for op in history.records if op.complete]
        assert len(complete) == 8, (scenario, "wait-freedom: all ops complete")
        verdict = checker(history)
        assert verdict.ok, f"{scenario}: {verdict.explanation}"


@pytest.mark.parametrize("factory,checker,covered", PROTOCOLS)
def test_protocol_meets_spec_under_concurrency(factory, checker, covered):
    """Tight spacing: operations overlap heavily; delivery is randomized."""
    n_readers = 3
    protocol = factory(n_readers)
    system = RegisterSystem(
        protocol, t=1, n_readers=n_readers,
        policy=RandomDelivery(seed=13, max_latency=5),
    )
    for plan in WorkloadGenerator(seed=29, n_readers=n_readers, spacing=8).plan(10):
        system.schedule(plan)
    system.run()
    history = system.history()
    verdict = checker(history)
    assert verdict.ok, verdict.explanation


def test_wait_freedom_with_max_byzantine_population():
    """t silent + t-… no: exactly t faulty of 3t+1, clients never block."""
    from repro.faults.adversary import SilentBehavior
    from repro.types import object_id

    t = 3
    system = RegisterSystem(
        FastRegularProtocol(), t=t,
        behaviors={object_id(i): SilentBehavior() for i in range(1, t + 1)},
    )
    system.write("a", at=0)
    system.read(1, at=60)
    system.read(2, at=120)
    system.run()
    assert sum(r.complete for r in system.history().records) == 3

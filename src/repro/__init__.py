"""repro — reproduction of *The Complexity of Robust Atomic Storage* (PODC'11).

Robust (wait-free, optimally resilient, unauthenticated-Byzantine) atomic
read/write storage emulations over simulated fault-prone storage objects,
together with **executable versions of the paper's two lower-bound proofs**
and the matching upper-bound constructions of its Section 5.

Quickstart — the :mod:`repro.api` facade
----------------------------------------

Protocols, fault behaviours, scenarios and consistency checks are all
addressable **by name**; the :class:`Cluster` builder composes them into a
structured, repeatable experiment::

    from repro.api import Cluster, available_protocols

    print(available_protocols())          # 'abd', 'fast-regular', ...
    result = (
        Cluster("atomic-fast-regular", t=1, n_readers=2)
        .with_faults("stale-echo", count=1)
        .with_workload(reads=0.6, spacing=25, operations=12)
        .check("atomicity")
        .run(trials=5, seed=7)
    )
    assert result.ok and result.worst_read == 4
    print(result.render())                # per-trial latencies + verdicts

``python -m repro list-protocols`` shows the registry;
``python -m repro run --protocol abd --faults crash`` runs the same pipeline
from the command line, and :func:`repro.api.sweep` fans protocol × scenario
grids into one table (the latency-matrix benchmark is exactly that call).

Public surface overview
-----------------------

* ``repro.api`` — the facade: protocol / fault registries, the ``Cluster``
  builder, ``RunResult`` / ``SweepResult``.
* ``repro.explore`` — the bounded model checker over delivery schedules:
  ``Cluster.explore()`` / ``python -m repro explore`` certify a
  configuration over every bounded held-message schedule or refute it
  with a minimized, replayable ``ScheduleWitness``.
* ``repro.registers`` — the protocol suite (ABD, GV06-style fast regular,
  bounded regular, secret-token regular, regular→atomic and SWMR→MWMR
  transformations, strawmen) and the :class:`RegisterSystem` harness.
* ``repro.spec`` — atomicity / regularity / safety / linearizability
  checkers over recorded operation histories.
* ``repro.core`` — the lower-bound engine: the ``t_k`` recurrence, block
  partitions and superblocks, scripted partial runs, and the Proposition 1 /
  Lemma 1 constructions that emit atomicity-violation certificates.
* ``repro.sim`` / ``repro.faults`` — the deterministic message-passing
  simulator and the adversary layer (crash, replay-Byzantine, fabrication,
  reply withholding).
* ``repro.quorums`` — threshold and set-system quorum arithmetic.
* ``repro.workloads`` / ``repro.analysis`` / ``repro.cost`` — workload
  generation, latency accounting, and the cloud cost model used by the
  benchmark harness.

Low-level API
-------------

The facade wraps — never replaces — the constructor-driven path, which
remains fully supported for tests and fine-grained control::

    from repro import RegisterSystem, FastRegularProtocol, check_swmr_atomicity
    from repro.registers.transform_atomic import RegularToAtomicProtocol

    protocol = RegularToAtomicProtocol(lambda: FastRegularProtocol(), n_readers=2)
    system = RegisterSystem(protocol, t=1, n_readers=2)
    system.write("hello", at=0)
    system.read(1, at=30)
    system.run()
    assert check_swmr_atomicity(system.history()).ok
"""

from repro.errors import (
    ConfigurationError,
    ConstructionError,
    ConstructionEscape,
    ProtocolError,
    ReproError,
    SimulationError,
    SpecificationError,
)
from repro.types import BOTTOM, ProcessId, TaggedValue, Timestamp, object_ids, reader_id, reader_ids, writer_id
from repro.registers import (
    AbdProtocol,
    BoundedRegularProtocol,
    ByzantineSafeProtocol,
    FastRegularProtocol,
    LuckyAtomicProtocol,
    MultiWriterAbdProtocol,
    MultiWriterRegisterSystem,
    RegisterSystem,
    RegularToAtomicProtocol,
    SecretTokenProtocol,
    ThreeRoundReadProtocol,
    TwoRoundReadProtocol,
)
from repro.spec import (
    History,
    HistoryRecorder,
    check_swmr_atomicity,
    check_swmr_regularity,
    check_swmr_safety,
    is_linearizable,
)
from repro.api import (
    Cluster,
    RunResult,
    SweepResult,
    available_checks,
    available_faults,
    available_protocols,
    get_protocol,
    sweep,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "ProtocolError",
    "SpecificationError",
    "ConstructionError",
    "ConstructionEscape",
    # types
    "BOTTOM",
    "ProcessId",
    "Timestamp",
    "TaggedValue",
    "object_ids",
    "reader_id",
    "reader_ids",
    "writer_id",
    # registers
    "RegisterSystem",
    "AbdProtocol",
    "MultiWriterAbdProtocol",
    "ByzantineSafeProtocol",
    "FastRegularProtocol",
    "BoundedRegularProtocol",
    "LuckyAtomicProtocol",
    "SecretTokenProtocol",
    "RegularToAtomicProtocol",
    "MultiWriterRegisterSystem",
    "TwoRoundReadProtocol",
    "ThreeRoundReadProtocol",
    # spec
    "History",
    "HistoryRecorder",
    "check_swmr_atomicity",
    "check_swmr_regularity",
    "check_swmr_safety",
    "is_linearizable",
    # facade
    "Cluster",
    "RunResult",
    "SweepResult",
    "sweep",
    "get_protocol",
    "available_protocols",
    "available_faults",
    "available_checks",
]

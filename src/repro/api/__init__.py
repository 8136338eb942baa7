"""Unified experiment facade: registries plus the declarative builder.

This package is the high-level entry point of the library — everything an
experiment needs, addressable as data:

* :mod:`repro.api.registry` — the **protocol registry**: every protocol in
  :mod:`repro.registers` registers itself by name with metadata (fault
  model, semantics, resilience class, advertised rounds, covered
  scenarios).  ``get_protocol("abd")`` replaces hand-wired imports.
* :mod:`repro.api.faults` — the **fault-behaviour registry** for the
  adversary layer (``crash``, ``silent``, ``stale-echo``, ``fabricating``,
  ``flaky``).
* :mod:`repro.api.cluster` — the declarative :class:`Cluster` builder and
  the structured :class:`RunResult` / :class:`SweepResult` it produces,
  plus :func:`sweep` for protocol × scenario grids.  Trials compile to
  picklable :class:`TrialSpec` values executed by the pure
  :func:`run_trial` function, so ``Cluster.run(..., parallel=True)`` and
  ``sweep(..., parallel=True)`` fan trials over a process pool with
  results byte-identical to serial execution.

* :mod:`repro.axes` — the six **run axes** (durability, consistency,
  observe, repairs, spares, xfer_quorum), declared once as
  :class:`RunAxes`.  Requests, specs, probes, results, witness JSON,
  ``repro compare`` and the CLI all derive from that record, so *adding a
  run axis* is: declare the field there, read ``request.<name>`` where it
  takes effect, and give it a sample in ``tests/test_axes.py`` (the
  generated round-trip test picks it up) — see the module docstring.

Quickstart::

    from repro.api import Cluster, available_protocols

    print(available_protocols())
    result = (
        Cluster("atomic-fast-regular", t=1)
        .with_faults("stale-echo", count=1)
        .check("atomicity")
        .run(trials=5, seed=7)
    )
    assert result.ok and result.worst_read == 4
"""

from repro.api.registry import (
    ProtocolSpec,
    available_protocols,
    get_protocol,
    get_spec,
    protocol_specs,
    register_protocol,
)
from repro.api.faults import (
    FaultSpec,
    available_faults,
    fault_spec,
    fault_specs,
    register_fault,
)
from repro.api.backends import (
    BackendRequest,
    BackendSpec,
    SystemBackend,
    available_backends,
    backend_specs,
    get_backend_spec,
    register_backend,
)
from repro.axes import RunAxes
from repro.api.cluster import (
    CheckVerdict,
    Cluster,
    FaultInventory,
    RunResult,
    SweepResult,
    TrialResult,
    TrialSpec,
    available_checks,
    run_check,
    run_trial,
    sweep,
)
from repro.consistency import CheckerSpec, checker_specs

__all__ = [
    # protocol registry
    "ProtocolSpec",
    "register_protocol",
    "get_protocol",
    "get_spec",
    "available_protocols",
    "protocol_specs",
    # fault registry
    "FaultSpec",
    "register_fault",
    "fault_spec",
    "fault_specs",
    "available_faults",
    # backend registry
    "BackendRequest",
    "BackendSpec",
    "SystemBackend",
    "register_backend",
    "get_backend_spec",
    "available_backends",
    "backend_specs",
    # run axes
    "RunAxes",
    # checker registry (repro.consistency)
    "CheckerSpec",
    "checker_specs",
    # builder + results
    "Cluster",
    "run_check",
    "CheckVerdict",
    "FaultInventory",
    "TrialResult",
    "TrialSpec",
    "RunResult",
    "SweepResult",
    "available_checks",
    "run_trial",
    "sweep",
]

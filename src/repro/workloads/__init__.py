"""Workload generation for tests and benchmarks.

:mod:`repro.workloads.generator` produces seeded random operation schedules
(who reads/writes what, when); :mod:`repro.workloads.scenarios` bundles the
named scenarios the benchmark harness sweeps — contention patterns, fault
mixes, and the cloud-style read-heavy workloads the paper's introduction
motivates.
"""

from repro.workloads.generator import OperationPlan, WorkloadGenerator
from repro.workloads.scenarios import Scenario, standard_scenarios

__all__ = [
    "OperationPlan",
    "WorkloadGenerator",
    "Scenario",
    "standard_scenarios",
]

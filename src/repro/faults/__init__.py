"""Fault behaviours and adversarial schedules.

The paper's model allows clients to crash and up to ``t`` objects to be
*malicious* (Byzantine, unauthenticated data).  This package provides:

* benign endpoint faults — silence, crash-at-time (:mod:`repro.faults.adversary`);
* crash-recover faults — machines that go dark and rejoin from durable
  storage, with fsync-lag and torn-write damage (:mod:`repro.faults.recovery`);
* Byzantine behaviours — stale echo (a genuine past state, the adversary
  of the proofs) and fabrication of arbitrary well-typed states
  (:mod:`repro.faults.byzantine`);
* an adversarial delivery schedule — reply withholding
  (:mod:`repro.faults.schedules`);
* fault timing as data — :class:`~repro.faults.timing.TimedFault` defers
  any registered behaviour to an explicit per-object trigger point, the
  choice the schedule explorer sweeps (:mod:`repro.faults.timing`).
"""

from repro.faults.adversary import CrashAt, SilentBehavior, flaky_behavior
from repro.faults.recovery import CrashRecoverAt, FsyncLag, TornWrite
from repro.faults.timing import TimedFault, timed_fault
from repro.faults.byzantine import FabricatingBehavior, StaleEchoBehavior
from repro.faults.schedules import WithholdFrom

__all__ = [
    "SilentBehavior",
    "CrashAt",
    "CrashRecoverAt",
    "FsyncLag",
    "TornWrite",
    "flaky_behavior",
    "StaleEchoBehavior",
    "FabricatingBehavior",
    "TimedFault",
    "timed_fault",
    "WithholdFrom",
]

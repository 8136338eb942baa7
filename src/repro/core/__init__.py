"""The paper's primary contribution, executable.

* :mod:`repro.core.recurrence` — the write-bound recurrence
  ``t_k = t_{k-1} + 2 t_{k-2} + 1``, its closed form, and the
  ``k ≤ ⌊log(⌈(3t+1)/2⌉)⌋`` bound (Lemma 2) with the resilience scaling of
  Proposition 2.
* :mod:`repro.core.blocks` — the block partitions and superblocks of both
  proofs, with the cardinality identities (1)–(3).
* :mod:`repro.core.runs` — scripted partial runs: exact per-round delivery
  control, state capture, forging by state restoration, reply transcripts.
* :mod:`repro.core.read_bound` — Proposition 1 as an executable adversary.
* :mod:`repro.core.write_bound` — Lemma 1 / Proposition 2 as an executable
  adversary.
* :mod:`repro.core.diagrams` — ASCII renderings in the style of the paper's
  Figures 1 and 2.
* :mod:`repro.core.certificates` — structured violation evidence.
"""

from repro.core.recurrence import (
    closed_form,
    max_write_rounds,
    resilience_bound,
    t_k,
)
from repro.core.blocks import BlockPartition, read_bound_partition, write_bound_partition
from repro.core.runs import RunResult, ScriptedRun, Script
from repro.core.certificates import ViolationCertificate
from repro.core.read_bound import ReadLowerBoundConstruction
from repro.core.write_bound import WriteLowerBoundConstruction

__all__ = [
    "t_k",
    "closed_form",
    "max_write_rounds",
    "resilience_bound",
    "BlockPartition",
    "read_bound_partition",
    "write_bound_partition",
    "Script",
    "ScriptedRun",
    "RunResult",
    "ViolationCertificate",
    "ReadLowerBoundConstruction",
    "WriteLowerBoundConstruction",
]

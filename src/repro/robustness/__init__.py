"""Robustness frontiers: the strongest model a configuration certifies.

The paper fixes a consistency model (atomic) and asks which fault/timing
configurations a protocol survives.  This package asks the transposed
question: given one configuration — protocol, sizes, fault budget, timing
swept by the explorer — *which model on the consistency spectrum does it
still serve?*  :func:`robustness_frontier` walks the checker-registry
ladder (atomic → k-atomic(2..K) → regular → safe), running the bounded
schedule exploration of :mod:`repro.explore` under each checker — every
schedule simulated once for the whole walk and judged once per rung that
reaches it — and returns the strongest **certified** model together with
a minimized, replayable :class:`~repro.explore.witness.ScheduleWitness`
refuting the next-stronger one.

Entry points: :meth:`repro.api.Cluster.frontier`,
:func:`robustness_frontier`, and ``python -m repro frontier``.
"""

from repro.robustness.frontier import (
    FrontierResult,
    model_ladder,
    robustness_frontier,
)

__all__ = [
    "FrontierResult",
    "model_ladder",
    "robustness_frontier",
]

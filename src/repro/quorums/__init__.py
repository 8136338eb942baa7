"""Quorum arithmetic for crash and Byzantine threshold systems.

Everything the protocols and the lower-bound constructions need to reason
about reply-set sizes lives here: resilience conditions, intersection
lemmas, certification thresholds, and the block-cardinality algebra used by
the write lower bound.
"""

from repro.quorums.threshold import (
    ByzantineThresholds,
    CrashThresholds,
    certification_threshold,
    optimal_resilience_objects,
)
from repro.quorums.analysis import is_masking_system, quorum_availability

__all__ = [
    "CrashThresholds",
    "ByzantineThresholds",
    "optimal_resilience_objects",
    "certification_threshold",
    "quorum_availability",
    "is_masking_system",
]

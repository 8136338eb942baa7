"""``repro.consistency`` — the k-atomicity spectrum.

Three layers over one vocabulary of consistency-model strings:

* **verification** (:mod:`~repro.consistency.kat`) —
  :func:`check_k_atomicity` (exact SWMR greedy + MWMR k-frontier search)
  and the brute-force :func:`check_k_atomicity_reference` oracle;
* **measurement** (:mod:`~repro.consistency.staleness`) — per-read
  staleness samples and their distribution;
* **dispatch** (:mod:`~repro.consistency.models`) — the checker registry
  behind :meth:`Cluster.check` and the explorer, :class:`CheckVerdict`,
  and the ``"atomic"``/``"k-atomic(N)"`` model-string parser the
  ``k-atomic`` backend (:mod:`~repro.consistency.bounded`) is selected by.
"""

from repro.consistency.bounded import bounded_stale_view
from repro.consistency.kat import check_k_atomicity, check_k_atomicity_reference
from repro.consistency.models import (
    CHECKS,
    DEFAULT_K,
    CheckerSpec,
    CheckVerdict,
    available_checks,
    canonical_check_name,
    checker_specs,
    consistency_bound,
    parse_consistency,
    resolve_check,
    run_check,
)
from repro.consistency.staleness import read_staleness, staleness_distribution

__all__ = [
    "CHECKS",
    "DEFAULT_K",
    "CheckVerdict",
    "CheckerSpec",
    "available_checks",
    "bounded_stale_view",
    "canonical_check_name",
    "check_k_atomicity",
    "check_k_atomicity_reference",
    "checker_specs",
    "consistency_bound",
    "parse_consistency",
    "read_staleness",
    "resolve_check",
    "run_check",
    "staleness_distribution",
]

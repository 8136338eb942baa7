"""Monetary and latency cost of storage round-trips.

The paper's Introduction argues that with storage outsourced to clouds,
"the number of interactions with the remote cloud storage … maps to our
latency metric and is often directly associated with the monetary cost".
This module makes that argument quantitative for the benchmark E8: every
round is one request to each of the ``S`` storage objects, each request is
billed per-operation (S3-style per-request pricing) and costs one wide-area
round-trip time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class CostEstimate:
    """Cost of one logical storage operation."""

    rounds: int
    requests: int
    dollars: float
    latency_ms: float


@dataclass(frozen=True, slots=True)
class CloudCostModel:
    """Per-request pricing plus wide-area RTT.

    Defaults are deliberately round numbers of the right magnitude
    (per-request pricing in the $0.4–5 per million range, WAN RTTs of tens
    of milliseconds); the benchmark's point is the *ratio* between
    protocols, which is exact, not the absolute dollar figures.
    """

    S: int
    price_per_request: float = 0.4e-6  # dollars; ~S3 GET pricing magnitude
    rtt_ms: float = 30.0

    def __post_init__(self) -> None:
        if self.S < 1:
            raise ConfigurationError("need at least one object")
        if self.price_per_request < 0 or self.rtt_ms < 0:
            raise ConfigurationError("prices and RTTs must be non-negative")

    def operation(self, rounds: int) -> CostEstimate:
        """Cost of one operation taking ``rounds`` round-trips."""
        if rounds < 0:
            raise ConfigurationError("rounds must be non-negative")
        requests = rounds * self.S
        return CostEstimate(
            rounds=rounds,
            requests=requests,
            dollars=requests * self.price_per_request,
            latency_ms=rounds * self.rtt_ms,
        )

    def workload(self, reads: int, read_rounds: int, writes: int, write_rounds: int) -> float:
        """Total dollars for a read/write mix."""
        read_cost = reads * self.operation(read_rounds).dollars
        write_cost = writes * self.operation(write_rounds).dollars
        return read_cost + write_cost

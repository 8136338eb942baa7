"""Threshold quorum parameters for crash and Byzantine storage.

The paper's model: ``S`` objects, up to ``t`` Byzantine, optimal resilience
``S = 3t + 1`` (footnote 1, citing [Martin-Alvisi-Dahlin 02]).  Clients wait
for at most ``S − t`` replies by default, since ``t`` faulty objects may stay
silent forever.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


def optimal_resilience_objects(t: int) -> int:
    """Objects needed to tolerate ``t`` Byzantine faults: ``3t + 1``."""
    if t < 0:
        raise ConfigurationError("t must be non-negative")
    return 3 * t + 1


def certification_threshold(t: int) -> int:
    """Votes needed so at least one voucher is correct: ``t + 1``."""
    if t < 0:
        raise ConfigurationError("t must be non-negative")
    return t + 1


@dataclass(frozen=True, slots=True)
class CrashThresholds:
    """Quorum sizes for crash-only storage (ABD regime).

    ABD needs any two quorums to intersect: majority quorums of size
    ``⌊S/2⌋ + 1`` tolerate ``t ≤ ⌈S/2⌉ − 1`` crashes.
    """

    S: int
    t: int

    def __post_init__(self) -> None:
        if self.S < 1:
            raise ConfigurationError("need at least one object")
        if not 0 <= self.t:
            raise ConfigurationError("t must be non-negative")
        if self.S < 2 * self.t + 1:
            raise ConfigurationError(
                f"crash-tolerant storage needs S >= 2t + 1 (got S={self.S}, t={self.t})"
            )

    @property
    def quorum(self) -> int:
        """Majority quorum size: any two quorums intersect."""
        return self.S // 2 + 1


@dataclass(frozen=True, slots=True)
class ByzantineThresholds:
    """Quorum sizes for Byzantine storage with unauthenticated data.

    With ``S = 3t + 1`` and clients waiting for ``q = S − t = 2t + 1``
    replies:

    * any two reply sets intersect in ``2q − S = t + 1`` objects, at least
      one of which is correct (*masking* intersection);
    * a value reported identically by ``t + 1`` repliers is genuine
      (*certification*);
    * a complete write stored at ``q`` objects has at least ``q − t = t + 1``
      correct holders, and any later reply set contains at least
      ``q + (t+1) − S = 1`` of them (*freshness witness*).
    """

    S: int
    t: int

    def __post_init__(self) -> None:
        if self.S < 1:
            raise ConfigurationError("need at least one object")
        if self.t < 0:
            raise ConfigurationError("t must be non-negative")
        if self.S < 3 * self.t + 1:
            raise ConfigurationError(
                f"Byzantine unauthenticated storage needs S >= 3t + 1 "
                f"(got S={self.S}, t={self.t})"
            )

    @classmethod
    def optimally_resilient(cls, t: int) -> "ByzantineThresholds":
        """The ``S = 3t + 1`` configuration the paper calls optimal."""
        return cls(S=optimal_resilience_objects(t), t=t)

    @property
    def quorum(self) -> int:
        """Replies a client waits for: ``S − t``."""
        return self.S - self.t

    @property
    def certify(self) -> int:
        """Identical reports guaranteeing genuineness: ``t + 1``."""
        return certification_threshold(self.t)

    def freshness_witnesses(self) -> int:
        """Correct fresh holders guaranteed inside any later reply set.

        ``q + (q − t) − S``; equals 1 at optimal resilience — the
        single-witness phenomenon that makes unauthenticated reads hard and
        drives both lower bounds.
        """
        return 2 * self.quorum - self.t - self.S

"""Exception hierarchy for the ``repro`` library.

Every error raised by library code derives from :class:`ReproError` so that
callers can catch the whole family with one clause.  Errors are grouped by
subsystem: simulation, protocol, specification checking, and the lower-bound
construction engine.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A component was constructed with inconsistent parameters.

    Examples: a Byzantine register with ``S < 3t + 1`` objects when optimal
    resilience is required, a reader id outside the declared reader set, or a
    block partition whose sizes do not sum to ``S``.
    """


class SimulationError(ReproError):
    """The simulator reached an internal inconsistency.

    This signals a bug in the harness (e.g. an event scheduled in the past),
    never a legitimate protocol outcome.
    """


class ChannelError(SimulationError):
    """A message was sent over a nonexistent or closed channel."""


class ProtocolError(ReproError):
    """A protocol automaton observed something its specification forbids.

    Correct processes raise this when a reply is malformed beyond what the
    fault model allows (e.g. a reply to a round that was never started).
    """


class SpecificationError(ReproError):
    """A history handed to a checker is structurally ill-formed.

    For instance, a response without a matching invocation, or two concurrent
    operations issued by the same client (the model allows at most one
    outstanding operation per client).
    """


class StorageError(ReproError):
    """A stable-storage invariant was violated.

    Examples: appending to a store whose machine is crashed (frozen), or
    attaching a crash-recover fault to an object built without a durability
    seam (``durability="none"``).
    """


class ConstructionError(ReproError):
    """A lower-bound construction could not be carried out as scripted.

    Distinct from :class:`ConstructionEscape`: this signals misuse (wrong
    block partition, protocol with the wrong declared round counts), not a
    protocol legitimately evading the adversary.
    """


class ConstructionEscape(ReproError):
    """The target protocol escaped the lower-bound construction.

    The constructions of Propositions 1 and 2 apply only to protocols whose
    reads complete in two (resp. three) rounds on the reply sets the adversary
    offers.  A protocol that refuses to terminate a round (e.g. the 4-round
    transform) *escapes*; the exception records at which scripted step the
    escape happened, which is the executable face of bound tightness.
    """

    def __init__(self, step: str, reason: str) -> None:
        self.step = step
        self.reason = reason
        super().__init__(f"construction escaped at {step}: {reason}")

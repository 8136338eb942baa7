"""Named benchmark scenarios: fault mixes and workload shapes.

The latency-matrix experiment (E6) runs every protocol under every scenario
here; tests reuse them so benchmark configurations stay covered by the test
suite.  Scenarios are **registry-addressable**: :func:`get_scenario` builds
one by name for a given threshold, :func:`available_scenarios` lists the
names, and :func:`register_scenario` adds custom regimes (which the
:class:`repro.api.cluster.Cluster` facade then accepts by name).

A scenario *declares* its adversary, it does not build it: ``faults`` holds
``(name, count[, kwargs])`` entries naming :mod:`repro.api.faults` registry
behaviours — the format ``with_faults`` and ``--faults`` speak.  The facade
resolves, assigns and clamps them
(:func:`repro.api.cluster._materialize_behaviors`, the only place that does).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class Scenario:
    """Declared faults plus workload shape.

    ``faults`` names the adversary, one ``(name, count[, kwargs])`` entry
    per group; empty for a fault-free scenario.  Every scenario runs on the
    synchronous unit-latency fabric: which messages stay in transit is the
    schedule explorer's choice (:class:`~repro.explore.controlled.HoldLink`),
    not a scenario's.
    """

    name: str
    faults: tuple[tuple, ...] = ()
    read_fraction: float = 0.6
    spacing: int = 25
    description: str = ""
    #: Recovery scenarios replay durable journals on rejoin, so adopting
    #: clusters must run with ``durability='mem'`` or ``'dir'``; the facade
    #: checks this parent-side and fails with a clear error before any
    #: trial (or pool worker) starts.
    requires_durability: bool = False
    #: Fleet-wide scenarios (rolling restarts hit *every* object) opt out
    #: of the threshold clamp: adopting clusters flip ``allow_overfault``
    #: on, so the full declared count materializes.
    overfault: bool = False


# --------------------------------------------------------------------- #
# Scenario registry
# --------------------------------------------------------------------- #

#: name → builder mapping a threshold ``t`` to a concrete :class:`Scenario`.
_SCENARIOS: dict[str, Callable[[int], Scenario]] = {}


def register_scenario(
    name: str, builder: Callable[[int], Scenario], *, overwrite: bool = False
) -> None:
    """Register ``builder`` (t → Scenario) under ``name``."""
    if name in _SCENARIOS and not overwrite:
        raise ConfigurationError(f"scenario {name!r} registered twice")
    _SCENARIOS[name] = builder


def get_scenario(name: str, t: int) -> Scenario:
    """Build the scenario registered under ``name`` for threshold ``t``."""
    try:
        builder = _SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; available: {', '.join(available_scenarios())}"
        ) from None
    return builder(t)


def available_scenarios() -> tuple[str, ...]:
    """All registered scenario names, sorted."""
    return tuple(sorted(_SCENARIOS))


register_scenario(
    "fault-free",
    lambda t: Scenario(
        name="fault-free",
        description="synchronous, all objects correct",
    ),
)
register_scenario(
    "crash",
    lambda t: Scenario(
        name="crash",
        faults=(("crash", t),),
        description=f"{t} objects crash after a few messages",
    ),
)
register_scenario(
    "silent",
    lambda t: Scenario(
        name="silent",
        faults=(("silent", t),),
        description=f"{t} objects silent from the start",
    ),
)
register_scenario(
    "replay",
    lambda t: Scenario(
        name="replay",
        faults=(("replay", t),),
        description=f"{t} objects echo stale genuine states (the proofs' adversary)",
    ),
)
register_scenario(
    "fabricate",
    lambda t: Scenario(
        name="fabricate",
        faults=(("fabricate", t),),
        description=f"{t} objects fabricate inflated timestamps",
    ),
)
register_scenario(
    "rolling-restart",
    lambda t: Scenario(
        name="rolling-restart",
        # Every object of the default 2t+1 crash-family layout restarts
        # once, in index order: s_i crashes after its (3 + (i-1)·6)-th
        # delivery and rejoins from its journal two deliveries later.  The
        # stagger keeps at most t machines down at once, so the scenario
        # is legal despite touching more than t objects over the run.
        faults=(("rolling-restart", 2 * t + 1, {"base": 3, "stagger": 6, "rejoin_after": 2}),),
        description="crash-recover every object in sequence (staggered restarts)",
        requires_durability=True,
        overfault=True,
    ),
)
register_scenario(
    "crash-storm",
    lambda t: Scenario(
        name="crash-storm",
        # One machine stuck in a crash-recover loop: three crashes, each
        # after two honest deliveries, each dark for one delivery.
        faults=(("flap", 1, {"survive_messages": 2, "rejoin_after": 1, "cycles": 3}),),
        description="repeated crash-recover cycles on one object",
        requires_durability=True,
    ),
)

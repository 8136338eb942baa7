"""Fault-behaviour registry: the adversary layer addressable by name.

Mirrors :mod:`repro.api.registry` for :mod:`repro.faults`: each named entry
is a **maker** producing a fresh :class:`~repro.sim.process.FaultBehavior`
per object (behaviours can be stateful, so instances are never shared).

The built-in catalogue covers the behaviours the paper's adversary uses —
``crash``, ``silent``, ``stale-echo`` (the replay adversary of the proofs)
and ``fabricating`` (the unauthenticated worst case) — plus the ``flaky``
omission behaviour used by the chaos tests and the recovery / churn family.
Registration is lazy (first lookup imports :mod:`repro.faults`) so this
module stays import-cycle-free.

Every adversary is declared against this registry in one format, ``(name,
count[, kwargs])`` — ``Cluster.with_faults``, ``--faults``,
``robustness_frontier(faults=…)`` and the named scenarios alike.  The
registry only makes behaviours; who gets one, and the clamp to ``t``, is
:func:`repro.api.cluster._materialize_behaviors`' job alone.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """Registry entry: behaviour maker plus reporting metadata."""

    name: str
    maker: Callable[..., Any]
    model: str  # "benign" | "byzantine" | "wrapper"
    aliases: tuple[str, ...] = ()
    description: str = ""
    #: Maker parameters that schedule *when* the behaviour fires (e.g.
    #: ``survive_messages``).  The ``timed`` wrapper forces these to zero
    #: and owns the trigger point itself, so facade-scheduled timing and
    #: explorer-swept timing can never contradict each other.  Empty for
    #: behaviours that are active from their first delivery.
    timing: tuple[str, ...] = ()

    def build(self, **kwargs: Any) -> Any:
        """A fresh behaviour instance."""
        return self.maker(**kwargs)

    def params(self) -> dict[str, Any] | None:
        """Accepted keyword parameters mapped to their defaults.

        Introspected from the maker's signature so ``repro list-faults``
        and parent-side ``--fault-arg`` validation stay in lockstep with
        what :meth:`build` actually accepts.  Returns ``None`` when the
        maker takes ``**kwargs`` (its parameter set is open-ended and
        cannot be validated up front).
        """
        params: dict[str, Any] = {}
        for param in inspect.signature(self.maker).parameters.values():
            if param.kind is inspect.Parameter.VAR_KEYWORD:
                return None
            if param.kind is inspect.Parameter.VAR_POSITIONAL:
                continue
            params[param.name] = (
                None if param.default is inspect.Parameter.empty else param.default
            )
        return params

    def validate_kwargs(self, kwargs: dict[str, Any]) -> None:
        """Reject keyword arguments :meth:`build` would choke on.

        Raised parent-side (before any worker pool spins up) so a typo'd
        ``--fault-arg`` fails with the accepted parameter names instead of
        a ``TypeError`` inside a worker process.
        """
        params = self.params()
        if params is None:
            return
        unknown = sorted(set(kwargs) - set(params))
        if unknown:
            accepted = ", ".join(sorted(params)) if params else "none"
            raise ConfigurationError(
                f"fault {self.name!r} got unknown argument(s) "
                f"{', '.join(repr(k) for k in unknown)}; accepted: {accepted}"
            )


_FAULTS: dict[str, FaultSpec] = {}
_ALIASES: dict[str, str] = {}
_BOOTSTRAPPED = False


def register_fault(
    name: str,
    maker: Callable[..., Any],
    *,
    model: str,
    aliases: tuple[str, ...] = (),
    description: str = "",
    timing: tuple[str, ...] = (),
) -> FaultSpec:
    """Register ``maker`` as the fault behaviour named ``name``."""
    spec = FaultSpec(
        name=name, maker=maker, model=model, aliases=tuple(aliases),
        description=description, timing=tuple(timing),
    )
    for key in (name, *spec.aliases):
        if key in _FAULTS or key in _ALIASES:
            raise ConfigurationError(f"fault behaviour name {key!r} registered twice")
    _FAULTS[name] = spec
    for alias in spec.aliases:
        _ALIASES[alias] = name
    return spec


def _ensure_registered() -> None:
    global _BOOTSTRAPPED
    if _BOOTSTRAPPED:
        return
    _BOOTSTRAPPED = True
    from repro.faults.adversary import CrashAt, SilentBehavior, flaky_behavior
    from repro.faults.byzantine import FabricatingBehavior, StaleEchoBehavior
    from repro.faults.churn import Flap, PermanentCrash, RollingReplace, RollingRestart
    from repro.faults.recovery import CrashRecoverAt, FsyncLag, TornWrite

    register_fault(
        "crash",
        lambda survive_messages=3: CrashAt(survive_messages=survive_messages),
        model="benign",
        description="behave correctly for a few messages, then stop replying",
        timing=('survive_messages',),
    )
    register_fault(
        "silent",
        lambda: SilentBehavior(),
        model="benign",
        description="never reply (crashed before the run started)",
    )
    register_fault(
        "stale-echo",
        lambda: StaleEchoBehavior(frozen_state={}),
        model="byzantine",
        aliases=("replay",),
        description="forever echo a stale genuine state (the proofs' adversary)",
    )
    register_fault(
        "fabricating",
        lambda fabricate=None: FabricatingBehavior(fabricate),
        model="byzantine",
        aliases=("fabricate",),
        description="reply with fabricated inflated-timestamp states",
    )
    register_fault(
        "flaky",
        lambda p_reply=0.5, seed=0: flaky_behavior(p_reply=p_reply, seed=seed),
        model="benign",
        description="reply honestly with probability p, else stay silent",
    )
    register_fault(
        "crash-recover",
        lambda survive_messages=3, rejoin_after=2: CrashRecoverAt(
            survive_messages=survive_messages, rejoin_after=rejoin_after
        ),
        model="benign",
        description="go dark mid-run, later rejoin from the durable journal",
        timing=('survive_messages',),
    )
    register_fault(
        "fsync-lag",
        lambda survive_messages=3, rejoin_after=2, lag=1: FsyncLag(
            survive_messages=survive_messages, rejoin_after=rejoin_after, lag=lag
        ),
        model="benign",
        description="crash loses the acknowledged-but-unsynced journal suffix",
        timing=('survive_messages',),
    )
    register_fault(
        "torn-write",
        lambda survive_messages=3, rejoin_after=2: TornWrite(
            survive_messages=survive_messages, rejoin_after=rejoin_after
        ),
        model="benign",
        description="crash tears the last journal record; recovery discards it",
        timing=('survive_messages',),
    )
    register_fault(
        "perm-crash",
        lambda survive_messages=3: PermanentCrash(survive_messages=survive_messages),
        model="benign",
        aliases=("permanent-crash",),
        description="fail for good mid-run: dark forever, nothing to recover",
        timing=('survive_messages',),
    )
    register_fault(
        "flap",
        lambda survive_messages=2, rejoin_after=1, cycles=2: Flap(
            survive_messages=survive_messages, rejoin_after=rejoin_after, cycles=cycles
        ),
        model="benign",
        description="repeated crash-recover cycles before finally stabilising",
        timing=('survive_messages',),
    )
    register_fault(
        "rolling-replace",
        lambda base=3, stagger=6: RollingReplace(base=base, stagger=stagger),
        model="benign",
        description="staggered permanent crashes: s1 dies, then s2, then s3",
        timing=('base', 'stagger'),
    )
    register_fault(
        "rolling-restart",
        lambda base=3, stagger=6, rejoin_after=2: RollingRestart(
            base=base, stagger=stagger, rejoin_after=rejoin_after
        ),
        model="benign",
        description="staggered crash-recovers: s1 restarts, then s2, then s3",
        timing=('base', 'stagger'),
    )

    from repro.faults.timing import timed_fault

    # The wrapped fault's name travels as ``inner=`` (not ``fault=``) so it
    # never collides with the facade's own ``with_faults(fault, ...)``
    # parameter.
    register_fault(
        "timed",
        lambda inner="silent", at=0, **kwargs: timed_fault(inner, at=at, **kwargs),
        model="wrapper",
        description="defer any registered fault (inner=, default silent — "
                    "a crash at the trigger) to an explicit per-object "
                    "trigger point (at= handled messages)",
        timing=("at",),
    )


def fault_spec(name: str) -> FaultSpec:
    """The :class:`FaultSpec` registered under ``name`` (or an alias)."""
    _ensure_registered()
    canonical = _ALIASES.get(name, name)
    try:
        return _FAULTS[canonical]
    except KeyError:
        raise ConfigurationError(
            f"unknown fault behaviour {name!r}; available: {', '.join(available_faults())}"
        ) from None


def available_faults() -> tuple[str, ...]:
    """All registered fault-behaviour names, sorted."""
    _ensure_registered()
    return tuple(sorted(_FAULTS))


def fault_specs() -> tuple[FaultSpec, ...]:
    """All registered fault specs, sorted by name."""
    _ensure_registered()
    return tuple(_FAULTS[name] for name in sorted(_FAULTS))

"""Protocol registry: every register protocol addressable by name.

Protocols in :mod:`repro.registers` declare themselves with the
:func:`register_protocol` decorator, attaching the metadata the facade
needs to build, validate and report on them without hand-wiring:

* a **factory** (the decorated class, or an explicit ``factory=`` for
  composite protocols such as the regular→atomic transformation),
* the **fault model** (``crash`` / ``byzantine`` / ``byzantine-masking`` /
  ``secret-token``) and **semantics** rung (``atomic`` / ``regular`` /
  ``safe``),
* the **resilience class** as both a human-readable formula and an
  executable ``min_size(t)`` callable,
* the **advertised round counts** (taken from the class attributes the
  latency benchmarks already rely on), and
* the named **scenarios** (see :mod:`repro.workloads.scenarios`) whose
  adversaries the protocol's guarantees cover.

Lookup is lazy: the first call to :func:`get_protocol` /
:func:`available_protocols` imports :mod:`repro.registers`, which runs the
decorators.  The registry module itself therefore must never import the
protocol modules at import time (that would be circular).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigurationError

#: Sentinel distinguishing "metadata not supplied" from an explicit None.
_UNSET: Any = object()

#: semantics → the consistency check the protocol advertises it satisfies.
_SEMANTICS_CHECKS = {"atomic": "atomicity", "regular": "regularity", "safe": "safety"}


@dataclass(frozen=True, slots=True)
class ProtocolSpec:
    """Registry entry: factory plus the metadata the facade reports.

    ``min_size`` maps the fault threshold ``t`` to the smallest object
    count the protocol accepts (its resilience class, executable);
    ``resilience`` is the same fact as a formula for tables.
    ``read_rounds`` is ``None`` for t-dependent bounds, in which case
    ``read_round_bound`` gives the bound as a function of ``t``.
    ``scenarios`` names the :mod:`repro.workloads.scenarios` regimes the
    protocol's guarantees cover (what the latency sweep exercises).
    """

    name: str
    factory: Callable[..., Any]
    model: str
    semantics: str
    resilience: str
    min_size: Callable[[int], int]
    write_rounds: int
    read_rounds: int | None
    scenarios: tuple[str, ...] = ("fault-free",)
    read_round_bound: Callable[[int], int] | None = None
    needs_readers: bool = False
    aliases: tuple[str, ...] = ()
    description: str = ""
    #: The system backend that runs this protocol when ``Cluster`` is not
    #: given one explicitly (see :mod:`repro.api.backends`).
    backend: str = "single"

    def build(self, n_readers: int = 2, **kwargs: Any) -> Any:
        """A fresh protocol instance (protocols are stateful — never share)."""
        if self.needs_readers:
            kwargs.setdefault("n_readers", n_readers)
        return self.factory(**kwargs)

    def default_check(self) -> str:
        """The consistency check this protocol advertises (by semantics)."""
        return _SEMANTICS_CHECKS[self.semantics]

    def reads_description(self, t: int | None = None) -> str:
        """Advertised read rounds, resolving t-dependent bounds when possible."""
        if self.read_rounds is not None:
            return str(self.read_rounds)
        if self.read_round_bound is not None and t is not None:
            return f"{self.read_round_bound(t)} (t={t})"
        return "O(t)"


_PROTOCOLS: dict[str, ProtocolSpec] = {}
_ALIASES: dict[str, str] = {}


def _ensure_registered() -> None:
    # Importing the package runs every @register_protocol decorator.
    import repro.registers  # noqa: F401


def register_protocol(
    name: str,
    *,
    model: str,
    semantics: str,
    resilience: str,
    min_size: Callable[[int], int],
    scenarios: tuple[str, ...] = ("fault-free",),
    write_rounds: int | None = None,
    read_rounds: Any = _UNSET,
    read_round_bound: Callable[[int], int] | None = None,
    needs_readers: bool = False,
    aliases: tuple[str, ...] = (),
    description: str = "",
    backend: str = "single",
    factory: Callable[..., Any] | None = None,
) -> Callable[[Any], Any]:
    """Register a protocol under ``name``; usable as a class decorator.

    As a decorator the class itself is the factory and the advertised round
    counts default to its ``write_rounds`` / ``read_rounds`` attributes::

        @register_protocol("abd", model="crash", semantics="atomic", ...)
        class AbdProtocol(RegisterProtocol): ...

    Composite protocols pass an explicit ``factory`` and call the returned
    registrar immediately (see :mod:`repro.registers.transform_atomic`).
    """
    if semantics not in _SEMANTICS_CHECKS:
        raise ConfigurationError(
            f"semantics must be one of {sorted(_SEMANTICS_CHECKS)}, got {semantics!r}"
        )

    def _register(obj: Any) -> Any:
        actual_factory = factory if factory is not None else obj
        wr = write_rounds if write_rounds is not None else getattr(obj, "write_rounds", 0)
        rr = read_rounds if read_rounds is not _UNSET else getattr(obj, "read_rounds", None)
        spec = ProtocolSpec(
            name=name,
            factory=actual_factory,
            model=model,
            semantics=semantics,
            resilience=resilience,
            min_size=min_size,
            write_rounds=wr,
            read_rounds=rr,
            scenarios=tuple(scenarios),
            read_round_bound=read_round_bound,
            needs_readers=needs_readers,
            aliases=tuple(aliases),
            description=description,
            backend=backend,
        )
        for key in (name, *spec.aliases):
            if key in _PROTOCOLS or key in _ALIASES:
                raise ConfigurationError(f"protocol name {key!r} registered twice")
        _PROTOCOLS[name] = spec
        for alias in spec.aliases:
            _ALIASES[alias] = name
        return obj

    if factory is not None:
        _register(factory)
        return lambda obj: obj
    return _register


def get_spec(name: str) -> ProtocolSpec:
    """The :class:`ProtocolSpec` registered under ``name`` (or an alias)."""
    _ensure_registered()
    canonical = _ALIASES.get(name, name)
    try:
        return _PROTOCOLS[canonical]
    except KeyError:
        raise ConfigurationError(
            f"unknown protocol {name!r}; available: {', '.join(available_protocols())}"
        ) from None


def get_protocol(name: str, n_readers: int = 2, **kwargs: Any) -> Any:
    """A fresh instance of the protocol registered under ``name``."""
    return get_spec(name).build(n_readers=n_readers, **kwargs)


def available_protocols() -> tuple[str, ...]:
    """All registered protocol names, sorted."""
    _ensure_registered()
    return tuple(sorted(_PROTOCOLS))


def protocol_specs() -> tuple[ProtocolSpec, ...]:
    """All registered specs, sorted by name."""
    _ensure_registered()
    return tuple(_PROTOCOLS[name] for name in sorted(_PROTOCOLS))

"""The run axes, declared once.

A run is a point in the paper's configuration space (protocol, ``S``, ``t``,
fault model, workload) *plus* six harness axes that say how that point is
executed and served.  :class:`RunAxes` is their only declaration: name,
default, validator, whether result payloads tag the axis, and its CLI flag.
Every carrier derives from it instead of re-listing the names —
:class:`~repro.api.backends.BackendRequest` (and through it
:class:`~repro.api.cluster.TrialSpec` and
:class:`~repro.explore.engine.ScheduleProbe`) *inherit* the fields;
:class:`~repro.api.cluster.Cluster` and the run / explore / frontier results
hold one record; witness JSON, ``repro compare`` and the CLI go through
:meth:`RunAxes.to_payload` / :meth:`RunAxes.from_payload` /
:meth:`RunAxes.non_default` / :meth:`RunAxes.add_cli_flags` /
:meth:`RunAxes.from_args`.

Adding a run axis
-----------------

1. Declare the field on :class:`RunAxes` with :func:`_axis` (default,
   ``check=`` validator, ``tagged=True`` if stored results must not compare
   across its values, ``flag=`` plus argparse keywords for the CLI) and
   document it in the class docstring.
2. Read it where it takes effect — a backend builder sees it as
   ``request.<name>``, the trial engine as ``spec.<name>``.
3. Give it a sample in ``tests/test_axes.py``; the generated round-trip test
   fails until you do, and then checks it through specs, pickling, witness
   JSON, result payloads, the compare key and all three CLI subcommands.

This module imports only leaf packages (``storage``, ``consistency``), so
``registers``, ``api``, ``explore``, ``robustness`` and ``__main__`` can all
import it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.consistency.models import parse_consistency
from repro.errors import ConfigurationError
from repro.storage import DURABILITIES, resolve_durability

if TYPE_CHECKING:  # pragma: no cover — the facade never needs argparse
    import argparse


def _axis(
    default: Any,
    *,
    check: Callable[[Any], Any] | None = None,
    tagged: bool = False,
    flag: str | None = None,
    **argparse_kwargs: Any,
) -> Any:
    """One axis: default, validator, result-tag participation, CLI flag."""
    return field(default=default, metadata={
        "check": check, "tagged": tagged, "flag": flag, "argparse": argparse_kwargs,
    })


def _repair_steps(steps: Any) -> tuple[tuple[int, int], ...]:
    compiled: list[tuple[int, int]] = []
    for step in steps:
        if not isinstance(step, tuple) or len(step) != 2:
            raise ConfigurationError(
                f"repair steps are (member_index, at) pairs, got {step!r}"
            )
        member, at = step
        if member < 1:
            raise ConfigurationError(f"repair member indices are 1-based, got {member}")
        if at < 0:
            raise ConfigurationError(f"repair time must be non-negative, got {at}")
        compiled.append((int(member), int(at)))
    return tuple(compiled)


def _spares(spares: int | None) -> int | None:
    if spares is not None and spares < 0:
        raise ConfigurationError("spares must be non-negative")
    return spares


def _xfer_quorum(xfer_quorum: int | None) -> int | None:
    if xfer_quorum is not None and xfer_quorum < 1:
        raise ConfigurationError("xfer_quorum must be at least 1")
    return xfer_quorum


def _parse_repair(item: str) -> tuple[int, int]:
    """One ``--repair MEMBER@AT`` occurrence."""
    member, sep, at = item.partition("@")
    if not sep or not member or not at:
        raise ConfigurationError(f"--repair expects MEMBER@AT, got {item!r}")
    try:
        return (int(member), int(at))
    except ValueError:
        raise ConfigurationError(f"--repair expects integers, got {item!r}") from None


def _frozen(value: Any) -> Any:
    """JSON arrays back to the (hashable, picklable) tuples specs carry."""
    return tuple(_frozen(item) for item in value) if isinstance(value, list) else value


def _jsonable(value: Any) -> Any:
    return [_jsonable(item) for item in value] if isinstance(value, tuple) else value


@dataclass(frozen=True, slots=True, kw_only=True)
class RunAxes:
    """How one configuration is executed and served — the six run axes.

    Attributes:
        durability: the seam every object handler persists through —
            ``"none"`` (the paper's crash-stop objects), ``"mem"``
            (deterministic in-memory journals) or ``"dir"`` (append-only log
            files under a per-trial temp dir; see :mod:`repro.storage`).  When
            enabled every handler is wrapped in a
            :class:`~repro.storage.DurableObjectHandler`, the crash-recover
            fault family becomes available, and each trial carries a
            :class:`~repro.storage.SpaceMeter` report.  It changes what a run
            can observe, so stored rows only compare within one mode.
        consistency: the model served to clients — ``"atomic"`` or
            ``"k-atomic(N)"``, the bounded-lag read view of the ``k-atomic``
            backend (reads trail the freshest value by at most ``N − 1``
            completed writes; see :mod:`repro.consistency`).  Non-atomic
            trials carry their measured staleness distribution; stored rows
            only compare within one model.
        observe: arm the :mod:`repro.obs` layer —
            :meth:`~repro.api.backends.BackendSpec.build` gives every fault
            behaviour and stable store the virtual clock, and trials carry
            derived span/metric records plus their executed-event count and
            duration.  Purely additive bookkeeping: outcomes and trace
            fingerprints are unchanged, and off adds nothing to the hot path.
        repairs: membership-repair steps for the ``reconfig`` backend, as
            ``(member_index, at)`` pairs — replace ``s_member_index`` starting
            at virtual time ``at``; the k-th step activates spare
            ``s_{S+k}``.  Repairs are client operations, so their
            transfer/install messages are explorable like any others.
        spares: pre-provisioned replacement objects (``None``: one per
            repair step).
        xfer_quorum: members of the old epoch a state-transfer read must
            reach (``None``: the safe intersection quorum ``S − t``; smaller
            values are the misconfiguration the schedule explorer refutes).

    *Absent means default*: a payload written before an axis existed loads
    with that axis at its default (:meth:`from_payload`), and a result never
    writes a tagged axis that sits at its default (:meth:`non_default`) — so
    old JSONL files and committed witnesses stay loadable and comparable.
    """

    durability: str = _axis(
        "none", check=resolve_durability, tagged=True,
        flag="--durability", choices=DURABILITIES,
        help="object-state durability (mem: in-memory journal, dir: append-only "
             "log per object; enables crash-recover faults and the space meter)",
    )
    consistency: str = _axis(
        "atomic", check=parse_consistency, tagged=True,
        flag="--consistency", metavar="MODEL",
        help="consistency model the backend serves: atomic (default) or "
             "k-atomic(N) (bounded-stale reads; routes single/sharded onto "
             "the k-atomic backend)",
    )
    observe: bool = _axis(False, check=bool)
    repairs: tuple[tuple[int, int], ...] = _axis(
        (), check=_repair_steps,
        flag="--repair", action="append", type=_parse_repair, metavar="MEMBER@AT",
        help="replace member MEMBER with a spare at time AT "
             "(repeatable; needs --backend reconfig)",
    )
    spares: int | None = _axis(
        None, check=_spares, flag="--spares", type=int,
        help="pre-provisioned spare objects (default: one per --repair)",
    )
    xfer_quorum: int | None = _axis(
        None, check=_xfer_quorum, flag="--xfer-quorum", type=int,
        help="objects a state-transfer read must reach (default: S-t)",
    )

    @classmethod
    def of(cls, carrier: "RunAxes") -> "RunAxes":
        """The plain record of any carrier (a spec, a probe, a request)."""
        return cls(**carrier.axis_values())

    def axis_values(self) -> dict[str, Any]:
        """Every axis by name — the keywords a deriving spec is built from."""
        return {name: getattr(self, name) for name in AXIS_NAMES}

    def validated(self) -> "RunAxes":
        """This record with every axis checked and canonicalised."""
        return replace(self, **{
            axis.name: axis.metadata["check"](getattr(self, axis.name))
            for axis in _AXES
        })

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "RunAxes":
        """The axes a stored payload ran under; absent means default."""
        return cls(**{
            axis.name: _frozen(payload.get(axis.name, axis.default)) for axis in _AXES
        })

    def to_payload(self) -> dict[str, Any]:
        """Every axis, JSON-ready (what a witness stores)."""
        return {name: _jsonable(value) for name, value in self.axis_values().items()}

    def non_default(self) -> dict[str, Any]:
        """The tagged axes that differ from their default, in declaration order.

        This is the one omit-when-default rule: what a result payload adds,
        what ``render()`` shows and what ``repro compare`` labels.
        """
        return {
            axis.name: getattr(self, axis.name)
            for axis in _AXES
            if axis.metadata["tagged"] and getattr(self, axis.name) != axis.default
        }

    def tags(self) -> str:
        """``", durability=mem, consistency=k-atomic(2)"`` — the render suffix."""
        return "".join(f", {name}={value}" for name, value in self.non_default().items())

    @staticmethod
    def add_cli_flags(parser: argparse.ArgumentParser) -> None:
        """Declare every axis flag on ``parser`` (dest = the flag's own name)."""
        for axis in _AXES:
            if axis.metadata["flag"] is not None:
                keywords = dict(axis.metadata["argparse"])
                if keywords.get("action") != "append":
                    keywords["default"] = axis.default
                parser.add_argument(axis.metadata["flag"], **keywords)

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunAxes":
        """Read back what :meth:`add_cli_flags` declared (unvalidated)."""
        values = {}
        for axis in _AXES:
            flag = axis.metadata["flag"]
            given = None if flag is None else getattr(args, flag[2:].replace("-", "_"))
            values[axis.name] = axis.default if given is None else _frozen(given)
        return cls(**values)


_AXES = fields(RunAxes)

#: The six axis names, in declaration order.
AXIS_NAMES: tuple[str, ...] = tuple(axis.name for axis in _AXES)


class AxesView:
    """Mixin for results that hold an ``axes`` record: ``result.durability``,
    ``result.consistency``, … read through to it."""

    __slots__ = ()

    def __getattr__(self, name: str) -> Any:
        if name in AXIS_NAMES:
            return getattr(self.axes, name)
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

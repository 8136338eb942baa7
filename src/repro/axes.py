"""The run axes and the search bounds, each declared once.

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

A schedule search is bounded by a second family of parameters, declared the
same way by :class:`SearchBounds`.  ``Cluster.explore`` / ``Cluster.frontier``
/ ``robustness_frontier`` / ``sweep(frontier_bounds=…)`` take the bounds as
keywords and build one validated record (:meth:`SearchBounds.of`) before
anything runs; the explorer and its result hold the record.

Adding a search bound
---------------------

1. Declare the field on :class:`SearchBounds` with :func:`_axis` (default,
   ``check=`` validator naming the field, ``tagged=True`` if stored results
   name it, ``flag=`` plus argparse keywords to put it on ``repro explore``
   and ``repro frontier``) and document it in the class docstring.
2. Read it where it takes effect — the explorer sees it as
   ``self.bounds.<name>``.
3. Give it a sample in ``tests/test_search_bounds.py``; the generated round
   trip fails until you do, and then checks it through every entry point,
   both result payloads and both CLI subcommands.

This module imports only leaf packages (``storage``, ``consistency``), so
``registers``, ``api``, ``explore``, ``robustness`` and ``__main__`` can all
import it without cycles.
"""

from __future__ import annotations

from dataclasses import Field, dataclass, field, fields, replace
from functools import cache
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
    """One axis or bound: default, validator, result-tag participation, CLI flag."""
    return field(default=default, metadata={
        "check": check, "tagged": tagged, "flag": flag, "argparse": argparse_kwargs,
    })


@cache
def _declared(cls: type) -> tuple[Field, ...]:
    """The fields ``cls`` declares with :func:`_axis` — a carrier that inherits
    a record adds plain fields of its own, which are not the record's."""
    return tuple(item for item in fields(cls) if "check" in item.metadata)


class _Declared:
    """What a record does with its declarations, whatever they declare."""

    __slots__ = ()

    def validated(self) -> Any:
        """This record with every field checked and canonicalised."""
        return replace(self, **{
            item.name: item.metadata["check"](getattr(self, item.name))
            for item in _declared(type(self))
        })

    @classmethod
    def add_cli_flags(cls, parser: argparse.ArgumentParser) -> None:
        """Declare every flag on ``parser`` (dest = the flag's own name)."""
        for item in _declared(cls):
            if item.metadata["flag"] is not None:
                keywords = dict(item.metadata["argparse"])
                if keywords.get("action") != "append":
                    keywords["default"] = item.default
                parser.add_argument(item.metadata["flag"], **keywords)

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> Any:
        """Read back what :meth:`add_cli_flags` declared (unvalidated)."""
        values = {}
        for item in _declared(cls):
            flag = item.metadata["flag"]
            given = None if flag is None else getattr(args, flag[2:].replace("-", "_"))
            values[item.name] = item.default if given is None else _frozen(given)
        return cls(**values)


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
class RunAxes(_Declared):
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

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "RunAxes":
        """The axes a stored payload ran under; absent means default."""
        return cls(**{
            axis.name: _frozen(payload.get(axis.name, axis.default))
            for axis in _declared(cls)
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
            for axis in _declared(type(self))
            if axis.metadata["tagged"] and getattr(self, axis.name) != axis.default
        }

    def tags(self) -> str:
        """``", durability=mem, consistency=k-atomic(2)"`` — the render suffix."""
        return "".join(f", {name}={value}" for name, value in self.non_default().items())


#: The six axis names, in declaration order.
AXIS_NAMES: tuple[str, ...] = tuple(axis.name for axis in _declared(RunAxes))


class AxesView:
    """Mixin for results that hold an ``axes`` record: ``result.durability``,
    ``result.consistency``, … read through to it."""

    __slots__ = ()

    def __getattr__(self, name: str) -> Any:
        if name in AXIS_NAMES:
            return getattr(self.axes, name)
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")


# --------------------------------------------------------------------- #
# Search bounds
# --------------------------------------------------------------------- #

#: Hold-link granularities: per operation (all rounds) or per round.
GRANULARITIES = ("operation", "round")

#: Frontier strategies: breadth-first (waves) or depth-first (stack).
STRATEGIES = ("bfs", "dfs")


def _must_be(name: str, wanted: str, accepts: Callable[[Any], bool]) -> Callable[[Any], Any]:
    """A check whose message names the bound it guards."""
    def check(value: Any) -> Any:
        if not accepts(value):
            raise ConfigurationError(f"{name} must be {wanted}, got {value!r}")
        return value
    return check


@dataclass(frozen=True, slots=True, kw_only=True)
class SearchBounds(_Declared):
    """How far one schedule search reaches — the nine search bounds.

    Attributes:
        max_holds: most decisions (held links, fault triggers) a schedule
            may take — the depth of the frontier.  ``0`` runs the free
            schedule alone.
        max_schedules: total schedule budget ("max reorderings"); per
            ladder rung for a robustness frontier, counted in judged
            schedules.
        max_events: simulator event budget per schedule.  A schedule that
            exhausts it is checked as the legal partial run it is, but the
            search is then never *certified*.
        granularity: what one held link covers — ``"operation"`` (every
            round of the operation on that link) or ``"round"``.
        strategy: frontier order — ``"bfs"`` (waves) or ``"dfs"`` (stack).
        minimize: delta-debug each violating decision set down to a minimal
            one before emitting its witness.
        stop_on_violation: stop the search at the first violating schedule
            (refutation mode); by default the bounded space is swept fully
            (certification mode).
        fault_timing: also sweep *when* each configured fault fires — fault
            triggers join held links in the decision vocabulary, swept per
            object over the traffic it actually handled.  Resolves to off
            for probes with no fault groups of their own: fault-free ones,
            and scenario-driven ones, whose scenario keeps owning when its
            declared faults fire.
        symmetry: fold hold sets that differ only by a permutation of the
            interchangeable (fault-free) objects onto one canonical
            representative.  Only sound when nothing else distinguishes
            those objects, so it resolves to off for repair, spare-carrying
            and scenario-driven probes (a scenario is an opaque registry
            entry, so the reduction does not vouch for it).

    ``minimize`` and ``stop_on_violation`` are modes of one exploration: no
    stored result names them, and a robustness frontier (which always
    minimizes, and sweeps every rung fully) does not take them.  A record an
    :class:`~repro.explore.engine.Explorer` reports is *resolved* against
    its probe: ``fault_timing`` / ``symmetry`` as above, ``granularity`` /
    ``max_events`` the values the probe carries into every schedule.
    """

    max_holds: int = _axis(
        2, check=_must_be("max_holds", "at least 0", lambda n: n >= 0),
        tagged=True, flag="--max-holds", type=int,
        help="most decisions (held links, fault triggers) a schedule may take",
    )
    max_schedules: int = _axis(
        2_000, check=_must_be("max_schedules", "at least 1", lambda n: n >= 1),
        tagged=True, flag="--max-schedules", type=int,
        help="schedule budget (per ladder rung for frontier)",
    )
    max_events: int = _axis(
        200_000, check=_must_be("max_events", "at least 1", lambda n: n >= 1),
        tagged=True, flag="--max-events", type=int,
        help="simulator event budget per schedule",
    )
    granularity: str = _axis(
        "operation", tagged=True,
        check=_must_be("granularity", f"one of {GRANULARITIES}", GRANULARITIES.__contains__),
        flag="--granularity", choices=GRANULARITIES, help="hold-link granularity",
    )
    strategy: str = _axis(
        "bfs", tagged=True,
        check=_must_be("strategy", f"one of {STRATEGIES}", STRATEGIES.__contains__),
        flag="--strategy", choices=STRATEGIES, help="frontier order",
    )
    minimize: bool = _axis(True, check=bool)
    stop_on_violation: bool = _axis(False, check=bool)
    fault_timing: bool = _axis(False, check=bool, tagged=True)
    symmetry: bool = _axis(
        False, check=bool, tagged=True, flag="--symmetry", action="store_true",
        help="canonicalize schedules over interchangeable "
             "fault-free objects (prunes symmetric twins)",
    )

    @classmethod
    def of(
        cls,
        given: Mapping[str, Any],
        *,
        stored_only: bool = False,
        **defaults: Any,
    ) -> "SearchBounds":
        """The validated record of an entry point's keywords ``given``, over
        that entry point's own ``defaults`` (a frontier sweeps fault timing
        unless told not to).  A key that names no bound — or, with
        ``stored_only``, one of the two modes — is rejected by name.
        """
        accepted = tuple(cls().to_payload()) if stored_only else BOUND_NAMES
        unknown = [name for name in given if name not in accepted]
        if unknown:
            raise ConfigurationError(
                f"unknown search bound(s) {', '.join(map(repr, unknown))}; "
                f"accepted here: {', '.join(accepted)}"
            )
        return cls(**{**defaults, **given}).validated()

    def to_payload(self) -> dict[str, Any]:
        """The seven bounds a stored result names (every one but the modes)."""
        return {
            bound.name: getattr(self, bound.name)
            for bound in _declared(type(self)) if bound.metadata["tagged"]
        }


#: The nine bound names, in declaration order.
BOUND_NAMES: tuple[str, ...] = tuple(bound.name for bound in _declared(SearchBounds))

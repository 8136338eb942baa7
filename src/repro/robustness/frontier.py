"""The certified cross-model robustness frontier of one configuration.

A frontier run evaluates one fault configuration against the ladder of
registered consistency checkers, each evaluation being a full bounded
schedule exploration (holds *and*, by default, fault-timing choice
points).  The ladder is only partially ordered:

* atomicity is the top — it implies every other model on the ladder;
* the ``k-atomic(k)`` segment is monotone in ``k`` (a history within lag
  ``k`` is within lag ``k+1``), so the frontier **binary-searches** it for
  the smallest certified bound;
* regularity and safety sit below atomicity but are *not* implied by
  k-atomicity (a stale read that is k-fresh can still violate regularity),
  so they are scanned sequentially once the k-segment is exhausted.  Both
  are single-writer notions and are dropped from multi-writer ladders.

Every evaluation gives exactly the result of
``cluster.with_checks(model).explore(...)`` with the same bounds, so a
certified rung means *certified over the explored bounded space* and a
refuted rung carries a minimized, replayable witness.  Over-budget fault
configurations (more faults than the protocol's threshold ``t``) are not
an error here: the frontier reports the weakest surviving model — graceful
degradation instead of a refusal.

One simulation, many verdicts
-----------------------------

The rungs run the same stack over the same plans and differ only in the
checker applied to each schedule's history: robustness *between* models is
a question asked of one set of executions under several specifications.
So the frontier builds the :class:`~repro.explore.engine.ScheduleProbe`
once, replaces only its ``checks`` per rung, and hands every rung's
explorer one :class:`~repro.explore.engine.SimulationStore` (described
there) for the length of one :func:`robustness_frontier` call.

Rungs still *search* on their own: a schedule that violates atomicity is
not expanded on the atomicity rung but is on ``k-atomic(2)``, so each rung
walks its own sub-space, counts its own ``max_schedules`` budget in judged
schedules, and reports its own statistics and witnesses.  Sharing changes
how many simulations are paid for (:attr:`FrontierResult.simulated`), never
what a rung reports (:attr:`FrontierResult.schedules`).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

from repro.axes import BOUND_NAMES, AxesView, RunAxes, SearchBounds
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from repro.api.cluster import Cluster
    from repro.explore.engine import ExploreResult
    from repro.explore.witness import ScheduleWitness


def model_ladder(max_k: int = 4, *, multi_writer: bool = False) -> tuple[str, ...]:
    """The checker ladder a frontier walks, strongest first.

    ``k-atomic(2..max_k)`` fills the segment between atomicity
    (= k-atomic(1)) and the unbounded-staleness models; regularity and
    safety are appended only for single-writer configurations.
    """
    if max_k < 1:
        raise ConfigurationError(f"max_k must be at least 1, got {max_k}")
    ladder = ["atomicity"]
    ladder.extend(f"k-atomic({k})" for k in range(2, max_k + 1))
    if not multi_writer:
        ladder.extend(("regularity", "safety"))
    return tuple(ladder)


def _status(result: "ExploreResult") -> str:
    if result.certified:
        return "certified"
    if result.witnesses:
        return "refuted"
    return "inconclusive"


@dataclass(slots=True)
class FrontierResult(AxesView):
    """Outcome of one robustness-frontier walk.

    ``outcomes`` maps every *evaluated* rung to its status (rungs skipped
    by the binary search never ran and are absent); ``results`` keeps the
    full :class:`~repro.explore.engine.ExploreResult` per rung for
    drill-down (live objects, not serialized).  ``strongest`` is the
    strongest certified model, ``refuted`` the next-stronger rung, and
    ``witness`` the minimized schedule refuting it (``None`` when the
    refuting exploration was inconclusive, or when ``strongest`` is the
    top of the ladder).
    """

    protocol: str
    faults: str
    t: int
    S: int
    #: The run axes every rung was explored under.
    axes: RunAxes
    ladder: tuple[str, ...]
    bounds: dict[str, Any]
    outcomes: dict[str, str] = field(default_factory=dict)
    strongest: str | None = None
    refuted: str | None = None
    witness: "ScheduleWitness | None" = None
    #: Whether the fault configuration exceeds the protocol's threshold
    #: ``t`` — the frontier then *measures the degradation* instead of
    #: refusing to run.
    degraded: bool = False
    results: dict[str, "ExploreResult"] = field(default_factory=dict)
    #: Distinct decision sets actually simulated for the whole walk — at
    #: most :attr:`schedules`, and less whenever rungs met the same ones.
    #: A live count beside the payload, never in ``to_dict()`` / ``render()``.
    simulated: int = 0

    @property
    def certified(self) -> bool:
        """Whether the strongest surviving model is actually certified
        (frontier exhausted, nothing truncated) rather than merely
        unrefuted."""
        return (
            self.strongest is not None
            and self.results[self.strongest].certified
        )

    @property
    def schedules(self) -> int:
        """Total schedules *judged* across every evaluated rung: the sum of
        the rungs' ``stats.explored``.  A schedule several rungs judged
        counts once per rung, although it was simulated once
        (:attr:`simulated`)."""
        return sum(r.stats.explored for r in self.results.values())

    def to_dict(self) -> dict[str, Any]:
        return {
            "protocol": self.protocol,
            "faults": self.faults,
            "t": self.t,
            "S": self.S,
            **self.axes.non_default(),
            "ladder": list(self.ladder),
            "bounds": dict(self.bounds),
            "outcomes": {model: self.outcomes[model] for model in self.ladder
                         if model in self.outcomes},
            "strongest": self.strongest,
            "certified": self.certified,
            "refuted": self.refuted,
            "witness": None if self.witness is None else self.witness.to_dict(),
            "degraded": self.degraded,
            "schedules": self.schedules,
        }

    def render(self) -> str:
        """Human-readable summary, ready to print."""
        lines = [
            f"frontier {self.protocol} — t={self.t}, S={self.S}{self.axes.tags()}"
            f", faults: {self.faults}"
            + (" [over budget]" if self.degraded else ""),
        ]
        for model in self.ladder:
            status = self.outcomes.get(model)
            if status is None:
                continue
            marker = {"certified": "✓", "refuted": "✗"}.get(status, "?")
            detail = ""
            result = self.results.get(model)
            if result is not None:
                detail = f" ({result.stats.explored} schedule(s)"
                if status == "refuted":
                    detail += f", {len(result.witnesses)} witness(es)"
                detail += ")"
            lines.append(f"  {marker} {model}: {status}{detail}")
        if self.strongest is None:
            lines.append(
                "  frontier: nothing on the ladder certified — the "
                "configuration survives no explored model"
            )
        else:
            verdict = "certified" if self.certified else "unrefuted"
            lines.append(f"  frontier: {self.strongest} ({verdict})")
        if self.refuted is not None:
            if self.witness is not None:
                decisions = ", ".join(
                    d.describe() for d in self.witness.decisions
                ) or "∅"
                lines.append(
                    f"  refutes {self.refuted} with {{{decisions}}} "
                    f"(trace {self.witness.trace_hash})"
                )
            else:
                lines.append(f"  {self.refuted} unrefuted within bounds "
                             "(no witness — raise the bounds to separate)")
        lines.append(f"  {self.schedules} schedule(s) executed across "
                     f"{len(self.results)} rung(s)")
        return "\n".join(lines)


def _as_cluster(
    protocol: "Cluster | str",
    faults: Mapping[str, int] | Sequence[tuple] | None,
    *,
    t: int,
    S: int | None,
    n_readers: int,
    **cluster_kwargs: Any,
) -> "Cluster":
    from repro.api.cluster import Cluster

    if isinstance(protocol, Cluster):
        if faults is not None:
            raise ConfigurationError(
                "pass the fault budget either on the cluster "
                "(with_faults) or as the faults= argument, not both"
            )
        if cluster_kwargs:
            raise ConfigurationError(
                f"unknown frontier keyword(s) {', '.join(map(repr, cluster_kwargs))}: "
                f"a configured cluster takes the search bounds "
                f"({', '.join(SearchBounds().to_payload())}) and no construction keywords"
            )
        return protocol
    # Over-budget configurations are the point of a frontier, so the
    # ad-hoc path always builds with allow_overfault=True; degradation is
    # *measured* (and flagged) rather than rejected.
    cluster = Cluster(
        protocol, t=t, S=S, n_readers=n_readers, allow_overfault=True,
        **cluster_kwargs,
    )
    entries: Sequence[tuple] = (
        tuple(faults.items()) if isinstance(faults, Mapping) else tuple(faults or ())
    )
    for entry in entries:
        name, count, *rest = entry
        kwargs = dict(rest[0]) if rest else {}
        cluster = cluster.with_faults(name, count=count, **kwargs)
    return cluster


def robustness_frontier(
    protocol: "Cluster | str",
    faults: Mapping[str, int] | Sequence[tuple] | None = None,
    *,
    t: int = 1,
    S: int | None = None,
    n_readers: int = 2,
    max_k: int = 4,
    seed: int = 0,
    parallel: bool = False,
    max_workers: int | None = None,
    **keywords: Any,
) -> FrontierResult:
    """Certify the strongest model ``protocol`` serves under ``faults``.

    ``protocol`` is either a fully configured
    :class:`~repro.api.Cluster` (its fault groups, workload and engine are
    probed as-is) or a protocol name; with a name, ``faults`` gives the
    budget as ``{"stale-echo": 1}`` / ``[("timed", 1, {"fault":
    "stale-echo"})]`` pairs and the cluster is built with
    ``allow_overfault=True`` so over-budget configurations degrade instead
    of erroring.

    ``keywords`` are search bounds — the seven a stored result names (see
    :class:`~repro.axes.SearchBounds`; a frontier always minimizes and
    sweeps every rung fully), with ``fault_timing`` on unless told
    otherwise, checked before the first schedule runs — and, with a
    protocol name, further :class:`~repro.api.Cluster` keywords.

    The walk: evaluate atomicity; if refuted, binary-search the monotone
    ``k-atomic(2..max_k)`` segment for the smallest certified bound; if
    none certifies, scan regularity then safety (single-writer only).
    Each rung is one bounded exploration over the same workload (``seed``)
    and bounds, with fault-timing choice points swept by default, and
    equals ``cluster.with_checks(model).explore(...)`` — so rungs are
    comparable and every refutation is a minimized replayable witness.
    The rungs share their simulations (see the module docstring): a
    schedule is simulated once and judged once per rung that reaches it.
    """
    from repro.explore.engine import Explorer, SimulationStore

    search = SearchBounds.of(
        {name: keywords.pop(name) for name in BOUND_NAMES if name in keywords},
        stored_only=True, fault_timing=True,
    )
    cluster = _as_cluster(protocol, faults, t=t, S=S, n_readers=n_readers, **keywords)
    _, inventory = cluster._materialize_faults()
    ladder = model_ladder(max_k, multi_writer=cluster._writer_count() > 1)

    probe = cluster._schedule_probe(search, seed=seed)
    store = SimulationStore(probe)
    results: dict[str, "ExploreResult"] = {}

    def evaluate(model: str) -> "ExploreResult":
        if model not in results:
            rung = replace(probe, checks=cluster.with_checks(model)._checks)
            results[model] = Explorer(rung, search, store).run(
                parallel=parallel, max_workers=max_workers
            )
        return results[model]

    atomic = evaluate("atomicity")
    strongest: str | None = None
    refuted: str | None = None
    if atomic.certified:
        strongest = "atomicity"
    else:
        # Binary-search the monotone k-segment for the smallest certified
        # bound (certified at k ⇒ certified at every k' > k; inconclusive
        # rungs conservatively count as uncertified).
        lo, hi = 2, max_k
        found: int | None = None
        while lo <= hi:
            mid = (lo + hi) // 2
            if evaluate(f"k-atomic({mid})").certified:
                found = mid
                hi = mid - 1
            else:
                lo = mid + 1
        if found is not None:
            strongest = f"k-atomic({found})"
            refuted = "atomicity" if found == 2 else f"k-atomic({found - 1})"
            evaluate(refuted)  # harvest the separating witness
        else:
            # The k-segment is exhausted; regularity/safety are not
            # implied by any k-atomic bound, so they are scanned in
            # ladder order (single-writer ladders only).
            previous = f"k-atomic({max_k})" if max_k >= 2 else "atomicity"
            evaluate(previous)
            tail = ("regularity", "safety") if "regularity" in ladder else ()
            for model in tail:
                if evaluate(model).certified:
                    strongest = model
                    break
                previous = model
            refuted = previous

    witness = None
    if refuted is not None and results[refuted].witnesses:
        witness = results[refuted].witnesses[0]

    result = FrontierResult(
        protocol=cluster.spec.name,
        faults=inventory.describe(),
        t=atomic.t,
        S=atomic.S,
        axes=cluster.axes,
        ladder=ladder,
        # The bounds as requested: a rung reports how its own resolved.
        bounds={**search.to_payload(), "max_k": max_k, "seed": seed},
        outcomes={model: _status(res) for model, res in results.items()},
        strongest=strongest,
        refuted=refuted,
        witness=witness,
        degraded=inventory.effective > atomic.t,
        results=results,
        simulated=len(store),
    )
    return result

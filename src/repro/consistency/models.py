"""Consistency models: the checker registry and per-trial verdicts.

This is the registry half of :mod:`repro.consistency`: every consistency
check the facade can run on a trial's histories — atomicity, regularity,
safety, linearizability, and the parametric ``k-atomic(N)`` family — lives
behind one name-resolution surface, so the trial engine, the schedule
explorer and the CLI all dispatch checks as plain strings (picklable, JSON
round-trippable).

:class:`CheckVerdict` moved here from :mod:`repro.api.cluster` (which
re-exports it) and grew a ``model`` field naming the consistency model a
verdict was judged against.  The field is emitted only when set — the
non-parametric checks leave it unset, so every previously stored JSON
payload stays byte-identical.

Consistency *model strings* (``"atomic"``, ``"k-atomic(N)"``) are the same
vocabulary threaded through ``Cluster(consistency=)``/``BackendRequest`` to
select the bounded-stale backend; :func:`parse_consistency` and
:func:`consistency_bound` are their one parser.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.consistency.kat import check_k_atomicity
from repro.errors import ConfigurationError
from repro.spec.atomicity import check_atomicity
from repro.spec.history import History
from repro.spec.linearizability import is_linearizable
from repro.spec.regularity import check_swmr_regularity
from repro.spec.safety import check_swmr_safety

#: The bound a bare ``k-atomic`` request resolves to (one write of lag).
DEFAULT_K = 2

_K_PATTERN = re.compile(r"^k-atomic(?:\((\d+)\))?$")

#: Model-name shorthands accepted anywhere a check name is (CLI
#: ``--check-model``, ``Cluster.check``); same vocabulary as the protocol
#: registry's semantics → check mapping.
_CHECK_ALIASES = {
    "atomic": "atomicity",
    "regular": "regularity",
    "safe": "safety",
    "linearizable": "linearizability",
    "bounded-stale": "k-atomic",
}


@dataclass(frozen=True, slots=True)
class CheckVerdict:
    """Outcome of one consistency check on one trial's histories.

    Single-register backends check one history and leave ``per_key`` unset.
    Multi-key backends run the check on every key's history; ``per_key``
    records each key's outcome, ``ok`` is their conjunction, and the
    explanation names the failing keys.  ``model`` names the consistency
    model the verdict was judged against when it is not plain atomic
    vocabulary (the ``k-atomic(N)`` family); absent means the pre-spectrum
    checks, so stored payloads stay byte-comparable.
    """

    check: str
    ok: bool
    explanation: str = ""
    per_key: Mapping[str, bool] | None = None
    model: str | None = None

    def to_dict(self) -> dict[str, Any]:
        payload = {"check": self.check, "ok": self.ok, "explanation": self.explanation}
        if self.per_key is not None:
            payload["per_key"] = dict(self.per_key)
        if self.model is not None:
            payload["model"] = self.model
        return payload


def _verdict_check(name: str, checker: Callable[[History], Any]) -> Callable[[History], CheckVerdict]:
    def run(history: History) -> CheckVerdict:
        verdict = checker(history)
        return CheckVerdict(check=name, ok=verdict.ok, explanation=verdict.explanation or "")

    return run


def _linearizability_check(history: History) -> CheckVerdict:
    ok = is_linearizable(history)
    return CheckVerdict(
        check="linearizability",
        ok=ok,
        explanation="" if ok else "no linearization of the recorded history exists",
    )


def _k_atomic_check(k: int) -> Callable[[History], CheckVerdict]:
    name = f"k-atomic({k})"

    def run(history: History) -> CheckVerdict:
        verdict = check_k_atomicity(history, k)
        return CheckVerdict(
            check=name, ok=verdict.ok, explanation=verdict.explanation or "", model=name
        )

    return run


CHECKS: dict[str, Callable[[History], CheckVerdict]] = {
    # check_atomicity dispatches on the writer population, so the same
    # check name covers SWMR registers, MWMR systems, and sharded shards.
    "atomicity": _verdict_check("atomicity", check_atomicity),
    "regularity": _verdict_check("regularity", check_swmr_regularity),
    "safety": _verdict_check("safety", check_swmr_safety),
    "linearizability": _linearizability_check,
}


@dataclass(frozen=True, slots=True)
class CheckerSpec:
    """Registry metadata for one checker (the ``list-checkers`` table row)."""

    name: str
    description: str
    parametric: bool = False
    aliases: tuple[str, ...] = ()


_CHECKER_SPECS: tuple[CheckerSpec, ...] = (
    CheckerSpec(
        name="atomicity",
        description="the paper's four-property SWMR definition; linearizability for MWMR",
        aliases=("atomic",),
    ),
    CheckerSpec(
        name="k-atomic",
        description="reads lag at most k-1 completed writes; k-atomic(1) is atomicity",
        parametric=True,
        aliases=("bounded-stale",),
    ),
    CheckerSpec(
        name="linearizability",
        description="Wing-Gong search on the recorded history (any writer population)",
        aliases=("linearizable",),
    ),
    CheckerSpec(
        name="regularity",
        description="reads return the last complete or a concurrent write (SWMR)",
        aliases=("regular",),
    ),
    CheckerSpec(
        name="safety",
        description="only reads concurrent with no write are constrained (SWMR)",
        aliases=("safe",),
    ),
)


def checker_specs() -> tuple[CheckerSpec, ...]:
    """All checker registry entries, sorted by name."""
    return _CHECKER_SPECS


def available_checks() -> tuple[str, ...]:
    """All consistency checks addressable from :meth:`Cluster.check`."""
    return tuple(sorted((*CHECKS, "k-atomic")))


def canonical_check_name(name: str, k: int | None = None) -> str:
    """Resolve ``name`` (and an optional ``k``) to its canonical check string.

    Model shorthands map to their checker (``atomic`` → ``atomicity``);
    bare ``k-atomic`` takes the bound from ``k`` (default ``DEFAULT_K``);
    ``k-atomic(N)`` is validated and kept.  Unknown names raise with the
    available vocabulary.
    """
    base = _CHECK_ALIASES.get(name, name)
    match = _K_PATTERN.match(base)
    if match is None:
        if base not in CHECKS:
            raise ConfigurationError(
                f"unknown check {name!r}; available: {', '.join(available_checks())}"
            )
        return base
    inline = match.group(1)
    if inline is not None and k is not None and int(inline) != k:
        raise ConfigurationError(
            f"check {name!r} already carries a bound; conflicting k={k}"
        )
    bound = int(inline) if inline is not None else (k if k is not None else DEFAULT_K)
    if bound < 1:
        raise ConfigurationError(f"k-atomicity needs k >= 1, got {bound}")
    return f"k-atomic({bound})"


def resolve_check(name: str) -> Callable[[History], CheckVerdict]:
    """The runner for check ``name`` (canonical, alias, or ``k-atomic(N)``)."""
    canonical = canonical_check_name(name)
    match = _K_PATTERN.match(canonical)
    if match is not None:
        return _k_atomic_check(int(match.group(1)))
    return CHECKS[canonical]


def run_check(name: str, histories: Mapping[str, History]) -> CheckVerdict:
    """Run check ``name`` on every key's history and aggregate the verdicts.

    Single-key backends get the plain verdict; multi-key backends get the
    conjunction with per-key outcomes recorded in
    :attr:`CheckVerdict.per_key` and failing keys named in the explanation.
    """
    checker = resolve_check(name)
    if len(histories) == 1:
        (history,) = histories.values()
        return checker(history)
    per_key: dict[str, bool] = {}
    failures: list[str] = []
    model: str | None = None
    for key in sorted(histories):
        verdict = checker(histories[key])
        per_key[key] = verdict.ok
        model = verdict.model
        if not verdict.ok:
            failures.append(f"[{key}] {verdict.explanation or 'check failed'}")
    return CheckVerdict(
        check=name,
        ok=not failures,
        explanation="; ".join(failures),
        per_key=per_key,
        model=model,
    )


# ------------------------------------------------------------------ #
# Consistency model strings (the backend-selection vocabulary)
# ------------------------------------------------------------------ #


def parse_consistency(consistency: str) -> str:
    """Canonicalize a consistency model string: ``atomic`` or ``k-atomic(N)``.

    ``"k-atomic"`` without a bound resolves to ``DEFAULT_K``;
    ``"k-atomic(1)"`` is exactly atomic semantics but keeps its spelling so
    a deliberately-configured bound of 1 stays visible in results.
    """
    if consistency == "atomic":
        return "atomic"
    match = _K_PATTERN.match(_CHECK_ALIASES.get(consistency, consistency))
    if match is None:
        raise ConfigurationError(
            f"unknown consistency model {consistency!r}; "
            "expected 'atomic' or 'k-atomic(N)'"
        )
    bound = int(match.group(1)) if match.group(1) is not None else DEFAULT_K
    if bound < 1:
        raise ConfigurationError(f"k-atomicity needs k >= 1, got {bound}")
    return f"k-atomic({bound})"


def consistency_bound(consistency: str) -> int:
    """The staleness bound a model string implies (``atomic`` → 1)."""
    if consistency == "atomic":
        return 1
    match = _K_PATTERN.match(consistency)
    if match is None or match.group(1) is None:
        raise ConfigurationError(
            f"unknown consistency model {consistency!r}; "
            "expected 'atomic' or 'k-atomic(N)'"
        )
    return int(match.group(1))

"""Schedule witnesses: minimized, serializable, replayable refutations.

When the explorer finds a schedule whose history fails a consistency
check, the discovery is only as useful as its reproducibility.  A
:class:`ScheduleWitness` captures *everything* the violating run needs —
protocol, backend, sizes, fault configuration, the exact operation plans,
and the held links — as plain JSON-able data, so it

* **minimizes**: :func:`minimize_decisions` delta-debugs the held-link set
  down to a locally minimal one (every remaining link is necessary for the
  violation);
* **round-trips**: ``witness.to_json()`` → :meth:`ScheduleWitness.from_json`
  reconstructs an equal witness;
* **replays deterministically**: :meth:`ScheduleWitness.replay` re-executes
  the schedule through :func:`repro.explore.engine.run_schedule`; the
  stored wire-trace fingerprint lets :meth:`reproduces` assert the replay
  is byte-identical to the original discovery, not merely "also failing".
  The search compares runs by their trace key, so the sha256 fingerprint is
  rendered here only: once when a witness is made, once per replay.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from repro.api.cluster import _FaultGroup
from repro.axes import RunAxes
from repro.errors import ConfigurationError
from repro.explore.controlled import (
    Decision,
    HoldLink,
    canonical_decisions,
    decision_from_json,
)
from repro.explore.engine import (
    ScheduleOutcome,
    ScheduleProbe,
    SimulationStore,
    run_schedule,
    schedule_runner,
)
from repro.workloads.generator import OperationPlan

#: Bump when the witness JSON layout changes incompatibly.
WITNESS_VERSION = 1


def minimize_decisions(
    probe: ScheduleProbe,
    decisions: tuple[Decision, ...],
    outcome: ScheduleOutcome,
    store: SimulationStore | None = None,
) -> tuple[tuple[Decision, ...], ScheduleOutcome, int]:
    """Delta-debug ``decisions`` to a minimal set still failing the same checks.

    Greedy one-at-a-time removal to a fixed point (ddmin's final phase;
    hold sets are small, so the quadratic pass is the whole algorithm): a
    decision — held link or fault trigger alike — is dropped whenever the
    remaining set still fails every check the original schedule failed.
    Returns the minimal set, its outcome, and the number of extra schedule
    executions spent — counted as judged: with a ``store`` (of ``probe``'s
    configuration) the ones it already simulated are not run again.
    """
    run = schedule_runner(probe, store)
    target = {name for name, _ in outcome.failures}
    current = list(canonical_decisions(decisions))
    best = outcome
    runs = 0
    shrunk = True
    while shrunk:
        shrunk = False
        for link in list(current):
            trial = tuple(x for x in current if x != link)
            candidate = run(probe.with_decisions(trial))
            runs += 1
            if target <= {name for name, _ in candidate.failures}:
                current = list(trial)
                best = candidate
                shrunk = True
    return tuple(current), best, runs


@dataclass(slots=True)
class ScheduleWitness:
    """A violating schedule, self-contained and replayable.

    ``decisions`` is the (minimized) held-link set; ``discovered`` is the
    raw set the frontier first found (kept for audit — it shows how much
    delta-debugging removed).  ``failures`` and ``trace_hash`` pin the
    violation and the exact wire trace the replay must reproduce.
    """

    probe: ScheduleProbe
    decisions: tuple[Decision, ...]
    discovered: tuple[Decision, ...]
    failures: tuple[tuple[str, str], ...]
    trace_hash: str
    version: int = WITNESS_VERSION

    @classmethod
    def from_exploration(
        cls,
        probe: ScheduleProbe,
        decisions: tuple[Decision, ...],
        discovered: tuple[Decision, ...],
    ) -> "ScheduleWitness":
        """The witness of ``decisions``, run once more through
        :func:`run_schedule` for the failures and ``trace_hash`` it stores
        (a search's outcomes carry no fingerprint)."""
        witnessed = probe.with_decisions(decisions)
        outcome = run_schedule(witnessed)
        return cls(
            probe=witnessed,
            decisions=witnessed.decisions,
            discovered=canonical_decisions(discovered),
            failures=outcome.failures,
            trace_hash=outcome.trace_hash,
        )

    # ------------------------------------------------------------------ #
    # Replay
    # ------------------------------------------------------------------ #

    def replay(self) -> ScheduleOutcome:
        """Re-execute the witnessed schedule and return the fresh outcome."""
        return run_schedule(self.probe.with_decisions(self.decisions))

    def reproduces(self, outcome: ScheduleOutcome | None = None) -> bool:
        """Whether the replay reproduces the recorded violation exactly.

        "Exactly" means the same checks fail with the same explanations
        *and* the wire trace fingerprint matches — i.e. the re-executed
        schedule is the byte-identical run, not a coincidental failure.  A
        search's outcome (``trace_hash`` is ``None``) never reproduces one.
        """
        if outcome is None:
            outcome = self.replay()
        return outcome.failures == self.failures and outcome.trace_hash == self.trace_hash

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict[str, Any]:
        probe = self.probe
        for plan in probe.plans:
            if not isinstance(plan.value, (str, int, float, bool, type(None))):
                # JSON would silently mutate the value (tuple → list, …), so
                # the loaded witness would replay a *different* schedule and
                # fail its byte-identical trace check.  Refuse loudly.
                raise ConfigurationError(
                    f"witness plans must carry JSON-primitive values to "
                    f"round-trip; got {plan.value!r} ({type(plan.value).__name__})"
                )
        return {
            "version": self.version,
            "protocol": probe.protocol,
            "protocol_kwargs": {key: value for key, value in probe.protocol_kwargs},
            "backend": probe.backend,
            "t": probe.t,
            "S": probe.S,
            "n_readers": probe.n_readers,
            "n_writers": probe.n_writers,
            "keys": list(probe.keys),
            "allow_overfault": probe.allow_overfault,
            "scenario": probe.scenario,
            "fault_groups": [
                {
                    "fault": group.fault,
                    "count": group.count,
                    "strict": group.strict,
                    "kwargs": {key: value for key, value in group.kwargs},
                }
                for group in probe.fault_groups
            ],
            # Retired plan-addressed skips: every witness ever written
            # carries an empty list here, so the key stays for byte identity.
            "schedule": [],
            "plans": [
                {
                    "kind": plan.kind,
                    "client_index": plan.client_index,
                    "value": plan.value,
                    "at": plan.at,
                    "key": plan.key,
                }
                for plan in probe.plans
            ],
            "checks": list(probe.checks),
            "granularity": probe.granularity,
            "max_events": probe.max_events,
            **probe.to_payload(),
            "decisions": [link.to_json() for link in self.decisions],
            "discovered": [link.to_json() for link in self.discovered],
            "failures": [list(pair) for pair in self.failures],
            "trace_hash": self.trace_hash,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScheduleWitness":
        version = data.get("version")
        if version != WITNESS_VERSION:
            raise ConfigurationError(
                f"unsupported witness version {version!r} (this build reads "
                f"version {WITNESS_VERSION})"
            )
        # Fault triggers are tagged ["fault", obj, at]; every untagged
        # entry is a held link, so pre-timing witnesses load unchanged.
        decisions = tuple(decision_from_json(entry) for entry in data["decisions"])
        probe = ScheduleProbe(
            protocol=data["protocol"],
            protocol_kwargs=tuple(sorted(data.get("protocol_kwargs", {}).items())),
            t=data["t"],
            S=data["S"],
            n_readers=data["n_readers"],
            n_writers=data.get("n_writers", 1),
            keys=tuple(data.get("keys", ())),
            backend=data.get("backend", "single"),
            allow_overfault=data.get("allow_overfault", False),
            scenario=data.get("scenario"),
            fault_groups=tuple(
                _FaultGroup(
                    fault=group["fault"],
                    count=group["count"],
                    strict=group.get("strict", False),
                    kwargs=tuple(sorted(group.get("kwargs", {}).items())),
                )
                for group in data.get("fault_groups", ())
            ),
            plans=tuple(
                OperationPlan(
                    kind=plan["kind"],
                    client_index=plan["client_index"],
                    value=plan["value"],
                    at=plan["at"],
                    key=plan.get("key"),
                )
                for plan in data["plans"]
            ),
            checks=tuple(data["checks"]),
            decisions=decisions,
            schedule=data.get("schedule", ()),
            # Axes (and the two bounds a probe carries) absent from the file
            # mean their defaults — what every witness recorded before they
            # existed ran under — so the corpus stays replayable.
            **{name: data[name] for name in ("granularity", "max_events") if name in data},
            **RunAxes.from_payload(data).axis_values(),
        )
        return cls(
            probe=probe,
            decisions=decisions,
            discovered=tuple(
                decision_from_json(entry) for entry in data.get("discovered", ())
            ),
            failures=tuple(
                (check, explanation) for check, explanation in data["failures"]
            ),
            trace_hash=data["trace_hash"],
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2, ensure_ascii=False)

    @classmethod
    def from_json(cls, text: str) -> "ScheduleWitness":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> Path:
        """Write the witness JSON to ``path``; returns the path."""
        path = Path(path)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ScheduleWitness":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def describe(self) -> str:
        holds = ", ".join(link.describe() for link in self.decisions) or "∅"
        checks = ", ".join(f"{check}: {explanation}" for check, explanation in self.failures)
        return (
            f"{self.probe.protocol} under {{{holds}}} violates {checks} "
            f"(trace {self.trace_hash})"
        )

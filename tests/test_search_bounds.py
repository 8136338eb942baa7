"""One declaration per search bound: round trips generated from the record.

The round trips run once per entry of the ``SAMPLES`` table — the only place
in this file that names a bound — which gives each declared bound one valid
non-default value, what ``render()`` shows for it, the CLI flags that produce
it and (where a frontier's own default differs) the value a frontier is
given.  The first test pins the table to ``dataclasses.fields(SearchBounds)``:
adding a field to :class:`repro.axes.SearchBounds` without a sample fails it,
and with one the bound is checked through ``Cluster.explore`` →
``ExploreResult``, ``Cluster.frontier`` / ``robustness_frontier`` →
``FrontierResult.bounds``, ``sweep(frontier_bounds=…)`` →
``RunResult.robustness`` and both CLI subcommands with no further edits.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any

import pytest

import repro.api.cluster as cluster_module
from repro.__main__ import main
from repro.api import Cluster, sweep
from repro.axes import AXIS_NAMES, BOUND_NAMES, RunAxes, SearchBounds
from repro.errors import ConfigurationError
from repro.explore import GRANULARITIES, STRATEGIES, ScheduleProbe
from repro.robustness import robustness_frontier

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
BOUNDS = {bound.name: bound for bound in fields(SearchBounds)}


@dataclass(frozen=True)
class Sample:
    """One valid non-default value of a bound, and where it shows."""

    value: Any
    #: What ``ExploreResult.render()`` prints for it (``None``: a mode, which
    #: no payload or rendering names).
    shown: str | None
    #: ``repro explore`` flags producing the value (``None``: no flag).
    explore_argv: tuple[str, ...] | None
    #: ``repro frontier`` flags producing ``frontier`` (``None``: no flag).
    frontier_argv: tuple[str, ...] | None
    #: The non-default value *for a frontier*, whose own defaults may differ.
    frontier: Any = None

    @property
    def frontier_value(self) -> Any:
        return self.value if self.frontier is None else self.frontier


def _flag(*argv: str) -> dict[str, tuple[str, ...]]:
    return {"explore_argv": argv, "frontier_argv": argv}


SAMPLES: dict[str, Sample] = {
    "max_holds": Sample(1, "max_holds=1", **_flag("--max-holds", "1")),
    "max_schedules": Sample(7, "max_schedules=7", **_flag("--max-schedules", "7")),
    "max_events": Sample(5_000, "max_events=5000", **_flag("--max-events", "5000")),
    "granularity": Sample("round", "granularity=round", **_flag("--granularity", "round")),
    "strategy": Sample("dfs", "strategy=dfs", **_flag("--strategy", "dfs")),
    "minimize": Sample(False, None, None, None),
    "stop_on_violation": Sample(True, None, ("--stop-on-violation",), None),
    # A frontier sweeps fault timing unless told not to.
    "fault_timing": Sample(True, ", fault-timing", ("--fault-timing",),
                           ("--no-fault-timing",), frontier=False),
    "symmetry": Sample(True, ", symmetry", **_flag("--symmetry")),
}

SAMPLED = sorted(SAMPLES)
STORED = [name for name in SAMPLED if BOUNDS[name].metadata["tagged"]]
MODES = [name for name in SAMPLED if not BOUNDS[name].metadata["tagged"]]
#: What a frontier walks under when given nothing.
FRONTIER_DEFAULTS = replace(SearchBounds(), fault_timing=True)


def small_cluster() -> Cluster:
    """One crash fault (so fault timing and symmetry both resolve on) over a
    workload small enough that a default-bounds search takes milliseconds."""
    return (
        Cluster("abd", t=1)
        .with_faults("crash", count=1)
        .with_operations([("write", "v1", 0), ("read", 1, 100)])
    )


def stored_in(payload: dict[str, Any], name: str) -> Any:
    """Where ``ExploreResult.to_dict()`` keeps a bound: the three budgets sit
    under ``"bounds"``, the rest at the top level."""
    return payload["bounds"].get(name, payload.get(name))


def test_every_declared_bound_has_a_sample():
    assert set(SAMPLES) == set(BOUND_NAMES), (
        "give every SearchBounds field a Sample (and only those) — see the module docstring"
    )
    for name, bound in BOUNDS.items():
        assert SAMPLES[name].value != bound.default
        assert getattr(SearchBounds.of({name: SAMPLES[name].value}), name) == SAMPLES[name].value
    # The run axes are a different family, declared apart.
    assert not set(BOUND_NAMES) & set(AXIS_NAMES)
    assert AXIS_NAMES == tuple(axis.name for axis in fields(RunAxes)) and len(AXIS_NAMES) == 6


# --------------------------------------------------------------------- #
# (a) every bound through every entry point
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name", SAMPLED)
def test_explore_reports_the_bound(name):
    sample = SAMPLES[name]
    result = small_cluster().explore(**{name: sample.value})
    assert result.bounds == replace(SearchBounds(), **{name: sample.value})
    payload, rendered = result.to_dict(), result.render()
    if name in STORED:
        assert stored_in(payload, name) == sample.value
        assert sample.shown in rendered
    else:
        assert name not in payload and name not in payload["bounds"]
    default = small_cluster().explore()
    assert default.bounds == SearchBounds()
    if sample.shown is not None:
        assert sample.shown not in default.render()


@pytest.mark.parametrize("name", STORED)
def test_frontier_reports_the_bound(name):
    value = SAMPLES[name].frontier_value
    expected = {**replace(FRONTIER_DEFAULTS, **{name: value}).to_payload(),
                "max_k": 2, "seed": 0}
    via_method = small_cluster().frontier(max_k=2, **{name: value})
    via_function = robustness_frontier(small_cluster(), max_k=2, **{name: value})
    by_name = robustness_frontier(
        "abd", {"crash": 1}, t=1, max_k=2, **{name: value}
    )
    for result in (via_method, via_function, by_name):
        assert result.bounds == expected
        assert result.to_dict()["bounds"] == expected and len(expected) == 9


@pytest.mark.parametrize("name", MODES)
def test_a_frontier_does_not_take_the_two_modes(name):
    for call in (
        lambda: small_cluster().frontier(**{name: SAMPLES[name].value}),
        lambda: robustness_frontier(small_cluster(), **{name: SAMPLES[name].value}),
        lambda: robustness_frontier("abd", **{name: SAMPLES[name].value}),
    ):
        with pytest.raises(ConfigurationError, match=name):
            call()


@pytest.mark.parametrize("name", STORED)
def test_sweep_frontier_bounds_reach_the_robustness_payload(name):
    value = SAMPLES[name].frontier_value
    result = sweep(
        ["abd"], scenarios=["fault-free"], operations=2, seed=5,
        frontier=True, frontier_bounds={name: value},
    )
    # sweep's own modest overrides, then the caller's.
    expected = {
        **replace(FRONTIER_DEFAULTS, max_holds=1, max_schedules=200).to_payload(),
        "max_k": 4, "seed": 5, name: value,
    }
    assert result.runs[0].robustness["bounds"] == expected


class _Captured(Exception):
    """Carries the keywords a CLI handler passed to the facade."""


@pytest.mark.parametrize("name", SAMPLED)
@pytest.mark.parametrize("subcommand", ("explore", "frontier"))
def test_cli_flags_reach_the_record(subcommand, name, monkeypatch):
    sample = SAMPLES[name]
    argv = getattr(sample, f"{subcommand}_argv")
    if argv is None:
        pytest.skip(f"`repro {subcommand}` has no flag for {name}")

    def capture(self, *, seed=0, parallel=False, max_workers=None, max_k=4, **bounds):
        raise _Captured(bounds)

    monkeypatch.setattr(Cluster, subcommand, capture)
    with pytest.raises(_Captured) as caught:
        main([subcommand, "--protocol", "abd", *argv])
    (given,) = caught.value.args
    if subcommand == "explore":
        assert SearchBounds.of(given) == replace(SearchBounds(), **{name: sample.value})
    else:
        assert SearchBounds.of(given, stored_only=True) == replace(
            FRONTIER_DEFAULTS, **{name: sample.frontier_value}
        )


def test_an_unknown_keyword_is_rejected_by_name_everywhere():
    for call in (
        lambda: small_cluster().explore(max_hold=1),
        lambda: small_cluster().frontier(max_hold=1),
        lambda: robustness_frontier(small_cluster(), max_hold=1),
        lambda: robustness_frontier("abd", max_hold=1),
        lambda: sweep(["abd"], frontier=True, frontier_bounds={"max_hold": 1}),
    ):
        with pytest.raises((ConfigurationError, TypeError), match="max_hold"):
            call()
    for subcommand in ("explore", "frontier"):
        with pytest.raises(SystemExit) as exit_:
            # (argparse reads --max-hold as an abbreviation of --max-holds)
            main([subcommand, "--protocol", "abd", "--hold-budget", "1"])
        assert exit_.value.code == 2


# --------------------------------------------------------------------- #
# Bounds are checked once, per bound, up front
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name,bad", [
    ("max_holds", -1), ("max_schedules", 0), ("max_events", 0), ("max_events", -1),
    ("granularity", "message"), ("strategy", "random"),
])
def test_each_check_names_its_bound(name, bad):
    with pytest.raises(ConfigurationError, match=name):
        replace(SearchBounds(), **{name: bad}).validated()


def test_the_smallest_legal_bounds_validate():
    bounds = SearchBounds(max_holds=0, max_schedules=1, max_events=1).validated()
    assert bounds.max_holds == 0
    assert replace(SearchBounds(), symmetry=1).validated().symmetry is True
    result = small_cluster().explore(max_holds=0)
    assert result.stats.explored == 1 and result.certified


@pytest.mark.parametrize("max_events", (0, -1))
def test_a_non_positive_event_budget_is_a_configuration_error(max_events, capsys, monkeypatch):
    import repro.explore.engine as engine

    def no_schedule(probe):
        raise AssertionError("a schedule ran before the bounds were checked")

    monkeypatch.setattr(engine, "simulate", no_schedule)
    for call in (
        lambda: small_cluster().explore(max_events=max_events),
        lambda: small_cluster().frontier(max_holds=1, max_events=max_events),
        lambda: robustness_frontier(small_cluster(), max_events=max_events),
        lambda: robustness_frontier("abd", {"crash": 1}, max_events=max_events),
    ):
        with pytest.raises(ConfigurationError, match="max_events"):
            call()
    for subcommand in ("explore", "frontier"):
        assert main([subcommand, "--protocol", "abd", "--max-events", str(max_events)]) == 2
        assert capsys.readouterr().err.startswith("error: max_events")


@pytest.mark.parametrize("frontier_bounds", [
    {"max_hold": 1}, {"max_events": 0}, {"minimize": False},
])
def test_sweep_checks_its_frontier_bounds_before_the_first_trial(frontier_bounds, monkeypatch):
    calls = []
    real = cluster_module.run_trial
    monkeypatch.setattr(
        cluster_module, "run_trial", lambda spec: calls.append(spec) or real(spec)
    )
    with pytest.raises(ConfigurationError) as caught:
        sweep(["abd"], scenarios=["fault-free"], operations=2,
              frontier=True, frontier_bounds=frontier_bounds)
    assert not calls
    (name,) = frontier_bounds
    assert name in str(caught.value)
    if name not in BOUND_NAMES:
        # A typo is answered with the names that would have been accepted.
        assert all(stored in str(caught.value) for stored in STORED)
    # The walk's own keywords are not bounds, and still pass through.
    walked = sweep(["abd"], scenarios=["fault-free"], operations=2, frontier=True,
                   frontier_bounds={"max_k": 2, "seed": 9})
    assert calls and walked.runs[0].robustness["bounds"]["max_k"] == 2
    assert walked.runs[0].robustness["bounds"]["seed"] == 9


def test_an_exploration_reports_resolved_bounds_and_a_frontier_the_requested_ones():
    fault_free = Cluster("abd", t=1).with_operations([("write", "v1", 0), ("read", 1, 100)])
    explored = fault_free.explore(max_holds=0, fault_timing=True)
    assert explored.bounds.fault_timing is False
    assert "fault_timing" not in explored.to_dict()
    walked = fault_free.frontier(max_holds=0, max_k=2)
    assert walked.bounds["fault_timing"] is True
    assert walked.results["atomicity"].bounds.fault_timing is False
    # A scenario owns its delivery fabric: symmetry resolves off under one.
    scenario = Cluster("abd", t=1).with_scenario("fault-free").with_workload(operations=2)
    assert scenario.explore(max_holds=0, symmetry=True).bounds.symmetry is False


# --------------------------------------------------------------------- #
# (b) source guards
# --------------------------------------------------------------------- #


class TestSourceGuards:
    def _sources(self):
        return sorted(SRC.rglob("*.py"))

    def _declaring(self, name: str) -> set[str]:
        declaring = set()
        for path in self._sources():
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ClassDef) and any(
                    isinstance(statement, ast.AnnAssign)
                    and isinstance(statement.target, ast.Name)
                    and statement.target.id == name
                    for statement in node.body
                ):
                    declaring.add(f"{path.relative_to(SRC)}:{node.name}")
        return declaring

    def test_the_bound_names_are_fields_of_the_record_and_the_probe_only(self):
        carried = {
            item.name for item in fields(ScheduleProbe) if item.name in BOUND_NAMES
        }
        assert len(carried) == 2
        for name in BOUND_NAMES:
            expected = {"axes.py:SearchBounds"}
            if name in carried:
                expected.add("explore/engine.py:ScheduleProbe")
            assert self._declaring(name) == expected, name

    def test_the_probe_reads_its_defaults_from_the_record(self):
        for item in fields(ScheduleProbe):
            if item.name in BOUND_NAMES:
                assert item.default == BOUNDS[item.name].default

    def test_the_budget_literals_are_written_once(self):
        literal = re.compile(r"\b2_?000\b|200_?000")
        hits = [
            f"{path.relative_to(SRC)}:{line.strip()}"
            for path in self._sources()
            for line in path.read_text(encoding="utf-8").splitlines()
            if literal.search(line)
        ]
        assert len(hits) == 2 and all(hit.startswith("axes.py:") for hit in hits), hits

    def test_retired_names_stay_retired(self):
        retired = re.compile(
            r"\b(explore_probe|canonical_links|ReconfigBackend|StreamingSink|"
            r"MetricsSink|RESERVOIR_SIZE|_Reservoir)\b"
        )
        hits = [
            f"{path.relative_to(SRC)}:{number}"
            for path in self._sources()
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if retired.search(line)
        ]
        assert not hits, hits

    def test_the_vocabularies_sit_beside_the_declaration(self):
        import repro.axes as axes
        import repro.explore.controlled as controlled

        assert GRANULARITIES is axes.GRANULARITIES is controlled.GRANULARITIES
        assert STRATEGIES is axes.STRATEGIES
        assert BOUNDS["granularity"].metadata["argparse"]["choices"] is GRANULARITIES
        assert BOUNDS["strategy"].metadata["argparse"]["choices"] is STRATEGIES

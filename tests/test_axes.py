"""One declaration per run axis: round trips generated from the record.

The round trips run once per entry of the ``SAMPLES`` table — the only place
in this file that names an axis — which gives each declared axis one valid
non-default value, the context it needs, the CLI flags that produce it and a
probe that it *took effect* on a built backend.  The first test pins the table
to ``dataclasses.fields(RunAxes)``: adding a field to
:class:`repro.axes.RunAxes` without a sample fails it, and with one the axis
is checked through ``Cluster → TrialSpec → pickle → backend``, ``Cluster →
ScheduleProbe → witness JSON``, ``RunResult → JSON → compare key``, the
``ExploreResult`` payload and the three CLI subcommands with no further edits.
"""

from __future__ import annotations

import ast
import json
import pickle
import re
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable

import pytest

from repro.__main__ import _cluster_from_args, build_parser, main
from repro.api import Cluster
from repro.api.cluster import build_backend
from repro.axes import AXIS_NAMES, RunAxes
from repro.explore import ScheduleWitness

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
AXES = {axis.name: axis for axis in fields(RunAxes)}
SUBCOMMANDS = ("run", "explore", "frontier")


@dataclass(frozen=True)
class Sample:
    """One valid non-default value of an axis, and what it takes to use it."""

    value: Any
    #: CLI flags that produce the value (and its ``also`` context).
    argv: tuple[str, ...]
    #: Proof, on a built backend, that the value took effect.
    effect: Callable[[Any], bool]
    #: Extra ``Cluster(...)`` keywords / other axes the value needs.
    cluster: dict[str, Any] = field(default_factory=dict)
    also: dict[str, Any] = field(default_factory=dict)


RECONFIG = {"backend": "reconfig"}
ONE_REPAIR = {"repairs": ((1, 40),)}

SAMPLES: dict[str, Sample] = {
    "durability": Sample(
        "mem", ("--durability", "mem"),
        lambda b: b.system.storage is not None,
    ),
    "consistency": Sample(
        "k-atomic(2)", ("--consistency", "k-atomic(2)"),
        lambda b: b.bound == 2,
    ),
    "observe": Sample(
        # --obs is run's flag: explore/frontier have no observability output.
        True, ("--durability", "mem", "--obs"),
        lambda b: all(s.handler.store.clock is not None for s in b.system.servers),
        also={"durability": "mem"},  # a journal is what the armed clock shows on
    ),
    "repairs": Sample(
        ((1, 40),), ("--backend", "reconfig", "--repair", "1@40"),
        lambda b: b.system.repairs == ((1, 40),),
        cluster=RECONFIG,
    ),
    "spares": Sample(
        2, ("--backend", "reconfig", "--repair", "1@40", "--spares", "2"),
        lambda b: len(b.system.pool) == b.S + 2,
        cluster=RECONFIG, also=ONE_REPAIR,
    ),
    "xfer_quorum": Sample(
        1, ("--backend", "reconfig", "--repair", "1@40", "--xfer-quorum", "1"),
        lambda b: b.system.xfer_quorum == 1,
        cluster=RECONFIG, also=ONE_REPAIR,
    ),
}


#: The round trips below run once per sample; the first test makes sure that
#: is once per declared axis.
SAMPLED = sorted(SAMPLES)
TAGGED = [name for name in SAMPLED if AXES[name].metadata["tagged"]]


def sample_cluster(name: str) -> Cluster:
    sample = SAMPLES[name]
    axes = replace(RunAxes(), **{name: sample.value}, **sample.also)
    return (
        Cluster("abd", t=1, **sample.cluster)
        .with_axes(axes)
        .with_workload(operations=4, spacing=30)
        .check("atomicity")
    )


def jsonable(value: Any) -> Any:
    return json.loads(json.dumps(value))


def test_every_declared_axis_has_a_sample():
    assert set(SAMPLES) == set(AXIS_NAMES), (
        "give every RunAxes field a Sample (and only those) — see the module docstring"
    )
    for name, axis in AXES.items():
        assert SAMPLES[name].value != axis.default
        assert getattr(sample_cluster(name).axes, name) == SAMPLES[name].value


@pytest.mark.parametrize("name", SAMPLED)
def test_cluster_to_trial_spec_to_pickle_to_backend(name):
    cluster = sample_cluster(name)
    (spec,) = cluster._trial_specs(trials=1, seed=3, keep_history=False)
    assert getattr(spec, name) == SAMPLES[name].value
    assert RunAxes.of(spec) == cluster.axes
    revived = pickle.loads(pickle.dumps(spec))
    assert revived == spec
    assert replace(revived, trial=7).axis_values() == spec.axis_values()
    backend = build_backend(revived)
    assert SAMPLES[name].effect(backend)
    assert SAMPLES[name].effect(cluster.build_backend())


@pytest.mark.parametrize("name", SAMPLED)
def test_cluster_to_probe_to_witness_json(name):
    probe = sample_cluster(name)._schedule_probe(seed=3)
    assert getattr(probe, name) == SAMPLES[name].value
    witness = ScheduleWitness(
        probe=probe, decisions=(), discovered=(),
        failures=(("atomicity", "x"),), trace_hash="00" * 12,
    )
    data = jsonable(witness.to_dict())
    assert data[name] == jsonable(SAMPLES[name].value)
    assert ScheduleWitness.from_dict(data).probe == probe
    # A witness written before the axis existed loads with its default.
    del data[name]
    assert getattr(ScheduleWitness.from_dict(data).probe, name) == AXES[name].default


@pytest.mark.parametrize("name", SAMPLED)
def test_run_result_to_json_to_compare_key(name, tmp_path, capsys):
    cluster = sample_cluster(name)
    row = jsonable(cluster.run(trials=1, seed=3, keep_history=False).to_dict())
    others = jsonable(
        Cluster("abd", t=1, **SAMPLES[name].cluster)
        .with_axes(replace(RunAxes(), **SAMPLES[name].also))
        .with_workload(operations=4, spacing=30)
        .check("atomicity")
        .run(trials=1, seed=3, keep_history=False)
        .to_dict()
    )
    tagged = name in TAGGED
    # Which payloads carry the axis is part of the stored format.
    assert (name in row) == tagged
    assert RunAxes.from_payload(row).non_default().get(name) == (
        SAMPLES[name].value if tagged else None
    )
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text(json.dumps(row) + "\n")
    b.write_text(json.dumps(others) + "\n")
    assert main(["compare", str(a), str(b)]) == 0
    # Rows are like-for-like exactly when no tagged axis separates them.
    expected = "compared 0 run(s)" if tagged else "compared 1 run(s)"
    assert expected in capsys.readouterr().out


@pytest.mark.parametrize("name", TAGGED)
def test_explore_result_names_the_tagged_axis(name):
    payload = jsonable(sample_cluster(name).explore(max_holds=0).to_dict())
    assert payload[name] == SAMPLES[name].value
    assert RunAxes.from_payload(payload).non_default() == {name: SAMPLES[name].value}
    default = jsonable(
        Cluster("abd", t=1).with_workload(operations=4, spacing=30)
        .explore(max_holds=0).to_dict()
    )
    # durability is the one axis an exploration has always written.
    assert set(default) & set(AXIS_NAMES) == {"durability"}
    assert RunAxes.from_payload(default) == RunAxes()


@pytest.mark.parametrize("name", SAMPLED)
@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_cli_flags_reach_the_cluster(subcommand, name):
    argv = SAMPLES[name].argv
    subparser = build_parser()._subparsers._group_actions[0].choices[subcommand]
    accepted = {option for action in subparser._actions for option in action.option_strings}
    flags = {token for token in argv if token.startswith("--")}
    if not flags <= accepted:
        pytest.skip(f"`repro {subcommand}` does not take {sorted(flags - accepted)}")
    args = build_parser().parse_args([subcommand, "--protocol", "abd", *argv])
    cluster = _cluster_from_args(args)
    expected = replace(RunAxes(), **{name: SAMPLES[name].value}, **SAMPLES[name].also)
    assert cluster.axes == expected


def test_every_flagged_axis_is_accepted_by_all_three_subcommands():
    for subcommand in SUBCOMMANDS:
        args = build_parser().parse_args([subcommand, "--protocol", "abd"])
        assert RunAxes.from_args(args) == RunAxes()


def test_default_axes_add_no_key_to_a_run_result():
    assert RunAxes().non_default() == {}
    assert RunAxes().tags() == ""
    payload = Cluster("abd", t=1).with_workload(operations=4).run(trials=1).to_dict()
    assert not set(payload) & set(AXIS_NAMES)
    assert RunAxes.from_payload(payload) == RunAxes()


def test_validation_goes_through_the_declared_checks():
    from repro.errors import ConfigurationError

    for name, bad in [("durability", "tape"),
                      ("consistency", "eventual"), ("repairs", ((0, 5),)),
                      ("spares", -1), ("xfer_quorum", 0)]:
        with pytest.raises(ConfigurationError):
            replace(RunAxes(), **{name: bad}).validated()
    assert replace(RunAxes(), consistency="k-atomic").validated().consistency == "k-atomic(2)"
    assert replace(RunAxes(), observe=1).validated().observe is True


class TestCompareKeysByName:
    """`repro compare` builds its like-for-like key through from_payload."""

    BASE = {"protocol": "abd", "scenario": "fault-free", "t": 1, "n_readers": 2,
            "worst_write": 1, "worst_read": 2, "incomplete": 0, "trials": []}

    def _compare(self, tmp_path, capsys, left: dict, right: dict) -> str:
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text(json.dumps(left) + "\n")
        b.write_text(json.dumps(right) + "\n")
        assert main(["compare", str(a), str(b)]) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("name", TAGGED)
    def test_rows_differing_in_one_tagged_axis_never_match(self, name, tmp_path, capsys):
        other = dict(self.BASE, **{name: SAMPLES[name].value})
        out = self._compare(tmp_path, capsys, self.BASE, other)
        assert "compared 0 run(s)" in out and "only in" in out

    @pytest.mark.parametrize("name", TAGGED)
    def test_the_label_names_the_axis(self, name, tmp_path, capsys):
        row = dict(self.BASE, **{name: SAMPLES[name].value})
        worse = dict(row, worst_read=3)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text(json.dumps(row) + "\n")
        b.write_text(json.dumps(worse) + "\n")
        assert main(["compare", str(a), str(b)]) == 1
        assert f"[{name}={SAMPLES[name].value}]: worst_read 2 -> 3" in capsys.readouterr().out

    def test_a_pre_axis_row_matches_a_default_valued_row(self, tmp_path, capsys):
        spelled_out = dict(self.BASE, **{name: AXES[name].default for name in TAGGED})
        out = self._compare(tmp_path, capsys, self.BASE, spelled_out)
        assert "compared 1 run(s)" in out and "no regressions detected" in out

    def test_an_unknown_extra_key_is_ignored(self, tmp_path, capsys):
        out = self._compare(tmp_path, capsys, self.BASE, dict(self.BASE, not_an_axis="mint"))
        assert "compared 1 run(s)" in out


class TestSourceGuards:
    def _sources(self):
        return sorted(path for path in SRC.rglob("*.py"))

    def test_absent_means_default_lives_only_in_the_declaring_module(self):
        idiom = re.compile(r"""\.get\(\s*["'](%s)["']""" % "|".join(AXIS_NAMES))
        offenders = [
            f"{path.relative_to(SRC)}:{number}"
            for path in self._sources() if path.name != "axes.py"
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if idiom.search(line)
        ]
        assert not offenders, (
            "read stored axes through RunAxes.from_payload, not .get(axis, default): "
            f"{offenders}"
        )

    def test_the_axis_names_are_fields_of_exactly_one_class(self):
        declaring = set()
        for path in self._sources():
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.ClassDef):
                    continue
                annotated = {
                    statement.target.id for statement in node.body
                    if isinstance(statement, ast.AnnAssign)
                    and isinstance(statement.target, ast.Name)
                }
                if annotated & set(AXIS_NAMES):
                    declaring.add(f"{path.relative_to(SRC)}:{node.name}")
        assert declaring == {"axes.py:RunAxes"}

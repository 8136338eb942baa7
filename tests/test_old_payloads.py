"""Payloads written while runs carried an ``engine`` tag are a tested input.

``tests/old_payloads/engine_rows.jsonl`` was written by ``repro run --jsonl``
at the last commit that had the ``engine`` axis: the same configuration once
per engine, so one row has no tag (``event`` was the default) and one has
``"engine": "batched"``.  The committed witnesses and golden payloads carry
``"engine"`` keys of the same vintage.  Nothing in ``src/`` knows the key:
:meth:`RunAxes.from_payload <repro.axes.RunAxes.from_payload>` reads axis
names only, so it is dropped exactly like any other key it does not name —
these tests pin that the old files load, key, compare and replay that way.
(Replaying every witness on both engines is ``test_witness_corpus.py``.)
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.__main__ import _load_jsonl, main
from repro.axes import AXIS_NAMES, RunAxes
from repro.explore import ScheduleWitness

TESTS = Path(__file__).parent
ROWS = TESTS / "old_payloads" / "engine_rows.jsonl"
WITNESS_FILES = sorted((TESTS / "witnesses").glob("*.json"))
#: The command both stored rows were written by (plus ``--engine NAME``).
ROW_COMMAND = ["run", "--protocol", "abd", "--faults", "crash", "--trials", "2",
               "--seed", "3", "--ops", "8", "--check", "atomicity"]


def stored_rows() -> list[dict]:
    return [json.loads(line) for line in ROWS.read_text(encoding="utf-8").splitlines()]


def test_the_stored_rows_are_one_per_retired_engine():
    event, batched = stored_rows()
    assert "engine" not in AXIS_NAMES
    assert "engine" not in event and batched["engine"] == "batched"
    assert {k: v for k, v in batched.items() if k != "engine"} == event


def test_both_rows_load_under_the_default_axes_and_one_key():
    event, batched = stored_rows()
    assert RunAxes.from_payload(event) == RunAxes.from_payload(batched) == RunAxes()
    # One like-for-like key for the whole file: the later row supersedes.
    assert list(_load_jsonl(str(ROWS)).values()) == [batched]


def test_compare_keys_the_two_rows_alike_and_reports_them_equal(tmp_path, capsys):
    paths = []
    for name, row in zip(("event", "batched"), stored_rows()):
        paths.append(tmp_path / f"{name}.jsonl")
        paths[-1].write_text(json.dumps(row) + "\n", encoding="utf-8")
    assert main(["compare", *map(str, paths)]) == 0
    out = capsys.readouterr().out
    assert "compared 1 run(s)" in out and "no regressions detected" in out
    assert "only in" not in out and "engine" not in out


def test_todays_row_is_the_stored_row_without_the_tag(tmp_path, capsys):
    sink = tmp_path / "today.jsonl"
    assert main([*ROW_COMMAND, "--jsonl", str(sink)]) == 0
    capsys.readouterr()
    assert json.loads(sink.read_text(encoding="utf-8")) == stored_rows()[0]
    assert main(["compare", str(ROWS), str(sink)]) == 0
    assert "compared 1 run(s)" in capsys.readouterr().out


def test_the_retired_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as caught:
        main([*ROW_COMMAND, "--engine", "batched"])
    assert caught.value.code == 2
    assert "unrecognized arguments: --engine" in capsys.readouterr().err


def test_the_stored_key_is_just_another_unknown_key(tmp_path):
    _event, batched = stored_rows()
    renamed = {("not_an_axis" if k == "engine" else k): v for k, v in batched.items()}
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text(json.dumps(batched) + "\n", encoding="utf-8")
    b.write_text(json.dumps(renamed) + "\n", encoding="utf-8")
    assert list(_load_jsonl(str(a))) == list(_load_jsonl(str(b)))
    # No loader special-cases it: the quoted name appears nowhere in src/.
    src = TESTS.parent / "src" / "repro"
    offenders = [
        str(path.relative_to(src)) for path in sorted(src.rglob("*.py"))
        if re.search(r"""["']engine["']""", path.read_text(encoding="utf-8"))
    ]
    assert not offenders


@pytest.mark.parametrize("path", WITNESS_FILES, ids=lambda p: p.stem)
def test_a_witness_loads_as_if_its_tag_were_absent(path):
    stored = json.loads(path.read_text(encoding="utf-8"))
    assert stored["engine"] in ("event", "batched")
    untagged = {k: v for k, v in stored.items() if k != "engine"}
    witness = ScheduleWitness.from_dict(stored)
    assert witness == ScheduleWitness.from_dict(untagged)
    # Written back, every stored key but that one returns unchanged (axes
    # younger than the file are spelled out at their defaults).
    written = json.loads(witness.to_json())
    assert "engine" not in written
    assert {key: written[key] for key in untagged} == untagged

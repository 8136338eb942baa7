"""Tier-1 smoke test of the end-to-end benchmark.

Runs every workload at ``--smoke`` scale in this process, untraced and
traced, twice: every name ``BENCHMARK.json`` declares must be emitted with
its unit, nothing may fail, and the deterministic part of the output must
repeat exactly.
"""

from __future__ import annotations

import copy
import json
import re
from pathlib import Path

import e2e_compare
import run as e2e

DECLARED = json.loads((Path(e2e.ROOT) / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def smoke(out: Path) -> dict:
    return e2e.measure(e2e.WORKLOAD_NAMES, 11, 1.0, (False, True), True, out)


def test_smoke_emits_every_declared_name_and_repeats(tmp_path: Path) -> None:
    first, second = smoke(tmp_path / "a"), smoke(tmp_path / "b")
    assert list(first["workloads"]) == [w["name"] for w in DECLARED["workloads"]]
    assert DECLARED["paths"] == ["benchmarks/e2e"]
    for name, summary in first["workloads"].items():
        assert NAME.fullmatch(name)
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            line = e2e.contract_line(summary, trace)
            declared = {metric["name"]: metric["unit"] for metric in DECLARED[section]}
            assert {k: v["unit"] for k, v in line["metrics"].items()} == declared, name
            assert all(NAME.fullmatch(metric) for metric in line["metrics"])
            assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert all(value > 0 for value in summary["end_to_end"].values()), name
        assert summary["failed_share"] == 0 and summary["problems"] == []
        assert json.loads(Path(summary["trace_file"]).read_text())["traceEvents"]
        again = second["workloads"][name]
        assert summary["result_digest"] == again["result_digest"] is not None
        assert summary["counts"] == again["counts"]
    rows, mismatches = e2e_compare.compare(first, second)
    assert mismatches == [] and len(rows) == 5 * len(DECLARED["end_to_end"])

    # compare flags what it is there to flag: a slower call and a changed count.
    slower = copy.deepcopy(first)
    target = slower["workloads"]["trial_long"]
    target["end_to_end"]["call_p50_ms"] *= 2
    target["per_pass"]["call_p50_ms"] = [v * 2 for v in target["per_pass"]["call_p50_ms"]]
    target["counts"]["sim.events"] += 1
    rows, mismatches = e2e_compare.compare(first, slower)
    assert [r["verdict"] for r in rows if r["metric"] == "call_p50_ms"][0] == "regressed"
    assert mismatches == ["trial_long: sim.events "
                          f"{first['workloads']['trial_long']['counts']['sim.events']} != "
                          f"{target['counts']['sim.events']}"]

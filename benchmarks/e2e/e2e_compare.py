"""``run.py compare A.json B.json``: did B regress against A?

One row per (workload, end-to-end metric) with both values, the ratio
B / A, the bound and a verdict; an exact-match diff of the deterministic
counts and result digests.  Exit code 1 on any ``regressed`` row or any
mismatch.  A and B are result files of the same benchmark code, seed and
``--seconds``; nothing here compares against an earlier commit's file
format.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent

#: Printed beside the contract's metrics but not part of BENCHMARK.json:
#: only two workloads have the samples a 95th percentile needs.
EXTRA_BOUNDS = {"call_p95_ms": ("lower", 0.15)}


def bounds() -> dict[str, tuple[str, float]]:
    """metric → (better, bound) as BENCHMARK.json declares them."""
    declared = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    table = {m["name"]: (m["better"], m["bound"]) for m in declared["end_to_end"]}
    table.update(EXTRA_BOUNDS)
    return table


def spread(values: list[float]) -> float:
    """Range of the per-pass values as a share of their middle."""
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


def verdict(
    better: str, bound: float, a: float, b: float,
    a_passes: list[float], b_passes: list[float],
) -> str:
    """``within`` / ``regressed`` / ``unresolved`` for one metric.

    Where the passes of either file spread wider than the bound the
    medians cannot resolve a change of that size: the row is
    ``unresolved`` unless every pass of B reads better than every pass
    of A.
    """
    worse_by = (b - a) / a if better == "lower" else (a - b) / a
    if a_passes and b_passes and max(spread(a_passes), spread(b_passes)) > bound:
        if better == "lower":
            clear = max(b_passes) < min(a_passes)
        else:
            clear = min(b_passes) > max(a_passes)
        return "within" if clear else "unresolved"
    return "regressed" if worse_by > bound else "within"


def compare(a: dict[str, Any], b: dict[str, Any]) -> tuple[list[dict[str, Any]], list[str]]:
    """Rows for every shared (workload, metric) and the list of mismatches."""
    table = bounds()
    rows = []
    mismatches = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            mismatches.append(f"{name}: missing from B")
            continue
        left, right = a["workloads"][name], b["workloads"][name]
        for metric, (better, bound) in table.items():
            pair = [
                side.get("end_to_end", {}).get(metric, side.get(metric))
                for side in (left, right)
            ]
            if None in pair:
                continue
            rows.append({
                "workload": name,
                "metric": metric,
                "a": pair[0],
                "b": pair[1],
                "ratio_b_over_a": pair[1] / pair[0],
                "bound": bound,
                "better": better,
                "verdict": verdict(
                    better, bound, pair[0], pair[1],
                    left.get("per_pass", {}).get(metric, []),
                    right.get("per_pass", {}).get(metric, []),
                ),
            })
        for side, label in ((left, "A"), (right, "B")):
            if side.get("failed_share") or side.get("traced_failed"):
                mismatches.append(f"{name}: failed operations in {label}")
        if left.get("result_digest") != right.get("result_digest"):
            mismatches.append(f"{name}: result_digest differs")
        counts_a, counts_b = left.get("counts", {}), right.get("counts", {})
        for count in sorted(set(counts_a) | set(counts_b)):
            if counts_a.get(count) != counts_b.get(count):
                mismatches.append(
                    f"{name}: {count} {counts_a.get(count)} != {counts_b.get(count)}"
                )
    return rows, mismatches


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    for key in ("seed", "seconds"):
        if a["env"][key] != b["env"][key]:
            print(f"warning: {key} differs ({a['env'][key]} vs {b['env'][key]})")
    rows, mismatches = compare(a, b)
    print(f"{'workload':<18}{'metric':<18}{'A':>14}{'B':>14}{'B/A':>9}{'bound':>7}  verdict")
    for row in rows:
        print(
            f"{row['workload']:<18}{row['metric']:<18}{row['a']:>14.4f}{row['b']:>14.4f}"
            f"{row['ratio_b_over_a']:>9.3f}{row['bound']:>7.2f}  {row['verdict']}"
            f" ({row['better']} is better)"
        )
    for mismatch in mismatches:
        print(f"MISMATCH {mismatch}")
    if not mismatches:
        print("deterministic counts and result digests: identical")
    regressed = [row for row in rows if row["verdict"] == "regressed"]
    return 1 if regressed or mismatches else 0

#!/usr/bin/env python3
"""Assert that a ``run --jsonl`` file holds the same result on every engine.

    PYTHONPATH=src python .github/scripts/assert_engine_parity.py FILE \
        [--expect AXIS=VALUE] [--repair-rounds 2,2,2] [--max-staleness 1]

FILE carries one row per engine of the same configuration.  Each row's engine
is read — and the tag stripped — through ``RunAxes.from_payload`` (absent
means the default engine); what is left must be byte-identical across rows as
sorted JSON.  The optional arguments are the follow-on assertions of the CI
smokes: every row ran under ``AXIS=VALUE``, every trial took exactly these
repair rounds, no trial's measured staleness exceeds the bound.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.axes import RunAxes
from repro.sim.batched import available_engines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("file")
    parser.add_argument("--expect", action="append", default=[], metavar="AXIS=VALUE")
    parser.add_argument("--repair-rounds", default=None, metavar="N,N,...")
    parser.add_argument("--max-staleness", type=int, default=None)
    args = parser.parse_args(argv)

    with open(args.file, encoding="utf-8") as source:
        rows = [json.loads(line) for line in source if line.strip()]
    payloads = {}
    for row in rows:
        axes = RunAxes.from_payload(row)
        for item in args.expect:
            axis, _, value = item.partition("=")
            assert str(getattr(axes, axis)) == value, f"{axis} is {getattr(axes, axis)!r}, expected {value!r}"
        if args.repair_rounds is not None:
            profile = [int(n) for n in args.repair_rounds.split(",")]
            assert all(trial["repair_rounds"] == profile for trial in row["trials"]), "repair round profile drifted"
        if args.max_staleness is not None:
            assert all(trial["staleness"]["max"] <= args.max_staleness for trial in row["trials"]), "staleness bound exceeded"
        row.pop("engine", None)
        payloads[axes.engine] = json.dumps(row, sort_keys=True)
    assert set(payloads) == set(available_engines()), f"expected one row per engine, got {sorted(payloads)}"
    assert len(set(payloads.values())) == 1, f"engine verdicts diverged in {args.file}"
    print(f"{args.file}: verdict parity OK across {', '.join(sorted(payloads))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end, per-layer benchmark of the reproduction (see README.md).

    python3 benchmarks/e2e/run.py                       # all workloads, untraced then traced
    python3 benchmarks/e2e/run.py --workload trial_long --seed 11 --seconds 18 --trace 0
    python3 benchmarks/e2e/run.py --smoke               # seconds, in-process, reduced sizes
    python3 benchmarks/e2e/run.py compare A/result.json B/result.json

Every (workload, pass) runs in a fresh child interpreter, strictly one at
a time; a pass measures for its share of ``--seconds``.  The last line of
a single-workload run is the JSON object the benchmark contract asks for.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import median, quantiles
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"

for entry in (str(SRC), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from e2e_trace import SpanRecorder, calibrate_ms  # noqa: E402

WORKLOAD_NAMES = (
    "trial_long", "sweep_grid", "explore_certify", "frontier_degrade", "durable_churn",
)
#: Child interpreters per workload and run.  Set-up is measured in each, and
#: all of them time the same inputs, so every call can count at its fastest.
PASSES = 3
#: name → unit of the end-to-end metrics every workload reports.
END_TO_END_UNITS = {
    "setup_s": "s",
    "call_p50_ms": "ms",
    "ops_per_s": "1/s",
    "schedules_per_s": "1/s",
    "peak_rss_mb": "MiB",
}
#: A 95th percentile needs about ten samples beyond it.
P95_MIN_SAMPLES = 200


# --------------------------------------------------------------------- #
# One pass, inside the child interpreter (or in-process for --smoke)
# --------------------------------------------------------------------- #


def strip_elapsed(value: Any) -> Any:
    """``value`` without the wall-clock ``elapsed_s`` keys observed runs carry."""
    if isinstance(value, dict):
        return {k: strip_elapsed(v) for k, v in value.items() if k != "elapsed_s"}
    if isinstance(value, list):
        return [strip_elapsed(item) for item in value]
    return value


def digest_of(payloads: list[Any]) -> str:
    text = json.dumps(strip_elapsed(payloads), sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(text.encode()).hexdigest()


def fold(outcomes: list[Any]) -> dict[str, Any]:
    return {
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "operations": sum(o.operations for o in outcomes),
        "schedules": sum(o.schedules for o in outcomes),
        "problems": [
            {"call": o.label, "problem": problem} for o in outcomes for problem in o.problems
        ],
    }


def timed_pass(workload: Any, seconds: float, smoke: bool) -> dict[str, Any]:
    """Untraced: facade calls only, cycle after cycle until the budget is spent.

    Every pass of a run starts at cycle 0, so each input is timed once per
    pass and the summary can take every call at its fastest.
    """
    from e2e_workloads import execute

    outcomes = []
    calls = []
    digest = None
    cycle = 0
    started = time.perf_counter()
    while True:
        cycle_started = time.perf_counter()
        done = [execute(call) for call in workload.calls(cycle)]
        if cycle == 0:
            digest = digest_of([o.payload for o in done])
        for index, outcome in enumerate(done):
            outcome.payload = outcome.result = None
            calls.append({
                "input": f"{cycle}:{index}",
                "kind": outcome.kind,
                "ms": outcome.seconds * 1000.0,
                "operations": outcome.operations,
                "schedules": outcome.schedules,
            })
        outcomes.extend(done)
        now = time.perf_counter()
        # Start another cycle only while at least half of it fits the budget.
        if smoke or (now - started) + (now - cycle_started) / 2 > seconds:
            break
        cycle += 1
    record = fold(outcomes)
    record["calls"] = calls
    record["result_digest"] = digest
    return record


def traced_pass(
    workload: Any, seconds: float, smoke: bool, out: Path | None
) -> dict[str, Any]:
    """Traced: each call through the facade, then decomposed layer by layer."""
    from e2e_workloads import DETERMINISTIC, Outcome, Tally, layer_metrics

    rec = SpanRecorder()
    tally = Tally()
    outcomes = []
    cycle = 0
    started = time.perf_counter()
    while True:
        cycle_started = time.perf_counter()
        try:
            outcomes.extend(workload.trace_cycle(cycle, rec, tally))
        except Exception:  # noqa: BLE001 — report the failed decomposition, keep the spans
            outcomes.append(Outcome(
                f"{workload.name}[cycle={cycle}]", 1, 1, 0, 0,
                [f"traced cycle raised: {traceback.format_exc(limit=3)}"],
            ))
            break
        now = time.perf_counter()
        if smoke or (now - started) + (now - cycle_started) / 2 > seconds:
            break
        cycle += 1
    record = fold(outcomes)
    record["per_layer"] = layer_metrics(workload, rec, tally)
    record["counts"] = {name: record["per_layer"][name] for name in DETERMINISTIC}
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"trace-{workload.name}.json"
        path.write_text(json.dumps(rec.chrome_trace(workload.name)))
        record["trace_file"] = str(path)
    return record


def run_pass(
    name: str, seed: int, seconds: float, trace: bool, index: int,
    spawned_at: float, smoke: bool, out: Path | None,
) -> dict[str, Any]:
    """Set up ``name``, warm it up, measure one pass; returns the pass record."""
    import e2e_workloads  # imports repro.api: part of the set-up being timed

    workload = e2e_workloads.WORKLOADS[name](seed, smoke)
    workload.warmup()
    setup_s = time.monotonic() - spawned_at
    calib = [calibrate_ms()]
    if trace:
        record = traced_pass(workload, seconds, smoke, out)
    else:
        record = timed_pass(workload, seconds, smoke)
    calib.append(calibrate_ms())
    record.update(
        workload=name,
        index=index,
        unit=workload.unit,
        engine=workload.engine,
        engines=list(e2e_workloads.ENGINES),
        setup_s=setup_s,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        calib_ms=calib,
        noisy=abs(calib[1] - calib[0]) / min(calib) > 0.10,
    )
    return record


# --------------------------------------------------------------------- #
# The parent: children, summaries, output
# --------------------------------------------------------------------- #


def spawn_pass(
    name: str, seed: int, seconds: float, trace: bool, index: int,
    out: Path, tmp: Path,
) -> dict[str, Any]:
    """One pass in a fresh interpreter; waits for it and returns its record."""
    env = dict(os.environ, TMPDIR=str(tmp))  # journal files stay inside the checkout
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(int(trace)), "--out", str(out),
        "--child-pass", str(index), "--spawned-at", repr(time.monotonic()),
    ]
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"pass {index} of {name} exited with code {done.returncode}")
    return json.loads(lines[-1])


def typical_call_ms(calls: list[dict[str, Any]]) -> float:
    """Median over call kinds of each kind's median call time."""
    by_kind: dict[str, list[float]] = {}
    for call in calls:
        by_kind.setdefault(call["kind"], []).append(call["ms"])
    return median([median(values) for values in by_kind.values()])


def throughput(calls: list[dict[str, Any]], what: str) -> float:
    return sum(call[what] for call in calls) / (sum(call["ms"] for call in calls) / 1000.0)


def summarize(passes: list[dict[str, Any]]) -> dict[str, Any]:
    """The end-to-end metrics of one workload from its untraced passes.

    The passes time the same inputs; on a shared host interference only
    ever adds time, so each input counts at its fastest pass.  Inputs the
    slowest pass did not reach are left out.
    """
    by_input = [{call["input"]: call for call in record["calls"]} for record in passes]
    common = [key for key in by_input[0] if all(key in calls for calls in by_input)]
    best = [min((calls[key] for calls in by_input), key=lambda c: c["ms"]) for key in common]
    shared = [[calls[key] for key in common] for calls in by_input]
    per_pass = {
        "setup_s": [record["setup_s"] for record in passes],
        "call_p50_ms": [typical_call_ms(calls) for calls in shared],
        "ops_per_s": [throughput(calls, "operations") for calls in shared],
        "schedules_per_s": [throughput(calls, "schedules") for calls in shared],
        "peak_rss_mb": [record["rss_mb"] for record in passes],
    }
    metrics = {
        "setup_s": median(per_pass["setup_s"]),
        "call_p50_ms": typical_call_ms(best),
        "ops_per_s": throughput(best, "operations"),
        "schedules_per_s": throughput(best, "schedules"),
        "peak_rss_mb": max(per_pass["peak_rss_mb"]),
    }
    attempted = sum(record["attempted"] for record in passes)
    failed = sum(record["failed"] for record in passes)
    problems = [p for record in passes for p in record["problems"]]
    digests = {record["result_digest"] for record in passes}
    if len(digests) > 1:
        problems.append({"call": "cycle 0", "problem": "result_digest differs between passes"})
    summary = {
        "unit": passes[0]["unit"],
        "engine": passes[0]["engine"],
        "engines": passes[0]["engines"],
        "end_to_end": metrics,
        "per_pass": per_pass,
        "inputs": len(common),
        "samples": sum(len(record["calls"]) for record in passes),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted if attempted else 1.0,
        "problems": problems,
        "result_digest": passes[0]["result_digest"],
        "calib_ms": [record["calib_ms"] for record in passes],
        "noisy_passes": [record["index"] for record in passes if record["noisy"]],
    }
    if summary["samples"] >= P95_MIN_SAMPLES:
        # The tail is what it is, interference included: every call of every pass.
        summary["call_p95_ms"] = quantiles(
            [call["ms"] for record in passes for call in record["calls"]], n=20
        )[-1]
    return summary


def environment(seed: int, seconds: float, engines: list[str]) -> dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "loadavg_1m": os.getloadavg()[0],
        "seed": seed,
        "seconds": seconds,
        "passes": PASSES,
        "engines": engines,
        "calib_ms": calibrate_ms(),
    }


def print_summary(name: str, summary: dict[str, Any]) -> None:
    print(f"== {name}  (unit: {summary['unit']}, engine: {summary['engine']})")
    if "end_to_end" in summary:
        for metric, value in summary["end_to_end"].items():
            print(f"  {metric:<28} {value:>14.4f} {END_TO_END_UNITS[metric]}")
        if "call_p95_ms" in summary:
            print(f"  {'call_p95_ms':<28} {summary['call_p95_ms']:>14.4f} ms")
        print(f"  {'samples':<28} {summary['samples']:>14d} calls"
              f"  ({summary['inputs']} inputs, each at its fastest pass)")
        print(f"  {'failed_share':<28} {summary['failed_share']:>14.4f} ratio"
              f"  ({summary['failed']} of {summary['attempted']} {summary['unit']})")
        print(f"  {'result_digest':<28} {summary['result_digest']}")
        calib = ", ".join(f"{a:.1f}/{b:.1f}" for a, b in summary["calib_ms"])
        noisy = f"  NOISY passes: {summary['noisy_passes']}" if summary["noisy_passes"] else ""
        print(f"  {'calib_ms before/after':<28} {calib}{noisy}")
    if "per_layer" in summary:
        from e2e_workloads import PER_LAYER_UNITS, SCHEDULE_LAYERS, TRIAL_LAYERS

        layers = summary["per_layer"]
        trial = summary["unit"] == "operations"
        inside = [f"{layer}_s" for layer in (TRIAL_LAYERS if trial else SCHEDULE_LAYERS)]
        whole = sum(layers[k] for k in inside)
        of = "trial" if trial else "schedule"
        for metric, value in layers.items():
            share = ""
            if metric in inside and whole:
                share = f"  ({value / whole:6.1%} of the decomposed {of})"
            print(f"  {metric:<28} {value:>14.6f} {PER_LAYER_UNITS[metric]}{share}")
        if summary.get("trace_file"):
            print(f"  spans written to {summary['trace_file']}")
    for problem in summary["problems"]:
        print(f"  FAILED {problem['call']}: {problem['problem']}")


def measure(
    names: tuple[str, ...], seed: int, seconds: float, traces: tuple[bool, ...],
    smoke: bool, out: Path,
) -> dict[str, Any]:
    """Run the passes of ``names`` and return the result document.

    Untraced passes run round-robin (pass 1 of every workload, then pass
    2, ...); the traced pass of each workload follows.  ``--smoke`` runs
    everything in this process at reduced sizes, one cycle each.
    """
    tmp = None
    if not smoke:
        compileall.compile_dir(str(SRC), quiet=2)  # the build step: bytecode once
        compileall.compile_dir(str(HERE), quiet=2)
        SCRATCH.mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=SCRATCH))

    def one(name: str, trace: bool, index: int, share: float) -> dict[str, Any]:
        if smoke:
            return run_pass(name, seed, share, trace, index, time.monotonic(), True, out)
        return spawn_pass(name, seed, share, trace, index, out, tmp)

    workloads: dict[str, dict[str, Any]] = {name: {} for name in names}
    try:
        if False in traces:
            passes: dict[str, list[dict[str, Any]]] = {name: [] for name in names}
            for index in range(1 if smoke else PASSES):
                for name in names:
                    passes[name].append(one(name, False, index, seconds / PASSES))
            for name in names:
                workloads[name].update(summarize(passes[name]))
        if True in traces:
            for name in names:
                record = one(name, True, 0, seconds)
                summary = workloads[name]
                summary.setdefault("problems", []).extend(record["problems"])
                summary.setdefault("unit", record["unit"])
                summary.setdefault("engine", record["engine"])
                summary.update(
                    per_layer=record["per_layer"],
                    counts=record["counts"],
                    trace_file=record.get("trace_file"),
                    traced_attempted=record["attempted"],
                    traced_failed=record["failed"],
                    engines=record["engines"],
                )
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
    engines = next((s["engines"] for s in workloads.values() if "engines" in s), [])
    return {
        "schema": 1,
        "env": environment(seed, seconds, engines),
        "smoke": smoke,
        "workloads": workloads,
    }


def contract_line(summary: dict[str, Any], trace: bool) -> dict[str, Any]:
    """The one JSON object a single-workload run ends with."""
    if trace:
        from e2e_workloads import PER_LAYER_UNITS

        units, values = PER_LAYER_UNITS, summary["per_layer"]
        attempted, failed = summary["traced_attempted"], summary["traced_failed"]
    else:
        units, values = END_TO_END_UNITS, summary["end_to_end"]
        attempted, failed = summary["attempted"], summary["failed"]
    return {
        "correct": failed == 0 and not summary["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        from e2e_compare import main as compare_main

        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=18.0,
                        help="measuring time per workload and run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, one cycle each, in-process")
    parser.add_argument("--out", type=Path, default=SCRATCH / "out",
                        help="directory for result.json and the span files")
    parser.add_argument("--child-pass", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    if args.child_pass is not None:
        record = run_pass(
            args.workload, args.seed, args.seconds, bool(args.trace), args.child_pass,
            args.spawned_at, args.smoke, args.out,
        )
        print(json.dumps(record))
        return 0

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    traces = (False, True) if args.trace is None else (bool(args.trace),)
    document = measure(names, args.seed, args.seconds, traces, args.smoke, args.out)
    env = document["env"]
    print(f"# e2e benchmark  seed={env['seed']} seconds={env['seconds']} passes={env['passes']}"
          f" nproc={env['nproc']} python={env['python']} load={env['loadavg_1m']:.2f}"
          f" calib_ms={env['calib_ms']:.2f} engines={env['engines']} commit={env['commit']}")
    for name, summary in document["workloads"].items():
        print_summary(name, summary)
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "result.json").write_text(json.dumps(document, indent=1, sort_keys=True))
    print(f"# result file: {args.out / 'result.json'}")
    failed = any(
        s.get("failed") or s.get("traced_failed") or s["problems"]
        for s in document["workloads"].values()
    )
    if len(names) == 1 and len(traces) == 1:
        print(json.dumps(contract_line(document["workloads"][names[0]], traces[0])))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line reproducer: ``python -m repro <command>``.

Commands:

* ``summary``    — one-screen overview: both lower bounds executed at small
                   instances plus the measured latency matrix.
* ``read-bound``  [--t T] [--k K]   — run Proposition 1, print the certificate.
* ``write-bound`` [--k K]           — run Lemma 1, print the certificate.
* ``latency``                       — measure the Section 5 latency matrix.
* ``recurrence`` [--max-k K]        — print the t_k table and the log bound.
* ``list-protocols``                — the protocol registry: names, models,
                                      resilience classes, advertised rounds.
* ``list-backends``                 — the system-backend registry: single,
                                      multi-writer, sharded, and plugins.
* ``list-scenarios`` [--t T]        — the scenario registry: declared faults and
                                      workload shapes at threshold ``t``.
* ``list-checkers``                 — the consistency-checker registry:
                                      atomicity, regularity, safety,
                                      linearizability and the parametric
                                      ``k-atomic(N)`` family.
* ``list-faults``                   — the fault-behaviour registry: crash,
                                      Byzantine echoes, the crash-recover
                                      family (needs ``--durability``) and the
                                      churn family, with each behaviour's
                                      accepted ``--fault-arg`` parameters.
* ``run`` --protocol NAME [--backend NAME] [--keys N] [--writers N]
  [--scenario NAME] [--faults NAME [--fault-arg K=V]...]
  [--durability none|mem|dir] [--repair MEMBER@AT]... [--xfer-quorum Q]
  [--consistency MODEL] [--check-model atomic|regular|safe|k-atomic [--k N]]
  [--t T] [--trials N] [--parallel] [--jsonl PATH] … —
  build a registry-driven experiment through the :class:`repro.api.Cluster`
  facade, run it (optionally on a process pool), print per-trial latencies
  and consistency-check verdicts, and optionally append the structured
  result as one JSON line.
* ``compare`` A.jsonl B.jsonl — diff two stored result files and flag
  round-count / latency / completion regressions (exit 1 when B regressed).
  Rows are matched on protocol, scenario, sizes, backend/key layout *and*
  consistency model, so runs from different backends or models are never
  compared as like-for-like.
* ``explore`` --protocol NAME [search bounds] [--witness PATH]
  [--expect-violation] … — bounded model check over held-message schedules:
  certify the configuration over every bounded schedule or refute it with a
  minimized, replayable witness (exit 1 on violations, inverted by
  ``--expect-violation``).  The bounds and their flags are declared and
  documented by :class:`repro.axes.SearchBounds`.
* ``replay`` WITNESS.json — re-execute a saved schedule witness and
  re-check it; exit 0 iff the recorded violation reproduces byte-identically
  (same failed checks, same wire-trace fingerprint).
* ``stats`` SPANS.jsonl — summarize a span dump written by
  ``run --spans``: per-trial operation counts, worst rounds, quorum-wait
  stats, adversary interference, recoveries and journal syncs.

``run --trace PATH`` additionally dumps every trial's message trace as
JSONL (one ``TraceEvent`` per line) for offline inspection.  The
observability flags — ``--spans PATH`` (span records as JSONL),
``--metrics PATH`` (metrics snapshot as JSONL), ``--timeline PATH``
(Perfetto-loadable Chrome trace JSON) and ``--obs`` (terminal summary
table) — each enable the :mod:`repro.obs` layer for the run.

Everything runs in seconds on a laptop; nothing touches the network.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_read_bound(args: argparse.Namespace) -> int:
    from repro.core.read_bound import ReadLowerBoundConstruction
    from repro.registers.strawman import TwoRoundReadProtocol

    construction = ReadLowerBoundConstruction(
        lambda: TwoRoundReadProtocol(write_rounds=args.k), t=args.t
    )
    outcome = construction.execute()
    print(outcome.certificate.render())
    return 0 if outcome.certificate.valid else 1


def _cmd_write_bound(args: argparse.Namespace) -> int:
    from repro.core.write_bound import WriteLowerBoundConstruction
    from repro.registers.strawman import ThreeRoundReadProtocol

    construction = WriteLowerBoundConstruction(
        lambda: ThreeRoundReadProtocol(write_rounds=args.k), k=args.k
    )
    outcome = construction.execute()
    print(outcome.certificate.render())
    return 0 if outcome.certificate.valid else 1


def _cmd_latency(_args: argparse.Namespace) -> int:
    from repro.analysis.metrics import measure_backend_latency
    from repro.analysis.tables import format_table
    from repro.registers.abd import AbdProtocol
    from repro.registers.base import RegisterSystem
    from repro.registers.fast_regular import FastRegularProtocol
    from repro.registers.secret_token import SecretTokenProtocol
    from repro.registers.transform_atomic import RegularToAtomicProtocol
    from repro.workloads.generator import WorkloadGenerator

    suite = [
        ("abd", lambda: AbdProtocol()),
        ("fast-regular", lambda: FastRegularProtocol()),
        ("secret-token", lambda: SecretTokenProtocol()),
        ("atomic(fast-regular)",
         lambda: RegularToAtomicProtocol(lambda: FastRegularProtocol(), n_readers=2)),
        ("atomic(secret-token)",
         lambda: RegularToAtomicProtocol(lambda: SecretTokenProtocol(), n_readers=2)),
    ]
    rows = []
    for name, factory in suite:
        system = RegisterSystem(factory(), t=1, n_readers=2)
        report = measure_backend_latency(
            system, WorkloadGenerator(seed=1, spacing=150).plan(10), scenario="fault-free"
        )
        rows.append({
            "protocol": name,
            "write rounds": str(report.worst_write),
            "read rounds": str(report.worst_read),
        })
    print(format_table("measured worst-case rounds (t=1, fault-free)",
                       ("protocol", "write rounds", "read rounds"), rows))
    return 0


def _cmd_recurrence(args: argparse.Namespace) -> int:
    from repro.core.recurrence import max_write_rounds, t_k

    print("k   :", " ".join(f"{k:6d}" for k in range(1, args.max_k + 1)))
    print("t_k :", " ".join(f"{t_k(k):6d}" for k in range(1, args.max_k + 1)))
    print()
    for t in (1, 2, 5, 10, 100, 10_000):
        print(f"t={t:>6}: 3-round reads need writes of more than "
              f"{max_write_rounds(t)} rounds")
    return 0


def _cmd_list_protocols(_args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.api import protocol_specs

    rows = []
    for spec in protocol_specs():
        rows.append({
            "name": spec.name,
            "model": spec.model,
            "semantics": spec.semantics,
            "resilience": spec.resilience,
            "writes": str(spec.write_rounds),
            "reads": spec.reads_description(),
            "backend": spec.backend,
            "description": spec.description,
        })
    print(format_table(
        "registered protocols",
        ("name", "model", "semantics", "resilience", "writes", "reads", "backend",
         "description"),
        rows,
    ))
    return 0


def _cmd_list_backends(_args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.api import backend_specs

    rows = []
    for spec in backend_specs():
        rows.append({
            "name": spec.name,
            "keyed": "yes" if spec.keyed else "no",
            "multi-writer": "yes" if spec.multi_writer else "no",
            "aliases": ", ".join(spec.aliases) or "-",
            "description": spec.description,
        })
    print(format_table(
        "registered system backends",
        ("name", "keyed", "multi-writer", "aliases", "description"),
        rows,
    ))
    return 0


def _cmd_list_faults(_args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.api import fault_specs

    rows = []
    for spec in fault_specs():
        params = spec.params()
        if params is None:
            accepted = "(any)"  # maker takes **kwargs; nothing to enumerate
        elif not params:
            accepted = "-"
        else:
            accepted = ", ".join(
                name if default is None else f"{name}={default}"
                for name, default in params.items()
            )
        rows.append({
            "name": spec.name,
            "model": spec.model,
            "aliases": ", ".join(spec.aliases) or "-",
            "--fault-arg": accepted,
            "description": spec.description,
        })
    print(format_table(
        "registered fault behaviours",
        ("name", "model", "aliases", "--fault-arg", "description"),
        rows,
    ))
    return 0


def _cmd_list_scenarios(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.workloads.scenarios import available_scenarios, get_scenario

    rows = []
    for name in available_scenarios():
        scenario = get_scenario(name, args.t)
        rows.append({
            "name": scenario.name,
            "faults": "+".join(f"{fault}×{count}" for fault, count, *_ in scenario.faults)
                      or "none",
            "reads": f"{scenario.read_fraction:.2f}",
            "spacing": str(scenario.spacing),
            "description": scenario.description,
        })
    print(format_table(
        f"registered scenarios (t={args.t})",
        ("name", "faults", "reads", "spacing", "description"),
        rows,
    ))
    return 0


def _cmd_list_checkers(_args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.consistency import checker_specs

    rows = []
    for spec in checker_specs():
        rows.append({
            "name": spec.name,
            "parametric": "--k N" if spec.parametric else "-",
            "aliases": ", ".join(spec.aliases) or "-",
            "description": spec.description,
        })
    print(format_table(
        "registered consistency checkers",
        ("name", "parametric", "aliases", "description"),
        rows,
    ))
    return 0


def _checks_from_args(args: argparse.Namespace) -> tuple[str, ...]:
    """The check names a ``run``/``explore`` invocation asks for.

    ``--check`` names are taken verbatim (aliases and ``k-atomic(N)``
    spellings allowed), ``--check-model`` appends its model's checker, and
    ``--k`` parameterizes whichever of them is a bare ``k-atomic``.  With
    neither flag the protocol's own default check applies.
    """
    from repro.api import get_spec
    from repro.consistency import canonical_check_name
    from repro.errors import ConfigurationError

    names = list(args.check or ())
    if getattr(args, "check_model", None):
        names.append(args.check_model)
    k = getattr(args, "k", None)
    if not names:
        if k is not None:
            raise ConfigurationError(
                "--k has no effect without --check-model k-atomic or --check k-atomic"
            )
        return (get_spec(args.protocol).default_check(),)
    canonical = tuple(canonical_check_name(name, k) for name in names)
    if k is not None and not any(name.startswith("k-atomic") for name in canonical):
        raise ConfigurationError(
            "--k has no effect without --check-model k-atomic or --check k-atomic"
        )
    return canonical


def _cluster_from_args(args: argparse.Namespace):
    """The :class:`~repro.api.Cluster` ``run``, ``explore`` and ``frontier``
    build.

    Flags one subcommand lacks (``--scenario``, ``--key-skew``, ``--op``,
    the observability outputs) fall back to their no-op defaults via
    ``getattr``.
    """
    import json
    from dataclasses import replace

    from repro.api import Cluster
    from repro.axes import RunAxes
    from repro.errors import ConfigurationError

    axes = RunAxes.from_args(args)
    if not axes.repairs and (axes.spares is not None or axes.xfer_quorum is not None):
        raise ConfigurationError(
            "--spares/--xfer-quorum have no effect without --repair"
        )
    if any(getattr(args, flag, None) for flag in ("obs", "spans", "metrics", "timeline")):
        axes = replace(axes, observe=True)
    cluster = Cluster(
        args.protocol,
        t=args.t,
        S=args.S,
        n_readers=args.readers,
        backend=args.backend,
        keys=args.keys,
        n_writers=args.writers_count,
        # Named here because the model decides the backend before the key
        # layout is checked; every other axis rides in through with_axes.
        consistency=axes.consistency,
        allow_overfault=args.allow_overfault,
    ).with_axes(axes)
    if getattr(args, "scenario", None):
        cluster = cluster.with_scenario(args.scenario)
    fault_kwargs = {}
    for item in args.fault_arg or ():
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ConfigurationError(f"--fault-arg expects KEY=VALUE, got {item!r}")
        try:
            parsed = json.loads(value)  # numbers/bools; bare words stay strings
        except json.JSONDecodeError:
            parsed = value
        fault_kwargs[key.replace("-", "_")] = parsed
    if args.faults:
        cluster = cluster.with_faults(
            args.faults, count=args.count, strict=args.strict, **fault_kwargs
        )
    elif fault_kwargs or args.count != 1 or args.strict:
        raise ConfigurationError(
            "--fault-arg/--count/--strict have no effect without --faults"
        )
    plan = []
    for item in getattr(args, "op", None) or ():
        head, sep, at = item.rpartition("@")
        kind, sep2, arg = head.partition(":")
        if not sep or not sep2 or kind not in ("write", "read"):
            raise ConfigurationError(
                f"--op expects write:VALUE@TIME or read:READER@TIME, got {item!r}"
            )
        try:
            when = int(at)
            plan.append((kind, int(arg) if kind == "read" else arg, when))
        except ValueError:
            raise ConfigurationError(
                f"--op expects an integer time (and reader index), got {item!r}"
            ) from None
    if plan:
        return cluster.with_operations(plan)
    return cluster.with_workload(reads=args.reads, spacing=args.spacing,
                                 operations=args.ops,
                                 key_skew=getattr(args, "key_skew", None))


def _cmd_run(args: argparse.Namespace) -> int:
    import json

    cluster = _cluster_from_args(args)
    checks = _checks_from_args(args)
    result = cluster.check(*checks).run(
        trials=args.trials,
        seed=args.seed,
        keep_history=False,  # the CLI only reports aggregates and verdicts
        keep_trace=args.trace is not None,
        parallel=args.parallel,
        max_workers=args.workers,
    )
    if args.jsonl:
        with open(args.jsonl, "a", encoding="utf-8") as sink:
            sink.write(json.dumps(result.to_dict(), sort_keys=True) + "\n")
        print(f"[appended structured result to {args.jsonl}]")
    if args.trace:
        from repro.sim.tracing import dump_trace_jsonl

        events = 0
        with open(args.trace, "w", encoding="utf-8") as sink:
            for trial in result.trials:
                events += dump_trace_jsonl(trial.trace, sink, extra={"trial": trial.trial})
        print(f"[wrote {events} trace events to {args.trace}]")
    if args.spans:
        from repro.obs import dump_spans_jsonl

        lines = 0
        with open(args.spans, "w", encoding="utf-8") as sink:
            for trial in result.trials:
                lines += dump_spans_jsonl(
                    trial.obs["spans"], sink, extra={"trial": trial.trial}
                )
        print(f"[wrote {lines} span records to {args.spans}]")
    if args.metrics:
        from repro.obs import dump_metrics_jsonl

        lines = 0
        with open(args.metrics, "w", encoding="utf-8") as sink:
            for trial in result.trials:
                lines += dump_metrics_jsonl(
                    trial.obs["metrics"], sink, extra={"trial": trial.trial}
                )
        print(f"[wrote {lines} metric records to {args.metrics}]")
    if args.timeline:
        from repro.obs import write_chrome_trace

        with open(args.timeline, "w", encoding="utf-8") as sink:
            events = write_chrome_trace(
                [
                    (
                        trial.trial,
                        f"trial {trial.trial} — {result.protocol} @ {result.scenario}",
                        trial.obs["spans"],
                    )
                    for trial in result.trials
                ],
                sink,
            )
        print(f"[wrote a {events}-event timeline to {args.timeline}; "
              "open it at https://ui.perfetto.dev]")
    if args.obs:
        from repro.obs import summarize_spans

        print(summarize_spans([
            dict(span, trial=trial.trial)
            for trial in result.trials
            for span in trial.obs["spans"]
        ]))
        phases: dict[str, float] = {}
        for trial in result.trials:
            for name, seconds in trial.obs["phases_s"].items():
                phases[name] = phases.get(name, 0.0) + seconds
        print("host seconds by phase: "
              + ", ".join(f"{name} {seconds:.4f}" for name, seconds in phases.items()))
    print(result.render())
    if not result.ok:
        for trial, verdict in result.failures():
            print(f"trial {trial}: {verdict.check} FAILED — {verdict.explanation}")
        if result.incomplete:
            print(f"{result.incomplete} operations did not complete")
        return 1
    print(f"\nall {len(result.trials)} trials complete; checks passed: {', '.join(checks)}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ConfigurationError
    from repro.obs import summarize_spans

    records = []
    try:
        source = open(args.spans_file, encoding="utf-8")
    except OSError as error:
        raise ConfigurationError(f"cannot read {args.spans_file}: {error}") from None
    with source:
        for line_no, line in enumerate(source, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise ConfigurationError(
                    f"{args.spans_file}:{line_no}: not valid JSON ({error})"
                ) from None
    print(summarize_spans(records))
    return 0


def _load_jsonl(path: str) -> dict[tuple, dict]:
    """Index a ``run --jsonl`` file by protocol, scenario, sizes, backend
    layout and run axes.

    The key includes the backend name, key count, writer count and the
    :class:`~repro.axes.RunAxes` the row was written under (absent fields
    mean the default single backend and default axes, so files written
    before backends or an axis existed stay comparable).  Rows produced by
    different backends, durability modes or consistency models
    therefore never match each other — a sharded 8-key run is not
    like-for-like with a single-register one even if every other dimension
    agrees.  A later line for the same key supersedes earlier ones, so a
    file that accumulates repeated runs compares at its latest state.
    """
    import json

    from repro.axes import RunAxes
    from repro.errors import ConfigurationError

    runs: dict[tuple, dict] = {}
    with open(path, encoding="utf-8") as source:
        for line_no, line in enumerate(source, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ConfigurationError(f"{path}:{line_no}: not valid JSON ({error})") from None
            key = (record.get("protocol"), record.get("scenario"),
                   record.get("t"), record.get("n_readers"),
                   record.get("backend", "single"), record.get("keys", 1),
                   record.get("writers", 1), RunAxes.from_payload(record))
            runs[key] = record
    return runs


def _mean_rounds(record: dict, kind: str) -> float:
    rounds = [r for trial in record.get("trials", []) for r in trial.get(f"{kind}_rounds", [])]
    return sum(rounds) / len(rounds) if rounds else 0.0


def _cmd_compare(args: argparse.Namespace) -> int:
    """Flag regressions of B relative to A: rounds, latency means, completion."""
    baseline = _load_jsonl(args.baseline)
    candidate = _load_jsonl(args.candidate)

    regressions: list[str] = []
    improvements: list[str] = []
    shared = [key for key in baseline if key in candidate]
    for key in shared:
        a, b = baseline[key], candidate[key]
        label = f"{key[0]} @ {key[1]} (t={key[2]}, {key[3]} readers)"
        if key[4] != "single":
            label += f" [{key[4]}, {key[5]} key(s), {key[6]} writer(s)]"
        label += "".join(
            f" [{name}={value}]" for name, value in key[7].non_default().items()
        )
        for metric in ("worst_write", "worst_read", "incomplete"):
            old, new = a.get(metric, 0), b.get(metric, 0)
            if new > old:
                regressions.append(f"{label}: {metric} {old} -> {new}")
            elif new < old:
                improvements.append(f"{label}: {metric} {old} -> {new}")
        for kind in ("write", "read"):
            old, new = _mean_rounds(a, kind), _mean_rounds(b, kind)
            if new > old * (1.0 + args.mean_tolerance) + 1e-9:
                regressions.append(f"{label}: mean {kind} rounds {old:.2f} -> {new:.2f}")
            elif new < old - 1e-9:
                improvements.append(f"{label}: mean {kind} rounds {old:.2f} -> {new:.2f}")

    print(f"compared {len(shared)} run(s) present in both files")
    for key in baseline:
        if key not in candidate:
            print(f"  only in {args.baseline}: {key[0]} @ {key[1]}")
    for key in candidate:
        if key not in baseline:
            print(f"  only in {args.candidate}: {key[0]} @ {key[1]}")
    if improvements:
        print("improvements:")
        for line in improvements:
            print(f"  {line}")
    if regressions:
        print("REGRESSIONS:")
        for line in regressions:
            print(f"  {line}")
        return 1
    print("no regressions detected")
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    from repro.axes import SearchBounds

    cluster = _cluster_from_args(args)
    checks = _checks_from_args(args)
    bounds = asdict(SearchBounds.from_args(args))
    bounds["stop_on_violation"] = args.stop_on_violation
    bounds["fault_timing"] = args.fault_timing
    result = cluster.check(*checks).explore(
        seed=args.seed, parallel=args.parallel, max_workers=args.workers, **bounds
    )
    print(result.render())
    if args.witness and result.witnesses:
        path = result.witnesses[0].save(args.witness)
        print(f"[saved first witness to {path}]")
    found = bool(result.witnesses)
    if args.expect_violation:
        if not found:
            print("expected a violation but the bounded space is clean", file=sys.stderr)
        return 0 if found else 1
    return 1 if found else 0


def _cmd_frontier(args: argparse.Namespace) -> int:
    import json

    from repro.axes import SearchBounds

    cluster = _cluster_from_args(args)
    bounds = SearchBounds.from_args(args).to_payload()
    bounds["fault_timing"] = not args.no_fault_timing
    result = cluster.frontier(
        max_k=args.max_k, seed=args.seed,
        parallel=args.parallel, max_workers=args.workers, **bounds,
    )
    print(result.render())
    if args.jsonl:
        with open(args.jsonl, "a", encoding="utf-8") as sink:
            sink.write(json.dumps(result.to_dict(), sort_keys=True) + "\n")
        print(f"[appended structured frontier to {args.jsonl}]")
    if args.witness:
        if result.witness is None:
            print("no refutation witness to save (nothing was refuted)",
                  file=sys.stderr)
        else:
            path = result.witness.save(args.witness)
            print(f"[saved refutation witness to {path}]")
    if args.expect_strongest is not None:
        if result.strongest != args.expect_strongest:
            print(f"expected strongest certified model "
                  f"{args.expect_strongest!r}, got {result.strongest!r}",
                  file=sys.stderr)
            return 1
        return 0
    return 0 if result.strongest is not None else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.explore import ScheduleWitness

    witness = ScheduleWitness.load(args.witness)
    print(f"replaying {args.witness}: {witness.describe()}")
    outcome = witness.replay()
    for check, explanation in outcome.failures:
        print(f"  {check} FAILED — {explanation}")
    for check in outcome.passed:
        print(f"  {check} ok")
    if witness.reproduces(outcome):
        print(f"violation reproduced byte-identically "
              f"(trace {outcome.trace_hash}, {outcome.held_messages} held message(s))")
        return 0
    print("REPLAY DIVERGED from the recorded witness "
          f"(recorded trace {witness.trace_hash}, replayed {outcome.trace_hash})",
          file=sys.stderr)
    return 1


def _cmd_summary(_args: argparse.Namespace) -> int:
    from repro.core.read_bound import ReadLowerBoundConstruction
    from repro.core.write_bound import WriteLowerBoundConstruction
    from repro.registers.strawman import ThreeRoundReadProtocol, TwoRoundReadProtocol

    print("The Complexity of Robust Atomic Storage (PODC'11) — reproduction summary")
    print("=" * 74)
    read = ReadLowerBoundConstruction(
        lambda: TwoRoundReadProtocol(write_rounds=2), t=1
    ).execute()
    print(f"Proposition 1 (no 2-round reads, S≤4t, R>3): certificate "
          f"{'VALID' if read.certificate.valid else 'INVALID'} "
          f"({read.runs_executed} runs)")
    write = WriteLowerBoundConstruction(
        lambda: ThreeRoundReadProtocol(write_rounds=2), k=2
    ).execute()
    print(f"Lemma 1 (3-round reads ⇒ Ω(log t) writes), k=2: certificate "
          f"{'VALID' if write.certificate.valid else 'INVALID'} "
          f"({write.runs_executed} runs)")
    print()
    _cmd_latency(_args)
    print("\nSee `pytest benchmarks/ --benchmark-only` for every figure/table.")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser.

    ``run``, ``explore`` and ``frontier`` share their configuration flags
    through parent parsers: ``configured`` (all three — sizes, backend,
    faults, workload shape and every run-axis flag, declared by
    :meth:`repro.axes.RunAxes.add_cli_flags`), ``checked`` (run + explore —
    scenario and check selection) and ``searched`` (explore + frontier —
    the workload and the schedule-space bounds, declared by
    :meth:`repro.axes.SearchBounds.add_cli_flags`).
    """
    from repro.axes import RunAxes, SearchBounds

    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("summary", help="run both bounds + the latency matrix")

    read = sub.add_parser("read-bound", help="execute Proposition 1")
    read.add_argument("--t", type=int, default=1)
    read.add_argument("--k", type=int, default=2, help="victim write rounds")

    write = sub.add_parser("write-bound", help="execute Lemma 1")
    write.add_argument("--k", type=int, default=2)

    sub.add_parser("latency", help="measure the latency matrix")

    recurrence = sub.add_parser("recurrence", help="print t_k and the log bound")
    recurrence.add_argument("--max-k", type=int, default=10)

    sub.add_parser("list-protocols", help="show the protocol registry")
    sub.add_parser("list-backends", help="show the system-backend registry")
    sub.add_parser("list-faults", help="show the fault-behaviour registry")
    sub.add_parser("list-checkers", help="show the consistency-checker registry")

    scenarios = sub.add_parser("list-scenarios", help="show the scenario registry")
    scenarios.add_argument("--t", type=int, default=1,
                           help="threshold the fault plans are sized for")

    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument("--protocol", required=True,
                            help="registry name (see list-protocols)")
    configured.add_argument("--backend", default=None,
                            help="system backend (see list-backends; default: the protocol's own)")
    configured.add_argument("--keys", type=int, default=None,
                            help="key count for keyed backends (e.g. --backend sharded)")
    configured.add_argument("--writers", dest="writers_count", type=int, default=None,
                            help="writer family size for multi-writer backends")
    RunAxes.add_cli_flags(configured)
    configured.add_argument("--t", type=int, default=1, help="fault threshold")
    configured.add_argument("--S", type=int, default=None,
                            help="object count (default: protocol minimum)")
    configured.add_argument("--readers", type=int, default=2, help="reader population")
    configured.add_argument("--faults", default=None,
                            help="fault behaviour name (e.g. crash, stale-echo, timed)")
    configured.add_argument("--count", type=int, default=1, help="how many objects misbehave")
    configured.add_argument("--fault-arg", dest="fault_arg", action="append", default=None,
                            metavar="KEY=VALUE",
                            help="fault-behaviour parameter (repeatable; e.g. "
                                 "--fault-arg survive_messages=1 --fault-arg lag=2)")
    configured.add_argument("--strict", action="store_true",
                            help="error instead of clamping --count to t")
    configured.add_argument("--allow-overfault", action="store_true",
                            help="permit more than t faulty objects "
                                 "(churn/under-provisioned runs)")
    configured.add_argument("--seed", type=int, default=0, help="workload seed")
    configured.add_argument("--reads", type=float, default=0.6, help="read fraction")
    configured.add_argument("--spacing", type=int, default=50,
                            help="mean gap between invocations")
    configured.add_argument("--parallel", action="store_true",
                            help="execute trials / frontier waves on a process "
                                 "pool (identical results)")
    configured.add_argument("--workers", type=int, default=None,
                            help="process-pool size with --parallel (default: one per CPU)")

    checked = argparse.ArgumentParser(add_help=False)
    checked.add_argument("--scenario", default=None,
                         help="named scenario (fault plan + workload shape)")
    checked.add_argument("--check", action="append", default=None,
                         help="consistency check to run (repeatable; default: the protocol's own)")
    checked.add_argument("--check-model", dest="check_model", default=None,
                         choices=("atomic", "regular", "safe", "k-atomic"),
                         help="consistency model to check against "
                              "(shorthand for --check; see list-checkers)")
    checked.add_argument("--k", type=int, default=None,
                         help="staleness bound for --check-model/--check k-atomic")

    searched = argparse.ArgumentParser(add_help=False)
    searched.add_argument("--ops", type=int, default=3,
                          help="operations in the generated workload")
    searched.add_argument("--op", action="append", default=None, metavar="KIND:ARG@TIME",
                          help="explicit operation plan entry (repeatable; "
                               "write:VALUE@TIME or read:READER@TIME; "
                               "overrides the generated workload)")
    SearchBounds.add_cli_flags(searched)
    searched.add_argument("--witness", default=None, metavar="PATH",
                          help="save the first violation witness (frontier: the "
                               "schedule breaking the next-stronger model) as JSON to PATH")

    run = sub.add_parser("run", parents=[configured, checked],
                         help="run a registry-driven experiment")
    run.add_argument("--key-skew", type=float, default=0.0,
                     help="Zipf-style key skew for keyed workloads (0 = uniform)")
    run.add_argument("--trials", type=int, default=3)
    run.add_argument("--ops", type=int, default=10, help="operations per trial")
    run.add_argument("--jsonl", default=None, metavar="PATH",
                     help="append the structured RunResult as one JSON line to PATH")
    run.add_argument("--trace", default=None, metavar="PATH",
                     help="dump every trial's message trace as JSONL to PATH")
    run.add_argument("--spans", default=None, metavar="PATH",
                     help="write derived span records as JSONL to PATH "
                          "(enables observability)")
    run.add_argument("--metrics", default=None, metavar="PATH",
                     help="write per-trial metrics snapshots as JSONL to PATH "
                          "(enables observability)")
    run.add_argument("--timeline", default=None, metavar="PATH",
                     help="write a Perfetto-loadable Chrome trace timeline to "
                          "PATH (enables observability)")
    run.add_argument("--obs", action="store_true",
                     help="print a per-trial span summary table "
                          "(enables observability)")

    explore = sub.add_parser(
        "explore", parents=[configured, checked, searched],
        help="bounded model check over held-message schedules",
    )
    explore.add_argument("--fault-timing", dest="fault_timing", action="store_true",
                         help="sweep per-object fault trigger points as "
                              "choice points (needs --faults, no --scenario)")
    explore.add_argument("--stop-on-violation", action="store_true",
                         help="stop at the first violating schedule (refutation mode)")
    explore.add_argument("--expect-violation", action="store_true",
                         help="exit 0 iff a violation IS found (CI refutation smoke)")

    frontier = sub.add_parser(
        "frontier", parents=[configured, searched],
        help="certify the strongest consistency model a configuration serves",
    )
    frontier.add_argument("--max-k", type=int, default=4,
                          help="deepest k-atomic(k) rung on the ladder")
    frontier.add_argument("--no-fault-timing", dest="no_fault_timing",
                          action="store_true",
                          help="do not sweep fault trigger points "
                               "(facade-scheduled timing only)")
    frontier.add_argument("--jsonl", default=None, metavar="PATH",
                          help="append the structured frontier as one JSON "
                               "line to PATH")
    frontier.add_argument("--expect-strongest", default=None, metavar="MODEL",
                          help="exit 0 iff MODEL is the strongest certified "
                               "model (CI smoke)")

    replay = sub.add_parser(
        "replay", help="re-execute a saved schedule witness and re-check it"
    )
    replay.add_argument("witness", help="witness JSON written by explore --witness")

    compare = sub.add_parser(
        "compare", help="diff two run --jsonl files and flag regressions"
    )
    compare.add_argument("baseline", help="baseline .jsonl (the reference)")
    compare.add_argument("candidate", help="candidate .jsonl (flagged when worse)")
    compare.add_argument("--mean-tolerance", type=float, default=0.0,
                         help="relative slack on mean-round regressions (e.g. 0.05)")

    stats = sub.add_parser(
        "stats", help="summarize a span dump written by run --spans"
    )
    stats.add_argument("spans_file", help="spans .jsonl written by run --spans")

    return parser


def main(argv: list[str] | None = None) -> int:
    handlers = {
        "summary": _cmd_summary,
        "read-bound": _cmd_read_bound,
        "write-bound": _cmd_write_bound,
        "latency": _cmd_latency,
        "recurrence": _cmd_recurrence,
        "list-protocols": _cmd_list_protocols,
        "list-backends": _cmd_list_backends,
        "list-faults": _cmd_list_faults,
        "list-scenarios": _cmd_list_scenarios,
        "list-checkers": _cmd_list_checkers,
        "run": _cmd_run,
        "compare": _cmd_compare,
        "explore": _cmd_explore,
        "frontier": _cmd_frontier,
        "replay": _cmd_replay,
        "stats": _cmd_stats,
    }
    try:
        # Parsing sits inside the handler: a flag's own converter (e.g.
        # --repair MEMBER@AT) reports through the same friendly exit.
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except Exception as error:  # ReproError and friends → friendly exit
        from repro.errors import ReproError

        if isinstance(error, ReproError):
            print(f"error: {error}", file=sys.stderr)
            return 2
        raise


if __name__ == "__main__":
    sys.exit(main())

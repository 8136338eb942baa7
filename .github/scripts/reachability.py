#!/usr/bin/env python3
"""Function-level reachability ledger for ``src/repro``.

    python .github/scripts/reachability.py [--dumps DIR]

Sorts every ``def`` under ``src/repro`` into one of three sets:

* *reached* — called while the non-test entry points run (pass A);
* *test-only* — called only while the tier-1 suite runs (pass B);
* *unreached* — called by neither.

The static half enumerates the ``def``s with :mod:`ast` and keys each one by
path and first line, where the first line is the first decorator's when
there is one, because that is what ``co_firstlineno`` records.  The dynamic
half runs both passes in a copy of the checkout, with every Python process
started through a ``python`` / ``python3`` shim that puts ``reach_hook/`` on
``PYTHONPATH``; its ``sitecustomize`` profile hook writes down the functions
each process called.  Nothing under ``src/`` knows about it.

Pass A's entry points are derived from the checkout, so a new example,
benchmark, assert script, witness, subcommand or registry entry is covered
without editing this file:

* every ``run:`` step of ``.github/workflows/ci.yml`` except installs, the
  tier-1 step and this script's own job;
* ``examples/*.py``, ``benchmarks/bench_*.py``, ``.github/scripts/assert_*.py``
  and the ``tests/witnesses/*.json`` replays that no CI step already names;
* the e2e benchmark's ``--smoke`` run;
* one invocation of every subcommand of ``repro.__main__.build_parser()``;
* one ``repro run`` per protocol, fault behaviour, scenario and checker
  registry entry.

Pass B is the tier-1 suite.  Stubs are exempt: a body that is only a
docstring, ``pass``, ``...`` or ``raise NotImplementedError``.  Every other
test-only or unreached ``def`` must be named in ``reachability_allow.txt``
(one ``path:qualname  reason`` line each), and every line there must name a
``def`` that exists and is test-only.  The ledger lists every non-stub
test-only and unreached ``def``, allowlisted or not.

Exit status: 0 when the ledger is clean; 1 when a ``def`` is neither reached,
exempt nor allowlisted, or an allowlist line is stale; 2 when an entry point
failed, keeping the work directory for its logs.  ``--dumps DIR`` puts the
copy, the logs and the per-process dumps in ``DIR`` and keeps them.
"""

from __future__ import annotations

import argparse
import ast
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import textwrap
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
HOOK = HERE / "reach_hook"
ALLOWLIST = HERE / "reachability_allow.txt"
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
#: The tier-1 command: pass B, and the one CI step pass A leaves out.
TIER1 = "python -m pytest -x -q"
#: The CI job that runs this script, which pass A must not run again.
OWN_JOB = "reachability"
#: What the passes' copy of the checkout holds.
TREE = ("src", "tests", "examples", "benchmarks", ".github", "pytest.ini", "BENCHMARK.json")
#: (glob, command): one entry point per matching file no CI step names, by
#: path or by this glob.
GLOBBED = (
    ("examples/*.py", "PYTHONPATH=src python {}"),
    (".github/scripts/assert_*.py", "PYTHONPATH=src python {}"),
    ("tests/witnesses/*.json", "PYTHONPATH=src python -m repro replay {}"),
)
#: Every ``benchmarks/bench_*.py`` in one pass, unless a CI step runs them.
BENCHES = "PYTHONPATH=src python -m pytest benchmarks -q --benchmark-disable -o python_files='bench_*.py'"
E2E_SMOKE = "python3 benchmarks/e2e/run.py --smoke"
REPRO = "PYTHONPATH=src python -m repro "
#: Files the subcommands that read one are given, written by these runs first.
PREPARE = (
    "run --protocol abd --trials 1 --jsonl reach_a.jsonl --spans reach_spans.jsonl",
    "run --protocol abd --trials 1 --seed 1 --jsonl reach_b.jsonl",
)
#: A value for every required argument of a subcommand, by ``dest`` (and
#: ``witness``: the first committed witness).
FILL = {
    "protocol": "abd",
    "baseline": "reach_a.jsonl",
    "candidate": "reach_b.jsonl",
    "spans_file": "reach_spans.jsonl",
}
REGISTRY_RUN = REPRO + "run --trials 1 --ops 6 "


@dataclass(frozen=True)
class Def:
    path: str  # relative to the checkout
    line: int  # first line, decorators included: the code object's co_firstlineno
    name: str
    qualname: str
    lines: int
    stub: bool

    @property
    def label(self) -> str:
        return f"{self.path}:{self.qualname}"


# --------------------------------------------------------------------- #
# Static half
# --------------------------------------------------------------------- #


def is_stub(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Whether the body is only a docstring, ``pass``, ``...`` or
    ``raise NotImplementedError``."""
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]
    if not body:
        return True
    if len(body) > 1:
        return False
    (statement,) = body
    if isinstance(statement, ast.Pass):
        return True
    if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant):
        return statement.value.value is Ellipsis
    if isinstance(statement, ast.Raise) and statement.exc is not None:
        raised = statement.exc.func if isinstance(statement.exc, ast.Call) else statement.exc
        return isinstance(raised, ast.Name) and raised.id == "NotImplementedError"
    return False


def enumerate_defs(root: Path = ROOT) -> dict[tuple[str, int, str], Def]:
    """Every ``def`` under ``root/src/repro``, keyed ``(path, first line, name)``."""
    found: dict[tuple[str, int, str], Def] = {}

    def visit(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found[path, first, child.name] = Def(
                    path, first, child.name, prefix + child.name,
                    child.end_lineno - first + 1, is_stub(child),
                )
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for file in sorted((root / "src" / "repro").rglob("*.py")):
        visit(ast.parse(file.read_text(encoding="utf-8")), file.relative_to(root).as_posix(), "")
    return found


def read_allowlist(path: Path = ALLOWLIST) -> dict[str, str]:
    """``path:qualname`` → reason, for every entry line of the allowlist."""
    entries: dict[str, str] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            label, _, reason = line.strip().partition(" ")
            entries[label] = reason.strip()
    return entries


# --------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------- #


def workflow_steps(path: Path = WORKFLOW) -> list[tuple[str, str, str]]:
    """``(job, step name, script)`` for every ``run:`` step of a workflow.

    Reads the YAML subset the workflow uses: jobs at indent 2 under
    ``jobs:``, ``- name:`` steps, and ``run:`` inline or as a ``|`` block.
    """
    lines = path.read_text(encoding="utf-8").splitlines()
    steps: list[tuple[str, str, str]] = []
    in_jobs, job, name, index = False, "", "", 0
    while index < len(lines):
        line = lines[index]
        stripped, indent = line.strip(), len(line) - len(line.lstrip())
        index += 1
        if line == "jobs:":
            in_jobs = True
        elif in_jobs and indent == 2 and stripped.endswith(":"):
            job = stripped[:-1]
        elif stripped.startswith("- name:"):
            name = stripped[len("- name:"):].strip()
        elif job and stripped.startswith("run:"):
            script = stripped[len("run:"):].strip()
            if script == "|":
                block = []
                while index < len(lines) and (
                    not lines[index].strip()
                    or len(lines[index]) - len(lines[index].lstrip()) > indent
                ):
                    block.append(lines[index])
                    index += 1
                script = textwrap.dedent("\n".join(block)).strip()
            steps.append((job, name, script + "\n"))
    return steps


def entry_points() -> list[tuple[str, str, tuple[int, ...]]]:
    """Pass A: ``(label, bash script, accepted exit codes)`` per entry point."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.__main__ import build_parser
    from repro.api import fault_specs, protocol_specs
    from repro.consistency import checker_specs
    from repro.workloads.scenarios import available_scenarios

    entries = [
        (f"ci {job}: {name}", script, (0,))
        for job, name, script in workflow_steps()
        if job != OWN_JOB and TIER1 not in script and "pip install" not in script
    ]
    named = "".join(script for _, script, _ in entries)
    for pattern, command in GLOBBED:
        if pattern not in named:
            for file in sorted(ROOT.glob(pattern)):
                relative = file.relative_to(ROOT).as_posix()
                if relative not in named:
                    entries.append((relative, command.format(relative), (0,)))
    if "bench_*.py" not in named:
        entries.append(("benchmarks/bench_*.py", BENCHES, (0,)))
    entries.append(("e2e smoke", E2E_SMOKE, (0,)))

    entries += [(f"repro {args}", REPRO + args, (0,)) for args in PREPARE]
    witness = min(ROOT.glob("tests/witnesses/*.json")).relative_to(ROOT).as_posix()
    fill = {**FILL, "witness": witness}
    # A subcommand or registry run may end on a verdict (exit 1); a
    # configuration error or a traceback is a broken entry point.
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for command, parser in commands.choices.items():
        args = [command]
        for action in parser._actions:
            if action.option_strings and not action.required:
                continue
            if action.dest not in fill:
                raise SystemExit(f"reachability: no value for `repro {command}`'s required "
                                 f"{action.dest!r}; add one to FILL")
            args += [*action.option_strings[:1], fill[action.dest]]
        entries.append((f"repro {command}", REPRO + shlex.join(args), (0, 1)))

    specs = protocol_specs()
    runs = [(f"protocol {spec.name}", f"--protocol {spec.name}") for spec in specs]
    # A wrapper fault (``timed``) runs once around every other fault.
    faults = fault_specs()
    plain = [spec.name for spec in faults if spec.model != "wrapper"]
    for spec in faults:
        for inner in plain if spec.model == "wrapper" else (None,):
            label = spec.name if inner is None else f"{spec.name}({inner})"
            wrapped = "" if inner is None else f" --fault-arg inner={inner}"
            runs.append((f"fault {label}",
                         f"--protocol abd --durability mem --faults {spec.name}{wrapped}"))
    for scenario in available_scenarios():
        protocol = next((spec.name for spec in specs if scenario in spec.scenarios), "abd")
        runs.append((f"scenario {scenario}",
                     f"--protocol {protocol} --durability mem --scenario {scenario}"))
    runs += [(f"checker {spec.name}", f"--protocol abd --check {spec.name}")
             for spec in checker_specs()]
    entries += [(label, REGISTRY_RUN + args, (0, 1)) for label, args in runs]
    return entries


# --------------------------------------------------------------------- #
# Dynamic half
# --------------------------------------------------------------------- #


def prepare(work: Path) -> dict[str, str]:
    """Copy the checkout into ``work/tree`` and return the passes' environment."""
    tree, shims = work / "tree", work / "bin"
    for name in TREE:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            tree.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, tree / name)
    shims.mkdir(parents=True)
    for name in ("python", "python3"):
        shim = shims / name
        shim.write_text(
            "#!/bin/sh\n"
            f'PYTHONPATH="${{PYTHONPATH:+$PYTHONPATH:}}{HOOK}" exec {shlex.quote(sys.executable)} "$@"\n'
        )
        shim.chmod(0o755)
    (work / "tmp").mkdir()
    return dict(
        os.environ,
        PATH=f"{shims}{os.pathsep}{os.environ.get('PATH', '')}",
        REACH_ROOT=str(tree),
        TMPDIR=str(work / "tmp"),
    )


def run_pass(name: str, entries, work: Path, env: dict[str, str]) -> list[str]:
    """Run ``entries`` under the hook; the failures, as printable lines."""
    dumps, logs = work / name, work / f"{name}-logs"
    dumps.mkdir()
    logs.mkdir()
    env = dict(env, REACH_DUMP=str(dumps))
    failures = []
    for number, (label, script, accepted) in enumerate(entries):
        log = logs / f"{number:03d}.log"
        print(f"[pass {name}] {label}", flush=True)
        with log.open("w", encoding="utf-8") as sink:
            code = subprocess.run(
                ["bash", "-eo", "pipefail", "-c", script], cwd=work / "tree", env=env,
                stdout=sink, stderr=subprocess.STDOUT, check=False,
            ).returncode
        output = log.read_text(encoding="utf-8", errors="replace")
        if code not in accepted or "Traceback (most recent call last)" in output:
            tail = "\n".join("    " + line for line in output.splitlines()[-15:])
            failures.append(f"pass {name}: {label} exited {code} (log {log})\n{tail}")
    return failures


def read_dumps(directory: Path) -> set[tuple[str, int, str]]:
    called = set()
    for dump in directory.glob("*.txt"):
        for line in dump.read_text(encoding="utf-8").splitlines():
            path, first, name = line.split("\t")
            called.add((path, int(first), name))
    return called


# --------------------------------------------------------------------- #
# Ledger
# --------------------------------------------------------------------- #


def ledger(defs, reached, tested, allow: dict[str, str]) -> int:
    """Sort ``defs`` by the called-sets of pass A (``reached``) and pass B
    (``tested``), print the ledger, and return the exit status."""
    sets: dict[str, list[Def]] = {"reached": [], "test-only": [], "unreached": []}
    status: dict[str, set[str]] = {}  # label → the sets its defs fall in
    for key, item in defs.items():
        name = "reached" if key in reached else "test-only" if key in tested else "unreached"
        sets[name].append(item)
        status.setdefault(item.label, set()).add("a stub, exempt by rule" if item.stub else name)
    missing = [d for d in sets["test-only"] + sets["unreached"]
               if not d.stub and d.label not in allow]
    # An allowlisted def must stay test-only: reached, it needs no line;
    # unreached, not even its tests call it any more.
    stale = [f"{label}: {', '.join(sorted(status.get(label, {'no such def'})))}"
             for label in allow if status.get(label) != {"test-only"}]
    stale += [f"{label}: no reason given" for label, reason in allow.items() if not reason]
    allowlisted = sum(d.label in allow for d in sets["test-only"] + sets["unreached"])
    stubs = sum(d.stub for d in sets["test-only"] + sets["unreached"])

    print(f"\n{len(defs)} defs in src/repro: " + ", ".join(
        f"{len(items)} {name} ({sum(d.lines for d in items)} lines)" for name, items in sets.items()
    ) + f"; {stubs} stubs exempt, {allowlisted} allowlisted")
    for name in ("test-only", "unreached"):
        for item in sorted(sets[name], key=lambda d: (d.path, d.line)):
            if not item.stub:
                flag = "allowlisted" if item.label in allow else "MISSING"
                print(f"  {name:9} {flag:11} {item.path}:{item.line} {item.qualname}"
                      f" ({item.lines} lines)")
    for line in stale:
        print(f"  stale allowlist line: {line}")
    if missing or stale:
        print(f"reachability: {len(missing)} def(s) reached by no entry point and not "
              f"allowlisted, {len(stale)} stale allowlist line(s) "
              f"({ALLOWLIST.relative_to(ROOT)})")
        return 1
    print("reachability: clean")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dumps", type=Path, default=None,
                        help="keep the copy, logs and dumps here (default: a temporary directory)")
    args = parser.parse_args(argv)

    defs = enumerate_defs()
    allow = read_allowlist()
    work = args.dumps or Path(tempfile.mkdtemp(prefix="reachability-"))
    keep = args.dumps is not None
    try:
        work.mkdir(parents=True, exist_ok=True)
        entries = entry_points()
        env = prepare(work)
        failures = run_pass("A", entries, work, env)
        failures += run_pass("B", [("tier-1", f"PYTHONPATH=src {TIER1}", (0,))], work, env)
        if failures:
            keep = True  # so the log paths printed with the failures exist
            print("\n".join(failures), file=sys.stderr)
            return 2
        return ledger(defs, read_dumps(work / "A"), read_dumps(work / "B"), allow)
    finally:
        if not keep:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

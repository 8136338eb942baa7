"""The reachability ledger's static half, without profiling anything.

``.github/scripts/reachability.py`` sorts every ``def`` under ``src/repro``
into reached / test-only / unreached by running the entry points and the
suite under a profile hook (the CI ``reachability`` job).  What can be
checked statically is checked here: the allowlist names real ``def``s with
reasons, the stub rule, the key the profile hook is matched against, and
the classification itself on made-up sets.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "reachability", ROOT / ".github" / "scripts" / "reachability.py"
)
reachability = sys.modules["reachability"] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reachability)

DEFS = reachability.enumerate_defs(ROOT)

STUBS = '''
def docstring_only():
    """Nothing else."""

def bare_pass():
    pass

def ellipsis(): ...

def raises_the_class():
    raise NotImplementedError

def documented_raise():
    """Subclasses answer."""
    raise NotImplementedError("subclasses answer")
'''

NOT_STUBS = '''
def returns():
    return 1

def raises_something_else():
    raise ValueError("no")

def two_statements():
    pass
    pass

def reraises():
    raise

def docstring_then_work():
    """Doc."""
    return None
'''


def _functions(source):
    return [node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)]


def test_every_allowlist_line_names_a_def_and_gives_a_reason():
    allow = reachability.read_allowlist()
    assert allow, "the allowlist is empty: drop the file or the check"
    labels = {item.label for item in DEFS.values()}
    for label, reason in allow.items():
        assert label in labels, f"{label}: no such def under src/repro"
        assert reason, f"{label}: no reason given"


@pytest.mark.parametrize("source,stub", [(STUBS, True), (NOT_STUBS, False)])
def test_the_stub_rule(source, stub):
    for node in _functions(source):
        assert reachability.is_stub(node) is stub, node.name


def _code_objects(obj):
    """Every code object a class attribute or module function carries."""
    if isinstance(obj, property):
        parts = (obj.fget, obj.fset, obj.fdel)
    elif isinstance(obj, (classmethod, staticmethod)):
        parts = (obj.__func__,)
    else:
        parts = (obj,)
    return [inspect.unwrap(part).__code__ for part in parts if callable(part)]


def test_the_key_is_co_firstlineno_for_decorated_defs():
    """The first line counts the decorators, as the code object does."""
    checked = 0
    for (path, line, name), item in DEFS.items():
        if "<locals>" in item.qualname:
            continue
        module = importlib.import_module(
            path.removeprefix("src/").removesuffix(".py").replace("/", ".").removesuffix(".__init__")
        )
        owner = module
        *scope, attribute = item.qualname.split(".")
        for part in scope:
            owner = getattr(owner, part)
        codes = _code_objects(inspect.getattr_static(owner, attribute))
        assert line in {code.co_firstlineno for code in codes if code.co_name == name}, item.label
        with open(ROOT / path, encoding="utf-8") as source:
            decorated = source.readlines()[line - 1].lstrip().startswith("@")
        checked += decorated
    assert checked >= 20


def test_the_ledger_sorts_flags_and_passes(capsys):
    def made(qualname, line, stub=False):
        return reachability.Def("src/repro/m.py", line, qualname.split(".")[-1], qualname, 3, stub)

    defs = {
        (d.path, d.line, d.name): d
        for d in (made("live", 1), made("tested", 5), made("probed", 9), made("Base.hook", 13, stub=True))
    }
    keys = list(defs)
    reached, tested = {keys[0]}, {keys[0], keys[1], keys[2]}
    clean = {"src/repro/m.py:tested": "by design", "src/repro/m.py:probed": "by design"}
    assert reachability.ledger(defs, reached, tested, clean) == 0
    # A test-only def nobody allowlisted.
    assert reachability.ledger(defs, reached, tested, {"src/repro/m.py:tested": "by design"}) == 1
    # Stale lines: a def that is reached, gone or a stub, and a reason missing.
    for label in ("live", "gone", "Base.hook"):
        assert reachability.ledger(defs, reached, tested,
                                   {**clean, f"src/repro/m.py:{label}": "by design"}) == 1
    assert reachability.ledger(defs, reached, tested, {**clean, "src/repro/m.py:probed": ""}) == 1
    # An allowlisted def its tests no longer call is unreached, and stale.
    capsys.readouterr()
    assert reachability.ledger(defs, reached, tested - {keys[2]}, clean) == 1
    assert "stale allowlist line: src/repro/m.py:probed: unreached" in capsys.readouterr().out

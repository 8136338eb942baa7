"""A repro process loads what it runs.

The process pool (``concurrent.futures``, which pulls in ``multiprocessing``
and ``logging``), ``pickle``, OpenSSL ``hashlib`` and ``statistics`` (which
pulls in ``decimal`` and ``fractions``) are imported on first use, so
``import repro.api`` and a serial trial load none of them.  Each check runs
in a fresh isolated interpreter, since this one has long since imported
everything.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

from hypothesis import given, strategies as st

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: What a serial run must not load: the pool, pickling, OpenSSL hashing
#: and ``statistics``.
DEFERRED = ("concurrent.futures", "multiprocessing", "logging", "pickle", "_hashlib", "statistics")

_PROGRAM = """
import json, sys
sys.path.insert(0, {src!r})
deferred = {deferred!r}
before = set(sys.modules)
added = lambda: sorted(name for name in deferred if name in sys.modules and name not in before)
steps = {{}}
import repro.api
steps["import repro.api"] = added()
cluster = repro.api.Cluster("abd").with_workload(operations=8)
serial = cluster.run(trials=2, seed=5)
steps["serial run"] = added()
parallel = cluster.run(trials=2, seed=5, parallel=True, max_workers=2)
steps["parallel run"] = added()
strip = lambda payload: {{k: v for k, v in payload.items() if k != "elapsed_s"}}
steps["serial == parallel"] = strip(serial.to_dict()) == strip(parallel.to_dict())
print(json.dumps(steps))
"""


def _fresh_interpreter_steps() -> dict:
    program = _PROGRAM.format(src=SRC, deferred=DEFERRED)
    done = subprocess.run(
        [sys.executable, "-I", "-c", program],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout)


def test_a_serial_process_loads_no_pool_pickle_openssl_or_statistics():
    steps = _fresh_interpreter_steps()
    assert steps["import repro.api"] == []
    assert steps["serial run"] == []
    # The first parallel call loads the pool, and its results are the
    # serial ones byte for byte.
    assert {"concurrent.futures", "pickle"} <= set(steps["parallel run"])
    assert steps["serial == parallel"] is True


@given(st.lists(st.integers(min_value=-(2**40), max_value=2**40), min_size=1, max_size=200))
def test_an_integer_mean_is_fmean(samples):
    """``sum / len`` over ints is bit-identical to ``statistics.fmean``."""
    assert sum(samples) / len(samples) == statistics.fmean(samples)

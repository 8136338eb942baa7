"""Record which functions of ``src/`` an interpreter calls.

Loaded by Python's ``site`` machinery in every interpreter whose
``PYTHONPATH`` names this directory; ``.github/scripts/reachability.py``
arranges that for each process it starts.  Inert unless ``REACH_DUMP`` (the
directory to write to) and ``REACH_ROOT`` (the tree whose ``src/`` counts)
are both set.

A ``sys.setprofile`` / ``threading.setprofile`` hook collects the code object
of every Python call.  At exit the process writes one file into
``REACH_DUMP``: a ``path<TAB>first line<TAB>name`` line per called function
under ``REACH_ROOT/src``, the path relative to ``REACH_ROOT``.  Pool workers
leave through ``os._exit``, which skips ``atexit``, so that exit dumps too.
"""

import atexit
import os
import sys
import threading
import time

_DUMP = os.environ.get("REACH_DUMP")
_ROOT = os.environ.get("REACH_ROOT")

if _DUMP and _ROOT:
    _seen = set()
    _add = _seen.add

    def _record(frame, event, arg):
        if event == "call":
            _add(frame.f_code)

    def _dump():
        sys.setprofile(None)
        threading.setprofile(None)
        root = os.path.realpath(_ROOT)
        src = os.path.join(root, "src", "")
        where = {}
        lines = set()
        for code in list(_seen):
            path = where.get(code.co_filename)
            if path is None:
                path = where[code.co_filename] = os.path.realpath(code.co_filename)
            if path.startswith(src):
                lines.add(f"{os.path.relpath(path, root)}\t{code.co_firstlineno}\t{code.co_name}\n")
        _seen.clear()
        if lines:
            name = os.path.join(_DUMP, f"{os.getpid()}-{time.monotonic_ns()}.txt")
            with open(name, "w", encoding="utf-8") as sink:
                sink.writelines(sorted(lines))

    _os_exit = os._exit

    def _exit(status):
        _dump()
        _os_exit(status)

    os._exit = _exit
    atexit.register(_dump)
    sys.setprofile(_record)
    threading.setprofile(_record)

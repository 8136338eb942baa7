"""Shared fixtures.

``reference_engine`` is the only way anything in the tree runs a register
system on the per-message event loop: production code builds
:class:`~repro.sim.batched.BatchedSimulator` unconditionally, and the tests
that pin it against :class:`~repro.sim.simulator.Simulator` swap the one
name :func:`repro.registers.base._assemble` constructs.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.registers import base
from repro.sim.simulator import Simulator


@pytest.fixture
def reference_engine(monkeypatch):
    """A context manager: every system *built* inside it runs on the
    reference :class:`Simulator`; outside it, on the production engine.

    ::

        production = cluster.run(trials=2, seed=5)
        with reference_engine():
            reference = cluster.run(trials=2, seed=5)
        assert production.to_dict() == reference.to_dict()

    Serial execution only — the patch lives in this process, not in pool
    workers.
    """

    @contextmanager
    def patched():
        with monkeypatch.context() as patch:
            patch.setattr(base, "BatchedSimulator", Simulator)
            yield

    return patched

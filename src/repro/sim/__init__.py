"""Deterministic discrete-event simulation of the paper's system model.

The model (Section 2 of the paper): an asynchronous message-passing system
with reliable point-to-point channels between *clients* (one writer, ``R``
readers) and ``S`` *storage objects*.  Objects are passive — they never send
messages except in reply to a client message — and up to ``t`` of them may be
malicious.  Clients may crash.

Two execution styles are provided on top of the same process abstractions:

* :class:`~repro.sim.batched.BatchedSimulator` — virtual time and pluggable
  delivery policies, walked a delivery wave at a time: what end-to-end
  protocol runs, randomized testing and latency benchmarks execute on.  Its
  base class :class:`~repro.sim.simulator.Simulator` is the tests'
  reference: the same :class:`~repro.sim.events.WaveQueue`, drained one
  entry at a time.
* the scripted partial-run driver in :mod:`repro.core.runs` — used by the
  lower-bound constructions, which need exact per-round, per-block control.
"""

from repro.sim.batched import BatchedSimulator
from repro.sim.events import WaveQueue
from repro.sim.network import DeliveryPolicy, FifoDelivery, Message, Network
from repro.sim.process import FaultBehavior, ObjectHandler, ObjectServer
from repro.sim.rounds import ReplyRule, RoundOutcome, RoundSpec
from repro.sim.simulator import ClientOperation, Simulator
from repro.sim.tracing import MessageTrace, TraceEvent

__all__ = [
    "BatchedSimulator",
    "WaveQueue",
    "Message",
    "Network",
    "DeliveryPolicy",
    "FifoDelivery",
    "ObjectHandler",
    "ObjectServer",
    "FaultBehavior",
    "RoundSpec",
    "RoundOutcome",
    "ReplyRule",
    "Simulator",
    "ClientOperation",
    "MessageTrace",
    "TraceEvent",
]

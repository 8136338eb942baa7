"""Multiplexing several logical registers over one set of physical objects.

The regular→atomic transformation of [4, 20] uses ``R + 1`` SWMR regular
registers; the SWMR→MWMR transformation stacks one atomic register per
writer on top of that.  All of these logical registers live on the *same*
``S`` storage objects, and — crucially for round counting — operations on
different logical registers proceed **in the same communication rounds**:
one physical message carries the per-register invocations side by side.

This module provides the two halves of that multiplexing:

* :class:`MultiplexObjectHandler` — object state is a dictionary of
  per-register substrate states; a ``MULTI`` message carries a bundle of
  inner calls, each dispatched to its register's state, and the reply
  bundles the inner replies.
* :func:`multiplex` — a generator combinator driving several substrate
  client generators in lockstep: each merged round sends every substrate's
  current-round message, terminates when *every* substrate's rule is
  satisfied on its projected replies, and feeds each substrate its projected
  outcome.  Nested multiplexing flattens (path-joined register names), which
  is how the MWMR transform reuses the SWMR transform unchanged.

Waiting for the slowest substrate's rule can only deliver *more* replies to
the faster ones, which never violates their quorum logic; the merged round
count equals the maximum of the substrates' round counts — exactly the
"reads of all registers proceed in parallel" accounting the paper's
Section 5 relies on.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from repro.errors import ProtocolError
from repro.sim.network import Message
from repro.sim.process import ObjectHandler
from repro.sim.rounds import ReplyRule, ReplySet, RoundOutcome, RoundSpec
from repro.sim.simulator import ProtocolGenerator

MULTI = "MULTI"


class MultiplexObjectHandler(ObjectHandler):
    """Per-register substrate states behind a single object interface."""

    def __init__(self, inner: ObjectHandler) -> None:
        self.inner = inner
        # One carrier message per handler, re-pointed at each delivery and
        # each inner call: handlers read the message while they run and
        # never keep it.
        self._carrier = Message(None, None, None, 0, MULTI, {})

    def initial_state(self) -> dict[str, Any]:
        return {"registers": {}}

    def handle(self, state: dict[str, Any], message: Message) -> Mapping[str, Any]:
        if message.tag != MULTI:
            return {"error": f"expected {MULTI}, got {message.tag}"}
        calls = message.payload.get("calls")
        if not _is_mapping(calls):
            return {"error": "malformed MULTI payload"}
        registers: dict[str, Any] | None = state.get("registers")
        if registers is None:
            registers = state["registers"] = {}
        inner = self.inner
        handle = inner.handle
        inner_message = self._carrier
        inner_message.src = message.src
        inner_message.dst = message.dst
        inner_message.op = message.op
        inner_message.round_no = message.round_no
        replies: dict[str, Mapping[str, Any]] = {}
        for name in sorted(calls):
            call = calls[name]
            register_state = registers.get(name)
            if register_state is None:
                register_state = registers[name] = inner.initial_state()
            inner_message.tag = str(call["tag"])
            inner_message.payload = call["payload"]
            replies[name] = handle(register_state, inner_message)
        return {"calls": replies}


def _is_mapping(value: Any) -> bool:
    """``isinstance(value, Mapping)`` with the per-message case short-cut.

    Every payload a correct process builds is a plain ``dict``; the abstract
    check only runs for what is left, which is where a Byzantine object's
    malformed payload (a string, a list, ``None``) gets rejected.
    """
    return value.__class__ is dict or isinstance(value, Mapping)


def _flatten_spec(prefix: str, spec: RoundSpec) -> dict[str, dict[str, Any]]:
    """Expand one substrate spec into flat ``name -> {tag, payload}`` calls."""
    if spec.per_object_payload is not None:
        raise ProtocolError("multiplexed substrates may not use per-object payloads")
    if spec.tag == MULTI:
        inner_calls = spec.payload["calls"]
        return {f"{prefix}/{name}": dict(call) for name, call in inner_calls.items()}
    return {prefix: {"tag": spec.tag, "payload": dict(spec.payload)}}


def _project(prefix: str, spec: RoundSpec, replies: ReplySet) -> ReplySet:
    """Rebuild the reply set one substrate would have seen on its own.

    Every reply payload is a mapping (the engines leave anything else out
    of a round's reply set); its call bundle and leaves are checked here.
    """
    projected: ReplySet = {}
    nested = None
    if spec.tag == MULTI:
        nested = [(name, f"{prefix}/{name}") for name in spec.payload["calls"]]
    for pid, payload in replies.items():
        calls = payload.get("calls")
        if not _is_mapping(calls):
            continue  # no call bundle (Byzantine): invisible to the substrate
        if nested is None:
            leaf = calls.get(prefix)
            if leaf.__class__ is dict or _is_mapping(leaf):  # a garbled leaf is dropped too
                projected[pid] = leaf
        elif all(flat in calls for _, flat in nested):
            projected[pid] = {"calls": {name: calls[flat] for name, flat in nested}}
    return projected


class _RoundViews:
    """Each substrate's projection of one merged round's reply set.

    A projection is computed once per substrate and reply-set size: the
    merged predicate and the outcome hand-off that follows a successful
    evaluation see the same reply set, so the second asks for views the
    first already built.  Reply sets only ever gain entries (an engine
    invariant: duplicates are rejected before insertion), so the same
    ``dict`` at the same length has the same content; anything else — a
    copy, a grown set — recomputes.
    """

    __slots__ = ("specs", "replies", "size", "views")

    def __init__(self, specs: Mapping[str, RoundSpec]) -> None:
        self.specs = specs
        self.replies: ReplySet | None = None
        self.size = -1
        self.views: dict[str, ReplySet] = {}

    def view(self, name: str, replies: ReplySet) -> ReplySet:
        if replies is not self.replies or len(replies) != self.size:
            self.replies = replies
            self.size = len(replies)
            self.views = {}
        view = self.views.get(name)
        if view is None:
            view = self.views[name] = _project(name, self.specs[name], replies)
        return view

    def satisfied(self, replies: ReplySet) -> bool:
        """The merged round's predicate: every substrate's rule holds."""
        for name, spec in self.specs.items():
            if not spec.rule.satisfied(self.view(name, replies)):
                return False
        return True

    def release(self) -> None:
        """Forget the cached views (the round's record outlives the round)."""
        self.replies = None
        self.views = {}


def multiplex(generators: Mapping[str, ProtocolGenerator]) -> ProtocolGenerator:
    """Drive substrate generators over shared rounds; returns their results.

    Yields merged :class:`RoundSpec` objects (tag ``MULTI``); the caller (the
    simulator or the scripted runner) treats them like any other round.  The
    return value maps each register name to its substrate's return value.
    """
    active: dict[str, ProtocolGenerator] = dict(generators)
    specs: dict[str, RoundSpec] = {}
    results: dict[str, Any] = {}
    sub_round: dict[str, int] = {name: 0 for name in active}

    for name, generator in list(active.items()):
        try:
            specs[name] = next(generator)
            sub_round[name] = 1
        except StopIteration as stop:  # a substrate with no rounds at all
            results[name] = stop.value
            del active[name]

    while active:
        merged_calls: dict[str, dict[str, Any]] = {}
        for name, spec in specs.items():
            merged_calls.update(_flatten_spec(name, spec))

        views = _RoundViews(specs)
        min_count = max(spec.rule.min_count for spec in specs.values())
        accept = all(spec.rule.accept_on_quiescence for spec in specs.values())
        outcome = yield RoundSpec(
            tag=MULTI,
            payload={"calls": merged_calls},
            rule=ReplyRule(
                min_count=min_count, predicate=views.satisfied, accept_on_quiescence=accept
            ),
        )

        next_specs: dict[str, RoundSpec] = {}
        for name, generator in list(active.items()):
            sub_outcome = RoundOutcome(
                round_no=sub_round[name],
                replies=views.view(name, outcome.replies),
                quiesced=outcome.quiesced,
                terminated_at=outcome.terminated_at,
            )
            try:
                next_specs[name] = generator.send(sub_outcome)
                sub_round[name] += 1
            except StopIteration as stop:
                results[name] = stop.value
                del active[name]
        views.release()
        specs = next_specs

    return results

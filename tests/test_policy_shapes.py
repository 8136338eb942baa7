"""Every delivery policy in the tree keeps the shape it declares.

Since every run executes on the wave-stepped engine, a
:class:`~repro.sim.network.DeliveryPolicy` that declares a shape
(``uniform_latency`` / ``hold_check``) its ``delay`` does not keep would
corrupt every run it is used in — the network serves a declared shape from
the fast path and never asks ``delay``.  This file enumerates every
subclass importable from ``src/``, ``benchmarks/`` and ``examples/``
(``bench_ablations._InversionSchedule`` is one), gives each a few
configurations, and checks on generated messages that the declaration and
``delay`` agree — or that :meth:`Network.fast_shape` grants nothing.

A new policy class fails ``test_every_policy_class_has_samples`` until it
is given configurations in ``SAMPLES``.
"""

from __future__ import annotations

import importlib
import importlib.util
import itertools
import pkgutil
import sys
from pathlib import Path

import pytest

import repro
from repro.explore import HoldLink
from repro.explore.controlled import ControlledDelivery
from repro.faults.schedules import WithholdFrom
from repro.sim.events import EventQueue
from repro.sim.network import (
    DeliveryPolicy,
    FifoDelivery,
    Message,
    Network,
    SelectiveHold,
)
from repro.types import (
    fresh_operation_id,
    object_id,
    object_ids,
    reader_id,
    scoped_operation_serials,
    writer_id,
)

REPO = Path(__file__).resolve().parents[1]
TREES = tuple(REPO / name for name in ("src", "benchmarks", "examples"))
#: Virtual times ``delay`` is asked at: a shape promises independence of it.
TICKS = (0, 1, 49, 50, 51, 400)


def _import_the_tree() -> None:
    """Import everything a policy subclass could be defined in."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    if str(REPO) not in sys.path:  # ``benchmarks`` imports itself as a package
        sys.path.insert(0, str(REPO))
    for path in sorted((REPO / "benchmarks").glob("*.py")):
        importlib.import_module(f"benchmarks.{path.stem}")
    for path in sorted((REPO / "examples").glob("*.py")):
        name = f"examples.{path.stem}"
        if name not in sys.modules:
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)


def _policy_classes() -> dict[str, type[DeliveryPolicy]]:
    """``module.QualName`` → class, for every subclass defined in the tree."""
    _import_the_tree()
    found: dict[str, type[DeliveryPolicy]] = {}
    pending = list(DeliveryPolicy.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        source = getattr(sys.modules.get(cls.__module__), "__file__", None)
        if source and any(tree in Path(source).resolve().parents for tree in TREES):
            found[f"{cls.__module__}.{cls.__qualname__}"] = cls
    return found


CLASSES = _policy_classes()


def _messages() -> list[Message]:
    """Three operations × four objects × two rounds, both directions."""
    with scoped_operation_serials():
        ops = [
            fresh_operation_id(writer_id(), "write"),
            fresh_operation_id(reader_id(1), "read"),
            fresh_operation_id(reader_id(2), "read"),
        ]
    return [
        Message(
            src=obj if is_reply else op.client, dst=op.client if is_reply else obj,
            op=op, round_no=round_no, tag="T", payload={}, is_reply=is_reply,
        )
        for op, obj, round_no, is_reply in itertools.product(
            ops, object_ids(4), (1, 2), (False, True)
        )
    ]


MESSAGES = _messages()


def _hold_s1_replies(message: Message) -> bool:
    return message.is_reply and message.src == object_id(1)


#: ``module.QualName`` → zero-argument factories (fresh instance per call:
#: policies may keep books).  ``shaped`` says whether a unit-latency FIFO
#: network must grant the instance its fast path.
SAMPLES: dict[str, list[tuple[bool, object]]] = {
    "repro.sim.network.FifoDelivery": [
        (True, lambda: FifoDelivery()),
        (True, lambda: FifoDelivery(3)),
    ],
    # A hold predicate may read anything, so a SelectiveHold declares no
    # shape whatever its base: it is asked message by message.
    "repro.sim.network.SelectiveHold": [
        (False, lambda: SelectiveHold(_hold_s1_replies)),
        (False, lambda: SelectiveHold(lambda m: m.round_no == 2,
                                      SelectiveHold(_hold_s1_replies))),
        (False, lambda: SelectiveHold(_hold_s1_replies, FifoDelivery(2))),
    ],
    "repro.faults.schedules.WithholdFrom": [
        (False, lambda: WithholdFrom([object_id(1)])),
        (False, lambda: WithholdFrom([object_id(1), object_id(3)], clients=[reader_id(2)])),
    ],
    "repro.explore.controlled.ControlledDelivery": [
        (True, lambda: ControlledDelivery()),
        (True, lambda: ControlledDelivery([HoldLink(1, 2), HoldLink(3, 4)])),
        (True, lambda: ControlledDelivery([HoldLink(2, 1, 2)], granularity="round")),
        # Digesting a faulted object's replies keeps the verdict a function
        # of the message alone.
        (True, lambda: ControlledDelivery(
            [HoldLink(1, 3)], faulted=[object_id(3), object_id(4)])),
        (True, lambda: ControlledDelivery(
            [HoldLink(1, 1, 1), HoldLink(3, 4, 2)], granularity="round")),
    ],
    # Overrides ``delay`` (a hold that starts at tick 50) below the class
    # that declared the shape: the declaration must be withdrawn.
    "benchmarks.bench_ablations._InversionSchedule": [
        (False, lambda: CLASSES["benchmarks.bench_ablations._InversionSchedule"]()),
    ],
}


def test_every_policy_class_has_samples():
    assert set(SAMPLES) == set(CLASSES), (
        "give every DeliveryPolicy subclass under src/, benchmarks/ and "
        "examples/ its configurations in SAMPLES (and only those)"
    )
    for name, samples in SAMPLES.items():
        assert all(type(make()) is CLASSES[name] for _shaped, make in samples), name


@pytest.mark.parametrize(
    "name,shaped,make",
    [(name, shaped, make) for name in sorted(SAMPLES) for shaped, make in SAMPLES[name]],
    ids=lambda value: value if isinstance(value, str) else None,
)
def test_declared_shape_agrees_with_delay(name, shaped, make):
    shape = Network(EventQueue(), policy=make()).fast_shape()
    assert (shape is not None) == shaped
    if shape is None:
        return  # nothing promised: the network asks ``delay`` message by message
    latency, _ = shape
    asked_by_delay, asked_by_check = make(), make()
    hold_check = asked_by_check.hold_check
    for message in MESSAGES:
        held = False if hold_check is None else bool(hold_check(message))
        # ``delay(message, now)`` is the constant or ``None``, whatever ``now``.
        delays = {asked_by_delay.delay(message, now) for now in TICKS}
        assert delays == ({None} if held else {latency}), (name, str(message), delays)
    if hold_check is not None:
        # The verdict depends on the message alone: not on what was asked before.
        backwards = make().hold_check
        assert [bool(hold_check(m)) for m in MESSAGES] == [
            bool(backwards(m)) for m in reversed(MESSAGES)
        ][::-1]

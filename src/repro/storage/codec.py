"""Deterministic byte codec for durable protocol state.

The durability seam persists protocol state *values* (timestamps, tagged
values, voucher maps) as bytes.  The encoding must be a pure function of
the value — byte-identical across engines, across serial and parallel
trial execution, and across interpreter runs — because the space meter
reports retained *bytes* and the equivalence contract pins those numbers.

The format is type-tagged JSON.  Scalars (``str``/``int``/``float``/
``bool``/``None``) pass through; every container and model type is a
single-key object whose key names the type:

========  =======================================================
tag       payload
========  =======================================================
``"m"``   dict → list of ``[key, value]`` pairs in insertion order
``"l"``   list
``"u"``   tuple
``"s"``   set → elements sorted by their encoded form
``"ts"``  :class:`~repro.types.Timestamp` → ``[seq, writer]``
``"tv"``  :class:`~repro.types.TaggedValue` → ``[ts, value]``
``"pid"`` :class:`~repro.types.ProcessId` → ``[role_value, index]``
========  =======================================================

Dict insertion order is preserved (not sorted): handlers build their
state dicts deterministically, and preserving order means a decoded
state iterates exactly like the original — no protocol can tell it went
through a crash.  Set elements, which genuinely have no order, are
sorted by their serialized form.
"""

from __future__ import annotations

import json
from typing import Any

from repro.types import ProcessId, TaggedValue, Timestamp


# One encoder for the life of the process: ``json.dumps`` with non-default
# separators builds a fresh ``JSONEncoder`` per call, and the write-ahead diff
# encodes every state key after every delivered message.
_ENCODE = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


def _pack(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    # The model types before the containers: they are what protocol state is
    # made of, and no container branch could claim them.
    if isinstance(value, TaggedValue):
        return {"tv": [_pack(value.ts), _pack(value.value)]}
    if isinstance(value, Timestamp):
        return {"ts": [value.seq, value.writer]}
    if isinstance(value, dict):
        return {"m": [[_pack(key), _pack(item)] for key, item in value.items()]}
    if isinstance(value, list):
        return {"l": [_pack(item) for item in value]}
    if isinstance(value, tuple):
        return {"u": [_pack(item) for item in value]}
    if isinstance(value, (set, frozenset)):
        packed = [_pack(item) for item in value]
        packed.sort(key=lambda item: json.dumps(item, ensure_ascii=False))
        return {"s": packed}
    if isinstance(value, ProcessId):
        return {"pid": [value.role_value, value.index]}
    raise TypeError(f"cannot encode {type(value).__name__} for stable storage")


def _unpack(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        (tag, payload), = value.items()
        if tag == "tv":
            return TaggedValue(_unpack(payload[0]), _unpack(payload[1]))
        if tag == "ts":
            return Timestamp(payload[0], payload[1])
        if tag == "m":
            return {_unpack(key): _unpack(item) for key, item in payload}
        if tag == "l":
            return [_unpack(item) for item in payload]
        if tag == "u":
            return tuple(_unpack(item) for item in payload)
        if tag == "s":
            return {_unpack(item) for item in payload}
        if tag == "pid":
            return ProcessId(payload[0], payload[1])
        raise ValueError(f"unknown storage codec tag {tag!r}")
    raise ValueError(f"cannot decode {type(value).__name__} from stable storage")


def pack_value(value: Any) -> Any:
    """Type-tagged JSON-able form of one value (the codec's wire shape).

    Public seam for consumers that want the codec's deterministic,
    round-trippable rendering inside a larger JSON document rather than
    standalone bytes — e.g. ``--trace`` dump payloads.  Raises
    :class:`TypeError` on unencodable types, like :func:`encode_state`.
    """
    return _pack(value)


def unpack_value(value: Any) -> Any:
    """Inverse of :func:`pack_value`."""
    return _unpack(value)


def encode_state(value: Any) -> bytes:
    """Serialize one protocol state value to deterministic bytes."""
    return _ENCODE(_pack(value)).encode("utf-8")


def decode_state(data: bytes) -> Any:
    """Inverse of :func:`encode_state`."""
    return _unpack(json.loads(data.decode("utf-8")))


def count_timestamps(value: Any) -> set[Timestamp]:
    """Collect the distinct :class:`Timestamp` leaves inside ``value``.

    The space meter reports *timestamps retained* per object — the unit the
    space-bounds literature counts — so this walks a decoded state and
    gathers every timestamp, including those inside tagged values.
    """
    found: set[Timestamp] = set()
    _walk_timestamps(value, found)
    return found


def _walk_timestamps(value: Any, found: set[Timestamp]) -> None:
    if isinstance(value, Timestamp):
        found.add(value)
    elif isinstance(value, TaggedValue):
        found.add(value.ts)
        _walk_timestamps(value.value, found)
    elif isinstance(value, dict):
        for key, item in value.items():
            _walk_timestamps(key, found)
            _walk_timestamps(item, found)
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            _walk_timestamps(item, found)

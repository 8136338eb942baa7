"""The durability seam: wrap any object handler with write-ahead persistence.

:class:`DurableObjectHandler` decorates an existing
:class:`~repro.sim.process.ObjectHandler` — ABD, fast-regular, the
multiplexed sharded handler, all of them, through the one handler surface —
so that every state key the handler may have touched is persisted through
a :class:`~repro.storage.stable.StableStorage` *before* the reply payload
is returned (write-ahead: no object ever acknowledges an update it has not
handed to stable storage).

:class:`StorageRuntime` is the per-system factory: one store per object,
plus the temporary directory backing ``durability="dir"`` (removed by
:meth:`StorageRuntime.close`, which whoever built the system calls).
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Any, Mapping

from repro.errors import ConfigurationError
from repro.sim.network import Message
from repro.sim.process import ObjectHandler
from repro.storage.codec import decode_state, encode_state
from repro.storage.stable import DirStorage, MemJournal, RecoveredImage, StableStorage
from repro.types import ProcessId

#: The durability axis, orthogonal to the backend.
DURABILITIES: tuple[str, ...] = ("none", "mem", "dir")


def resolve_durability(name: str) -> str:
    """Validate a durability name; unknown names raise ``ConfigurationError``."""
    if name not in DURABILITIES:
        known = ", ".join(DURABILITIES)
        raise ConfigurationError(f"unknown durability {name!r}; known: {known}")
    return name


class DurableObjectHandler(ObjectHandler):
    """Write-ahead persistence around an inner protocol handler."""

    def __init__(self, inner: ObjectHandler, store: StableStorage) -> None:
        self.inner = inner
        self.store = store

    def initial_state(self) -> dict[str, Any]:
        return self.inner.initial_state()

    def handle(self, state: dict[str, Any], message: Message) -> Mapping[str, Any]:
        reply = self.inner.handle(state, message)
        store = self.store
        if not store.frozen:
            dirty = False
            for key, value in state.items():
                encoded = encode_state(value)
                if store.get(key) != encoded:
                    store.put(key, encoded)
                    dirty = True
            if dirty:
                store.sync()
        return reply

    def recovered_state(self) -> tuple[dict[str, Any], RecoveredImage]:
        """Replay the durable journal into a full protocol state.

        Keys absent from the journal (nothing durable survived for them)
        fall back to the handler's initial state — a machine restarting
        from an empty disk is indistinguishable from a fresh one.
        """
        image = self.store.recover()
        state = self.inner.initial_state()
        for key, data in image.state.items():
            state[key] = decode_state(data)
        return state, image


class StorageRuntime:
    """Per-system durability context: one stable store per object."""

    def __init__(self, durability: str) -> None:
        if durability not in ("mem", "dir"):
            raise ConfigurationError(
                f"StorageRuntime requires durability 'mem' or 'dir', got {durability!r}"
            )
        self.durability = durability
        self.stores: dict[str, StableStorage] = {}
        self._tmp: tempfile.TemporaryDirectory[str] | None = None
        if durability == "dir":
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-storage-")

    @classmethod
    def create(cls, durability: str) -> "StorageRuntime | None":
        """Build a runtime for the axis value; ``None`` for ``"none"``."""
        if resolve_durability(durability) == "none":
            return None
        return cls(durability)

    def wrap(self, pid: ProcessId, handler: ObjectHandler) -> DurableObjectHandler:
        """Give ``handler`` a fresh store keyed by the object's identity."""
        name = str(pid)
        if name in self.stores:
            raise ConfigurationError(f"object {name} already has a stable store")
        if self._tmp is not None:
            store: StableStorage = DirStorage(Path(self._tmp.name) / f"{name}.log")
        else:
            store = MemJournal()
        self.stores[name] = store
        return DurableObjectHandler(handler, store)

    def close(self) -> None:
        for store in self.stores.values():
            store.close()
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

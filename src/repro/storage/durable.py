"""The durability seam: wrap any object handler with write-ahead persistence.

:class:`DurableObjectHandler` decorates an existing
:class:`~repro.sim.process.ObjectHandler` — ABD, fast-regular, the
multiplexed sharded handler, all of them, through the one handler surface —
so that every state key the handler may have touched is persisted through
a :class:`~repro.storage.stable.StableStorage` *before* the reply payload
is returned (write-ahead: no object ever acknowledges an update it has not
handed to stable storage).

:class:`StorageRuntime` is the per-system factory: one store per object.
At ``durability="dir"`` it reserves a private directory *name*; the first
store that appends a record creates the directory and its own log file, so
a system that is built but never run (a validation probe) touches no disk.
:meth:`StorageRuntime.close`, which whoever built the system calls, removes
exactly the files and the directory that came into being.
"""

from __future__ import annotations

import os
from contextlib import suppress
from pathlib import Path
from typing import Any, Mapping

from repro.errors import ConfigurationError
from repro.sim.network import Message
from repro.sim.process import ObjectHandler
from repro.storage.codec import decode_state, encode_state
from repro.storage.stable import DirStorage, MemJournal, RecoveredImage, StableStorage
from repro.types import ProcessId, TaggedValue, Timestamp

#: The durability axis, orthogonal to the backend.
DURABILITIES: tuple[str, ...] = ("none", "mem", "dir")


def resolve_durability(name: str) -> str:
    """Validate a durability name; unknown names raise ``ConfigurationError``."""
    if name not in DURABILITIES:
        known = ", ".join(DURABILITIES)
        raise ConfigurationError(f"unknown durability {name!r}; known: {known}")
    return name


#: Leaves nothing can change after construction; a value made only of them
#: (directly, or as a tagged value's payload) always encodes to the same bytes.
_FROZEN = frozenset({type(None), bool, int, float, str, Timestamp, ProcessId})


def _is_frozen(value: Any) -> bool:
    kind = type(value)
    return kind in _FROZEN or (kind is TaggedValue and type(value.value) in _FROZEN)


class DurableObjectHandler(ObjectHandler):
    """Write-ahead persistence around an inner protocol handler."""

    def __init__(self, inner: ObjectHandler, store: StableStorage) -> None:
        self.inner = inner
        self.store = store
        # id(value) -> (value, its bytes), frozen values only: the same
        # object is never encoded twice.  A runtime shares one map between
        # its handlers, since a write hands every object the same value.
        self._encoded: dict[int, tuple[Any, bytes]] = {}

    def initial_state(self) -> dict[str, Any]:
        return self.inner.initial_state()

    def handle(self, state: dict[str, Any], message: Message) -> Mapping[str, Any]:
        reply = self.inner.handle(state, message)
        store = self.store
        if not store.frozen:
            dirty = False
            remembered = self._encoded
            for key, value in state.items():
                known = remembered.get(id(value))
                if known is not None and known[0] is value:
                    encoded = known[1]
                else:
                    encoded = encode_state(value)
                    if _is_frozen(value):
                        remembered[id(value)] = (value, encoded)
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
        self._encoded: dict[int, tuple[Any, bytes]] = {}
        self._root: Path | None = None
        if durability == "dir":
            import tempfile

            # A name nobody else will pick (64 random bits), not a directory yet.
            self._root = Path(tempfile.gettempdir(), f"repro-storage-{os.urandom(8).hex()}")

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
        if self._root is not None:
            store: StableStorage = DirStorage(self._root / f"{name}.log")
        else:
            store = MemJournal()
        self.stores[name] = store
        wrapped = DurableObjectHandler(handler, store)
        wrapped._encoded = self._encoded
        return wrapped

    def close(self) -> None:
        for store in self.stores.values():
            store.close()
        if self._root is not None:
            # A log exists iff its store ever opened a handle, the directory
            # iff some log does; tolerating "already gone" keeps a second
            # close harmless.
            logs = [s.path for s in self.stores.values() if s._fh is not None]
            for log in logs:
                log.unlink(missing_ok=True)
            if logs:
                with suppress(FileNotFoundError):
                    self._root.rmdir()

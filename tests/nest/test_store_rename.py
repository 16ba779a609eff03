"""A rename is a metadata call on every backend: ``StorageManager.rename``
opens no store stream, whether it renames one file, a directory, or a
COLD file on a tiered store -- which stays COLD, live and after a
journal-only restart."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.durability import DurabilityManager
from repro.nest.backends import LocalFSStore, MemoryStore
from repro.nest.storage import StorageManager
from repro.obs.metrics import MetricsRegistry
from repro.tier.store import COLD, TieredStore

PAYLOAD = b"cold bytes " * 100


class CountingStore:
    """Forwards to ``inner``, counting every stream it opens."""

    def __init__(self, inner):
        self.inner = inner
        self.opened: Counter[str] = Counter()

    def _open(self, kind: str, path: str):
        self.opened[kind] += 1
        return getattr(self.inner, kind)(path)

    def open_read(self, path):
        return self._open("open_read", path)

    def open_write(self, path):
        return self._open("open_write", path)

    def open_update(self, path):
        return self._open("open_update", path)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def put(storage, path, data):
    ticket = storage.approve_put("anonymous", path, len(data))
    ticket.stream.write(data)
    ticket.settle(len(data))


def get(storage, path) -> bytes:
    ticket = storage.approve_get("anonymous", path)
    try:
        return ticket.stream.read(ticket.size)
    finally:
        ticket.settle(ticket.size)


@pytest.fixture(params=["memory", "localfs"])
def counted(request, tmp_path):
    inner = (MemoryStore() if request.param == "memory"
             else LocalFSStore(str(tmp_path / "root")))
    store = CountingStore(inner)
    storage = StorageManager(store=store)
    storage.mkdir("anonymous", "/d")
    return store, storage


def test_a_file_rename_opens_no_stream(counted):
    store, storage = counted
    put(storage, "/d/a", b"hello")
    store.opened.clear()
    storage.rename("anonymous", "/d/a", "/d/b")
    assert store.opened == Counter()
    assert not store.exists("/d/a")
    assert get(storage, "/d/b") == b"hello"


def test_a_directory_rename_opens_no_stream(counted):
    store, storage = counted
    storage.mkdir("anonymous", "/d/src")
    files = {f"/f{i}": bytes([65 + i]) * (i + 1) for i in range(3)}
    for name, data in files.items():
        put(storage, f"/d/src{name}", data)
    store.opened.clear()
    storage.rename("anonymous", "/d/src", "/d/dst")
    assert store.opened == Counter()
    for name, data in files.items():
        assert not store.exists(f"/d/src{name}")
        assert get(storage, f"/d/dst{name}") == data


def tiered_stack(state_dir, fast, cold, registry=None):
    tiered = TieredStore(fast, cold, registry=registry)
    storage = StorageManager(store=tiered)
    manager = DurabilityManager(str(state_dir), fsync=False)
    manager.recover_into(storage, tier=tiered)
    return storage, tiered, manager


def test_a_cold_file_renames_cold_live_and_after_restart(tmp_path):
    fast = CountingStore(MemoryStore())
    cold = CountingStore(MemoryStore())
    registry = MetricsRegistry()
    storage, tiered, manager = tiered_stack(tmp_path, fast, cold, registry)
    storage.mkdir("anonymous", "/d")
    put(storage, "/d/a", PAYLOAD)
    tiered.migrate("/d/a")
    cold_used = registry.get("tier_cold_used_bytes")
    before = cold_used.value()
    fast.opened.clear()
    cold.opened.clear()

    storage.rename("anonymous", "/d/a", "/d/b")
    assert fast.opened == Counter() and cold.opened == Counter()
    assert tiered.state_of("/d/b") == COLD
    assert tiered.residency == {"/d/b": COLD}
    assert cold_used.value() == before == len(PAYLOAD)
    assert cold.exists("/d/b") and not fast.exists("/d/b")
    assert not cold.exists("/d/a")

    manager.journal.close()  # crash: journal only, no final snapshot
    storage, tiered, manager = tiered_stack(tmp_path, fast, cold)
    assert tiered.state_of("/d/b") == COLD
    assert get(storage, "/d/b") == PAYLOAD
    manager.close(snapshot=False)


class RenameCrashingStore(MemoryStore):
    """A cold tier the process dies in while renaming: armed, every
    rename raises, as if the crash came before the bytes moved."""

    crashed = False

    def rename(self, path, new_path):
        if self.crashed:
            raise OSError("crashed mid-rename")
        super().rename(path, new_path)


def test_a_cold_rename_cut_before_its_bytes_move_finishes_cold(tmp_path):
    """Every record of the rename is durable (the storage rename, the
    residency move), but the cold bytes still sit under the old name:
    replay renames them and the file comes back COLD."""
    fast, cold = MemoryStore(), RenameCrashingStore()
    storage, tiered, manager = tiered_stack(tmp_path, fast, cold)
    storage.mkdir("anonymous", "/d")
    put(storage, "/d/a", PAYLOAD)
    tiered.migrate("/d/a")
    cold.crashed = True
    with pytest.raises(OSError):
        storage.rename("anonymous", "/d/a", "/d/b")
    manager.close(snapshot=False)

    cold.crashed = False
    storage, tiered, manager = tiered_stack(tmp_path, fast, cold)
    assert tiered.residency == {"/d/b": COLD}
    assert cold.exists("/d/b") and not cold.exists("/d/a")
    assert not fast.exists("/d/b")
    assert get(storage, "/d/b") == PAYLOAD
    manager.close(snapshot=False)

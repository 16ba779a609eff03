"""Counted work, pinned exactly.

Timing on a shared host decides little; counts are exact and
host-independent.  ``work_budget.json`` holds the kernel's counters
(``events_processed``, ``direct_resumes``, ``events_scheduled``) for
the golden mixed run and the three golden stride runs of
``tests/sim/test_determinism.py``.  A change that moves one of them
updates the file and says why.

The simulated GET is counted too: it asks the storage manager for a
read check, and opens no store stream and counts no storage op.

So is the journal: ``journal per verb`` holds the records and the
journal fsyncs each verb costs on a durable, lot-charged appliance,
one verb after another over the request path (``execute``, and a
ticket's settle for a PUT).
"""

import json
import os

import pytest

from repro.durability import DurabilityManager
from repro.models.platform import LINUX
from repro.nest.backends import MemoryStore
from repro.nest.config import NestConfig
from repro.nest.storage import StorageError, StorageManager
from repro.obs.metrics import MetricsRegistry
from repro.perf.workloads import TRACE_PROTOCOLS, traced_mixed_workload
from repro.protocols.common import Request, RequestType, Status
from repro.sim.core import Environment
from repro.simnest.server import SimNest, SimRequestError

BUDGET_PATH = os.path.join(os.path.dirname(__file__), "work_budget.json")
with open(BUDGET_PATH, encoding="utf-8") as _fh:
    BUDGET = json.load(_fh)

#: The budget's key for the per-verb journal counts; every other key
#: names a golden run.
JOURNAL = "journal per verb"


def _run(label: str) -> Environment:
    """The golden run a budget label names: ``mixed fcfs 0.6s`` or
    ``stride a:b:c:d 4.0s``."""
    kind, policy, horizon = label.split()
    config = None
    if kind == "stride":
        ratios = [float(r) for r in policy.split(":")]
        config = NestConfig(scheduling="stride",
                            shares=dict(zip(TRACE_PROTOCOLS, ratios)))
    _result, server = traced_mixed_workload(
        horizon=float(horizon.rstrip("s")), config=config,
        return_server=True)
    return server.env


@pytest.mark.parametrize("label", sorted(set(BUDGET) - {JOURNAL}))
def test_golden_run_does_its_budgeted_work(label):
    env = _run(label)
    got = {name: getattr(env, name) for name in BUDGET[label]}
    assert got == BUDGET[label]


class _CountingStore:
    """Wraps a data store, counting the read streams it opens."""

    def __init__(self, store):
        self._store = store
        self.reads = 0

    def open_read(self, path):
        self.reads += 1
        return self._store.open_read(path)

    def __getattr__(self, name):
        return getattr(self._store, name)


def _server(env):
    server = SimNest(env, LINUX, NestConfig(scheduling="fcfs"))
    registry = MetricsRegistry()
    store = _CountingStore(MemoryStore())
    server.storage = StorageManager(store=store, capacity_bytes=1 << 30,
                                    clock=lambda: env.now,
                                    registry=registry)
    server.populate("/d/f", 100_000)
    server.storage.mkdir("admin", "/priv")
    server.populate("/priv/f", 1_000)
    server.storage.acl_set("admin", "/priv", "*", "l")
    return server, registry, store


def _get(env, server, path):
    def client():
        conn = yield from server.connect("chirp")
        return (yield from server.serve_get(conn, path))

    proc = env.process(client())
    env.run()
    return proc.value


def _ops(registry):
    return registry.snapshot().get("nest_storage_ops_total", {})


def test_a_simulated_get_opens_no_stream_and_counts_no_op():
    with Environment() as env:
        server, registry, store = _server(env)
        before = dict(_ops(registry))
        nbytes, _latency = _get(env, server, "/d/f")
        assert nbytes == 100_000
        assert store.reads == 0
        assert _ops(registry) == before
        # The live verb on the same manager does both.
        server.storage.approve_get("anonymous", "/d/f").stream.close()
        assert store.reads == 1
        assert _ops(registry) != before


@pytest.mark.parametrize("path,status", [
    ("/d/missing", Status.NOT_FOUND),
    ("/d", Status.IS_DIR),
    ("/priv/f", Status.DENIED),
])
def test_a_simulated_get_refuses_as_approve_get_does(path, status):
    with Environment() as env:
        server, _registry, _store = _server(env)
        with pytest.raises(StorageError) as live:
            server.storage.approve_get("anonymous", path)
        assert live.value.status is status
        with pytest.raises(SimRequestError) as simulated:
            _get(env, server, path)
        assert simulated.value.status is status


def _execute(storage, rtype, path="", user="admin", **params):
    response = storage.execute(Request(rtype, path, user=user,
                                       params=params))
    assert response.status is Status.OK, response.message


def _put(storage, path, nbytes, abort=False):
    ticket = storage.approve_put("admin", path, nbytes)
    ticket.stream.write(b"p" * nbytes)
    if abort:
        ticket.aborted = True
    ticket.settle(nbytes)


def test_each_verb_journals_its_budgeted_records_and_fsyncs(tmp_path):
    """admin's 800-byte lot on a 1,000-byte store takes a file through
    create, grow, shrink, rename and an aborted overwrite; a second
    file is deleted; then the lot expires and bob's 900-byte lot
    reclaims the first file."""
    now = [1000.0]
    storage = StorageManager(store=MemoryStore(), capacity_bytes=1000,
                             clock=lambda: now[0], require_lots=True)
    manager = DurabilityManager(str(tmp_path), snapshot_every=0)
    manager.recover_into(storage)
    journal = manager.journal

    def expire():
        now[0] += 20.0

    verbs = [
        ("create_lot", lambda: _execute(
            storage, RequestType.LOT_CREATE, capacity=800, duration=10)),
        ("mkdir", lambda: _execute(storage, RequestType.MKDIR, "/a")),
        ("new PUT", lambda: _put(storage, "/a/x", 600)),
        ("growing PUT", lambda: _put(storage, "/a/x", 700)),
        ("shrinking PUT", lambda: _put(storage, "/a/x", 650)),
        ("aborted PUT", lambda: _put(storage, "/a/x", 700, abort=True)),
        ("rename", lambda: _execute(storage, RequestType.RENAME, "/a/x",
                                    new_path="/a/y")),
        (None, lambda: _put(storage, "/a/z", 10)),
        ("delete", lambda: _execute(storage, RequestType.DELETE, "/a/z")),
        (None, expire),
        ("create_lot reclaiming a file", lambda: _execute(
            storage, RequestType.LOT_CREATE, user="bob", capacity=900,
            duration=10)),
    ]
    got = {}
    for name, verb in verbs:
        records, fsyncs = journal.records_appended, journal.fsync_count
        verb()
        if name is not None:
            got[name] = {"records": journal.records_appended - records,
                         "fsyncs": journal.fsync_count - fsyncs}
    assert not storage.exists("/a/y")
    manager.close(snapshot=False)
    assert got == BUDGET[JOURNAL]

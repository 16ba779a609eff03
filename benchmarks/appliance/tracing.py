"""Outside-in span recording for the traced run.

Nothing under ``src/`` knows about this module.  The launcher (and,
for the client layer, the load generator itself) calls
:func:`install_server` / :func:`install_client` *before* any server or
client object exists; each named public function is replaced by a
wrapper that, while the recorder is enabled, appends one row per call
to a per-thread ``array('q')``:

    name id, start ns, end ns, thread-CPU ns (-1: not sampled),
    parent row (-1: none), key, value

``parent`` comes from a per-thread stack, so the rows of one thread
form trees.  Rows stay in memory until :meth:`Recorder.dump` writes
them; :func:`aggregate` then turns a dump into per-name totals where a
span's *self* time is its duration minus what its children cover, and
*wait* is wall minus thread CPU.

``key``/``value`` carry the little bit of identity the cross-thread
metrics need: a transfer's ``id()`` links ``submit`` (handler thread)
to its first ``pump_chunk`` (worker thread), and byte counts returned
by the pump turn call counts into per-MB figures.
"""

from __future__ import annotations

import json
import threading
from array import array
from time import perf_counter_ns, thread_time_ns

ROW = 7
NAME, T0, T1, CPU, PARENT, KEY, VALUE = range(ROW)

#: per-thread row cap (64 MiB of int64 per thread at most); calls past
#: it run unrecorded and are counted in ``dropped``.
MAX_ROWS = 1_200_000

#: Layer of a span name = the first prefix here that matches.  These
#: are the ``src/repro`` module names the README's layer table uses.
LAYERS = ("protocols", "nest.auth", "nest.acl", "nest.lots", "nest.storage",
          "durability", "nest.backends", "nest.scheduling", "nest.transfer",
          "nest.io", "obs", "nest.handlers", "nest.server", "client")


def layer_of(name: str) -> str:
    for layer in LAYERS:
        if name == layer or name.startswith(layer + "."):
            return layer
    raise ValueError(f"span name {name!r} belongs to no layer")


#: root span of one served request, and the two spans that block on
#: the client's *next* request before any server work starts.
REQUEST = "nest.handlers.request"
READERS = ("protocols.read_line", "protocols.http.read_request")


class _ThreadBuffer:
    __slots__ = ("rows", "stack")

    def __init__(self) -> None:
        self.rows = array("q")
        self.stack: list[int] = []


class Recorder:
    """Holds every thread's rows for one traced window."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.enabled = False
        self.dropped = 0
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._lock = threading.Lock()

    def _buffer(self) -> _ThreadBuffer:
        try:
            return self._local.buffer
        except AttributeError:
            buffer = self._local.buffer = _ThreadBuffer()
            with self._lock:
                self._buffers.append(buffer)
            return buffer

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, *, cpu: bool = False,
             key=None, value=None):
        """``fn`` recording one row per call while enabled.

        ``cpu`` samples the thread CPU clock too (a real syscall: only
        for calls that can block).  ``key(args)`` is evaluated before
        the call, ``value(args, result)`` after a successful one.
        """
        nid = self._name_id(name)
        recorder = self
        limit = MAX_ROWS * ROW

        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            buffer = recorder._buffer()
            rows = buffer.rows
            base = len(rows)
            if base >= limit:
                recorder.dropped += 1
                return fn(*args, **kwargs)
            stack = buffer.stack
            rows.extend((nid, 0, 0, -1, stack[-1] if stack else -1,
                         key(args) if key else 0, 0))
            stack.append(base)
            c0 = thread_time_ns() if cpu else 0
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if value:
                    rows[base + VALUE] = value(args, result)
                return result
            finally:
                rows[base + T1] = perf_counter_ns()
                rows[base + T0] = t0
                if cpu:
                    rows[base + CPU] = thread_time_ns() - c0
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def finish(self) -> tuple[list[str], list[array], int]:
        """Stop recording; returns (names, per-thread rows, dropped)."""
        self.enabled = False
        with self._lock:
            return (list(self.names), [b.rows for b in self._buffers],
                    self.dropped)

    def dump(self, path: str) -> dict:
        """Stop recording and write every row: one JSON header line,
        then each thread's array as raw int64."""
        names, threads, dropped = self.finish()
        header = {"names": names, "dropped": dropped,
                  "threads": [len(rows) for rows in threads]}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for rows in threads:
                rows.tofile(out)
        return {"spans": sum(header["threads"]) // ROW, "dropped": dropped}


def load(path: str) -> tuple[list[str], list[array], int]:
    """Read a dump back: (names, per-thread rows, dropped)."""
    with open(path, "rb") as src:
        header = json.loads(src.readline())
        threads = []
        for count in header["threads"]:
            rows = array("q")
            rows.fromfile(src, count)
            threads.append(rows)
    return header["names"], threads, header["dropped"]


# ----------------------------------------------------------------------
# installation: which public functions get a wrapper
# ----------------------------------------------------------------------
def _self_id(args):
    return id(args[0])


def _int_result(args, result):
    return result if isinstance(result, int) else 0


def _patch(recorder: Recorder, owner, attr: str, name: str, *,
           also=(), **opts) -> None:
    """Replace ``owner.attr`` and every ``from x import attr`` alias of
    it in ``also`` with one shared wrapper."""
    original = owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)
    wrapped = recorder.wrap(original, name, **opts)
    setattr(owner, attr, wrapped)
    for module in also:
        if getattr(module, attr, None) is original:
            setattr(module, attr, wrapped)


def install_server(recorder: Recorder) -> None:
    """Wrap the server-side layer boundaries (see README: layer
    table).  Must run before ``NestServer`` is constructed."""
    from repro.durability import manager as durability
    from repro.nest import (acl, auth, backends, handlers, io as fastio,
                            lots, scheduling, storage, transfer)
    from repro.obs import metrics, spans
    from repro.protocols import chirp, common, http

    p = lambda *a, **k: _patch(recorder, *a, **k)  # noqa: E731

    # nest.handlers / nest.server: request roots and connection birth
    for cls in (handlers.ChirpHandler, handlers.HttpHandler):
        p(cls, "serve_one", REQUEST, cpu=True, key=_self_id)
    p(handlers.ConnectionHandler, "__init__", "nest.server.accept",
      key=_self_id)

    # protocols: wire parse and encode as the handlers call them
    users = (handlers, http, chirp)
    p(common, "read_line", "protocols.read_line", cpu=True, also=users)
    p(common, "write_line", "protocols.write_line", cpu=True, also=users)
    p(http, "read_request", "protocols.http.read_request", cpu=True)
    p(http, "write_response_head", "protocols.http.write_response_head",
      cpu=True)
    p(chirp, "decode_request", "protocols.chirp.decode_request")
    p(chirp, "encode_response", "protocols.chirp.encode_response")
    p(chirp, "encode_stat", "protocols.chirp.encode_stat")

    p(auth.GSIContext, "accept", "nest.auth.accept")
    p(acl.AccessControl, "allows", "nest.acl.allows")

    p(lots.LotManager, "charge", "nest.lots.charge")
    for verb in ("create_lot", "renew", "delete_lot"):
        p(lots.LotManager, verb, "nest.lots.verb")

    manager = storage.StorageManager
    p(manager, "execute", "nest.storage.execute", cpu=True)
    p(manager, "stat", "nest.storage.stat", cpu=True)
    p(manager, "listdir", "nest.storage.listdir", cpu=True)
    p(manager, "approve_get", "nest.storage.approve_get", cpu=True)
    p(manager, "approve_read", "nest.storage.approve_get", cpu=True)
    p(manager, "approve_put", "nest.storage.approve_put", cpu=True)
    # a PUT ticket's settle() is a closure class; its body is this call
    p(manager, "_settle_put", "nest.storage.settle", cpu=True)
    p(storage.TransferTicket, "settle", "nest.storage.settle", cpu=True)

    p(durability.DurabilityManager, "record_async", "durability.append")
    p(durability.DurabilityManager, "wait_durable",
      "durability.wait_durable", cpu=True)

    for store in (backends.LocalFSStore, backends.MemoryStore):
        p(store, "open_read", "nest.backends.open_read", cpu=True)
        p(store, "open_write", "nest.backends.open_write", cpu=True)
    p(backends._AtomicWriter, "close", "nest.backends.commit", cpu=True)

    for cls in (scheduling.Scheduler, scheduling.FCFSScheduler,
                scheduling.StrideScheduler, scheduling.CacheAwareScheduler):
        for method in ("select", "charge"):
            if method in cls.__dict__:
                p(cls, method, f"nest.scheduling.{method}")

    p(transfer.TransferManager, "submit", "nest.transfer.submit",
      value=lambda args, result: id(result))
    p(transfer.Transfer, "pump_chunk", "nest.transfer.pump_chunk",
      cpu=True, key=_self_id, value=_int_result)
    p(transfer.Transfer, "wait", "nest.transfer.wait", cpu=True,
      key=_self_id)

    p(fastio, "sendfile", "nest.io.sendfile", value=_int_result)
    p(fastio, "copy_stream", "nest.io.copy_stream", cpu=True,
      value=lambda args, result: result[0])
    p(fastio, "stream_crc32", "nest.io.stream_crc32", cpu=True)

    for method in ("child", "child_at", "end"):
        p(spans.Span, method, f"obs.span.{method}")
    for method in ("start_trace", "adopt", "span"):
        p(spans.Tracer, method, f"obs.span.{method}")
    p(spans.SpanRecorder, "record", "obs.span.record")
    p(metrics.Counter, "inc", "obs.metric.update")
    p(metrics.Histogram, "observe", "obs.metric.update")
    p(metrics.Gauge, "set", "obs.metric.update")


def install_client(recorder: Recorder) -> None:
    """Wrap the client library's wire encode/decode (load-generator
    process, traced segment only)."""
    from repro.protocols import chirp, http

    for attr in ("encode_request", "decode_response", "decode_stat"):
        _patch(recorder, chirp, attr, f"client.chirp.{attr}", cpu=True)
    for attr in ("write_request", "read_response_head"):
        _patch(recorder, http, attr, f"client.http.{attr}", cpu=True)


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
class Totals:
    """Per-name sums over one dump (times in ns)."""

    __slots__ = ("calls", "wall", "cpu", "self_time", "request_self",
                 "value")

    def __init__(self) -> None:
        self.calls = 0
        self.wall = 0
        self.cpu = 0          #: over calls that sampled the CPU clock
        self.self_time = 0    #: wall minus child-covered time
        self.request_self = 0  #: the part of self_time under a request
        self.value = 0


class Aggregate:
    """What :func:`aggregate` returns."""

    def __init__(self) -> None:
        self.totals: dict[str, Totals] = {}
        self.requests = 0
        #: sum over request roots of (duration - wait for the request)
        self.request_wall = 0
        self.dropped = 0
        self.spans = 0
        #: per layer: wall minus thread CPU of the calls that entered
        #: the layer from outside it (lock, journal and socket waits)
        self.layer_wait: dict[str, int] = {}
        #: ns from ``submit`` entry to the transfer's first pump_chunk
        self.submit_to_first_chunk: list[int] = []
        #: ns from handler construction to the end of its first request
        self.accept_to_first_reply: list[int] = []

    def get(self, name: str) -> Totals:
        return self.totals.get(name) or Totals()


def aggregate(names: list[str], threads: list[array],
              dropped: int = 0) -> Aggregate:
    """Fold raw rows into per-name totals.

    Rows still open when the dump was taken (``T1 == 0``: a handler
    parked in ``read_line``) are skipped; their children count as
    roots.  For every request root, the wait of its first child -- the
    blocking read of the *next* request line -- is idle time between
    requests: it is taken out of that child's self time and out of the
    request's wall time, so that what remains of the tree sums to the
    time the server spent on the request.
    """
    out = Aggregate()
    out.dropped = dropped
    totals = [Totals() for _ in names]
    layers = [layer_of(name) for name in names]
    def name_id(name):
        return names.index(name) if name in names else -1

    request_id = name_id(REQUEST)
    reader_ids = {name_id(n) for n in READERS} - {-1}
    submit_id = name_id("nest.transfer.submit")
    pump_id = name_id("nest.transfer.pump_chunk")
    accept_id = name_id("nest.server.accept")
    # ``id()`` values are reused once an object dies, so a start is
    # matched with the earliest later event carrying the same key.
    submits: list[tuple[int, int]] = []      # (transfer id, start)
    pumps: dict[int, list[int]] = {}         # transfer id -> pump starts
    accepts: list[tuple[int, int]] = []      # (handler id, start)
    replies: dict[int, list[int]] = {}       # handler id -> request ends

    for rows in threads:
        count = len(rows) // ROW
        out.spans += count
        covered = [0] * count
        under_request = [False] * count
        has_child = [False] * count
        for i in range(count):
            base = i * ROW
            t1 = rows[base + T1]
            if not t1:
                continue
            nid = rows[base + NAME]
            t0 = rows[base + T0]
            duration = t1 - t0
            parent = rows[base + PARENT]
            idle = 0
            if parent >= 0 and rows[parent + T1]:
                pi = parent // ROW
                covered[pi] += duration
                under_request[i] = (under_request[pi]
                                    or rows[parent + NAME] == request_id)
                if (not has_child[pi] and nid in reader_ids
                        and rows[parent + NAME] == request_id):
                    idle = max(0, duration - max(rows[base + CPU], 0))
                    out.request_wall -= idle
                has_child[pi] = True
            total = totals[nid]
            total.calls += 1
            total.wall += duration
            if rows[base + CPU] >= 0:
                total.cpu += rows[base + CPU]
                layer = layers[nid]
                if parent < 0 or layers[rows[parent + NAME]] != layer:
                    out.layer_wait[layer] = (
                        out.layer_wait.get(layer, 0)
                        + max(0, duration - rows[base + CPU]) - idle)
            total.value += rows[base + VALUE]
            # children close before their parent, but their rows come
            # after it: finish self time in the second pass below.
            total.self_time -= idle
            if under_request[i]:
                total.request_self -= idle
            if nid == request_id:
                out.requests += 1
                out.request_wall += duration
                replies.setdefault(rows[base + KEY], []).append(t1)
            elif nid == submit_id:
                submits.append((rows[base + VALUE], t0))
            elif nid == pump_id:
                pumps.setdefault(rows[base + KEY], []).append(t0)
            elif nid == accept_id:
                accepts.append((rows[base + KEY], t0))
        for i in range(count):
            base = i * ROW
            if not rows[base + T1]:
                continue
            own = rows[base + T1] - rows[base + T0] - covered[i]
            total = totals[rows[base + NAME]]
            total.self_time += own
            if under_request[i] or rows[base + NAME] == request_id:
                total.request_self += own

    def first_after(starts, events, sink):
        for key, started in starts:
            later = [t for t in events.get(key, ()) if t >= started]
            if later:
                sink.append(min(later) - started)

    first_after(submits, pumps, out.submit_to_first_chunk)
    first_after(accepts, replies, out.accept_to_first_reply)
    out.totals = dict(zip(names, totals))
    return out

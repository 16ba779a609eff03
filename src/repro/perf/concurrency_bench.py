"""Live concurrency benchmark: how many connections one NeST holds.

The paper's Fig. 5 point made concrete on real sockets: ramp up N
concurrent localhost Chirp connections against (a) the classic
thread-per-connection server and (b) the event-driven server, issue a
``stat`` round-trip on every connection while *all* of them stay open,
then sweep every held connection again to prove each one is still
being served.  Each model's record captures the connection target, the
error count (the contract: zero), ramp and sweep wall-clock, and the
process's thread count at full load -- the architectural signature:
thread-per-connection needs ~one thread per held connection, the event
path holds thousands of connections on a fixed worker pool.

The thread-per-connection target is deliberately far below the event
target.  That asymmetry *is* the result -- a 5,000-thread ramp would
prove nothing except that thread stacks are expensive -- and the
baseline entry in ``BENCH_concurrency.json`` records the threaded
architecture's shape at a load it can reasonably carry.

``--smoke`` (the verify lane) keeps the same two-model shape at tiny
connection counts, asserts the counters (zero errors, the thread-count
signatures), and leaves the trajectory file alone.
"""

from __future__ import annotations

import socket
import threading
import time

from repro.perf.bench import _environment_stamp, append_record
from repro.protocols.common import tuned

HISTORY_PATH = "BENCH_concurrency.json"

#: Per-model concurrent-connection targets.
FULL_TARGETS = {"threaded": 512, "events": 5000}
SMOKE_TARGETS = {"threaded": 32, "events": 96}


def _stat_roundtrip(sock: socket.socket, buf: bytearray) -> bool:
    """One raw ``stat /`` exchange; True when the reply line is ok.

    Raw sockets on purpose: a ChirpClient per connection would be
    fine, but the bench's client side must stay so cheap that the
    measured ceiling is the *server's*.
    """
    sock.sendall(b"stat /\r\n")
    n = 0
    while True:
        got = sock.recv_into(memoryview(buf)[n:], len(buf) - n)
        if not got:
            return False
        n += got
        if buf[n - 1] == 0x0A:  # reply is exactly one LF-terminated line
            return bytes(buf[:2]) == b"ok"
        if n >= len(buf):
            return False


def run_model(model: str, connections: int) -> dict:
    """Hold ``connections`` concurrent connections against one model."""
    from repro.nest.config import NestConfig
    from repro.nest.server import NestServer

    config = NestConfig(
        name=f"bench-{model}", protocols=("chirp",),
        concurrency_server="events" if model == "events" else "threaded",
        management=False)
    socks: list[socket.socket] = []
    errors = 0
    buf = bytearray(4096)
    with NestServer(config) as server:
        host, port = server.endpoint("chirp")
        t0 = time.perf_counter()
        for _ in range(connections):
            try:
                sock = tuned(
                    socket.create_connection((host, port), timeout=10.0))
                sock.settimeout(10.0)
                if not _stat_roundtrip(sock, buf):
                    errors += 1
                socks.append(sock)
            except OSError:
                errors += 1
        ramp_seconds = time.perf_counter() - t0
        # Full load: every connection open and served at least once.
        peak_threads = threading.active_count()
        held = server.active_connections()
        t1 = time.perf_counter()
        for sock in socks:
            try:
                if not _stat_roundtrip(sock, buf):
                    errors += 1
            except OSError:
                errors += 1
        sweep_seconds = time.perf_counter() - t1
        for sock in socks:
            try:
                sock.close()
            except OSError:
                pass
    requests = 2 * len(socks)
    elapsed = ramp_seconds + sweep_seconds
    return {
        "model": model,
        "target": connections,
        "connections": len(socks),
        "held_connections": held,
        "errors": errors,
        "ramp_seconds": round(ramp_seconds, 6),
        "sweep_seconds": round(sweep_seconds, 6),
        "requests": requests,
        "requests_per_second": round(requests / elapsed, 1) if elapsed else 0.0,
        "peak_threads": peak_threads,
    }


def _check_sane(record: dict) -> None:
    """Counter/shape sanity (the smoke lane's contract): zero errors,
    every targeted connection held concurrently, and each model shows
    its architectural thread signature.  No timing thresholds."""
    threaded, events = record["threaded"], record["events"]
    for entry in (threaded, events):
        if entry["errors"]:
            raise AssertionError(
                f"{entry['model']}: {entry['errors']} request errors")
        if entry["connections"] != entry["target"]:
            raise AssertionError(
                f"{entry['model']}: opened {entry['connections']} of "
                f"{entry['target']} connections")
        if entry["held_connections"] < entry["target"]:
            raise AssertionError(
                f"{entry['model']}: held only {entry['held_connections']} "
                f"of {entry['target']} connections concurrently")
    # Thread-per-connection: at least one live thread per held conn.
    if threaded["peak_threads"] < threaded["connections"]:
        raise AssertionError(
            f"threaded path shows {threaded['peak_threads']} threads for "
            f"{threaded['connections']} connections -- not "
            "thread-per-connection?")
    # Event path: the whole point -- thread count independent of (and
    # far below) the held-connection count.
    if events["peak_threads"] >= events["connections"] / 2:
        raise AssertionError(
            f"event path used {events['peak_threads']} threads for "
            f"{events['connections']} connections -- not event-driven?")


def run(smoke: bool = False, label: str = "",
        connections: int | None = None,
        history_path: str = HISTORY_PATH,
        record_history: bool | None = None) -> dict:
    """Both models back to back; append to the trajectory unless
    smoking.  ``connections`` overrides the *event* target (the
    threaded baseline keeps its own scale)."""
    targets = dict(SMOKE_TARGETS if smoke else FULL_TARGETS)
    if connections:
        targets["events"] = connections
    record = {
        "bench": "concurrency",
        "label": label or ("smoke" if smoke else "event-core"),
        "smoke": smoke,
        "threaded": run_model("threaded", targets["threaded"]),
        "events": run_model("events", targets["events"]),
    }
    record.update(_environment_stamp())
    _check_sane(record)
    if record_history is None:
        record_history = not smoke
    if record_history:
        append_record(history_path, record)
    return record


def render(record: dict) -> str:
    lines = []
    for key in ("threaded", "events"):
        e = record[key]
        lines.append(
            f"{e['model']:<9} {e['connections']:6d} concurrent conns "
            f"({e['errors']} errors) ramp {e['ramp_seconds']:.3f}s, "
            f"sweep {e['sweep_seconds']:.3f}s, "
            f"{e['requests_per_second']:.0f} req/s, "
            f"{e['peak_threads']} threads at peak")
    t, ev = record["threaded"], record["events"]
    if t["connections"]:
        lines.append(
            f"event path held {ev['connections'] / t['connections']:.1f}x "
            f"the connections on "
            f"{ev['peak_threads'] / max(t['peak_threads'], 1):.2f}x "
            f"the threads")
    return "\n".join(lines)

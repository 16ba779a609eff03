"""Out-of-process launcher: one live ``NestServer`` per process.

Usage: ``python appliance_proc.py '<json config>'`` with ``src`` on
``PYTHONPATH``.  The config is::

    {"nest": {<NestConfig fields>},   # protocols, state_dir, ...
     "store_dir": "<dir>" | null,     # LocalFSStore root; null = memory
     "trace": false}                  # install the span wrappers

The server's ``CertificateAuthority`` is built from a fixed secret
(:data:`CA_SECRET`) so the load generator can issue credentials the
server accepts without any key exchange.

Once listening, the launcher prints one JSON line -- ``{"pid", "ports",
"recovery"}`` -- and then serves line commands on stdin, one JSON reply
line each:

* ``stats``              -- peak live threads since the last call,
  process CPU seconds;
* ``trace_start``        -- begin recording spans (traced launch only);
* ``trace_dump <path>``  -- stop recording, write the rows to ``path``;
* ``stop``               -- drain and exit 0.

SIGTERM, or stdin reaching EOF because the harness died, stop it the
same way, so no server outlives its harness.  The launcher creates no
files of its own: state and store directories belong to the harness,
which also removes them after its SIGKILLs.
"""

from __future__ import annotations

import json
import os
import select
import signal
import sys
import threading
import time

#: shared by the launcher and the load generator (not a secret: the toy
#: PKI only has to be *consistent* across the two processes).
CA_SECRET = b"benchmarks/appliance fixed CA secret"
CA_NAME = "appliance-bench CA"


def certificate_authority():
    from repro.nest.auth import CertificateAuthority

    return CertificateAuthority(CA_NAME, secret=CA_SECRET)


def build_server(config: dict):
    from repro.nest.backends import LocalFSStore
    from repro.nest.config import NestConfig
    from repro.nest.server import NestServer

    nest = dict(config.get("nest", {}))
    if "protocols" in nest:
        nest["protocols"] = tuple(nest["protocols"])
    store = (LocalFSStore(config["store_dir"])
             if config.get("store_dir") else None)
    return NestServer(NestConfig(**nest), store=store,
                      ca=certificate_authority())


def main(argv: list[str]) -> int:
    config = json.loads(argv[1])
    recorder = None
    if config.get("trace"):
        # Before the server exists: classes are patched, so every
        # object the server builds is born instrumented.
        from benchmarks.appliance import tracing

        recorder = tracing.Recorder()
        tracing.install_server(recorder)

    stopping = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stopping.set())

    server = build_server(config).start()
    report = server.recovery_report
    hello = {
        "pid": os.getpid(),
        "ports": server.ports,
        "recovery": None if report is None else {
            "replay_s": report.duration_seconds,
            "replayed_records": report.replayed_records,
        },
    }
    print(json.dumps(hello), flush=True)

    peak_threads = threading.active_count()
    try:
        while not stopping.is_set():
            # 50 ms: the thread-count sampling period.
            ready, _, _ = select.select([sys.stdin], [], [], 0.05)
            peak_threads = max(peak_threads, threading.active_count())
            if not ready:
                continue
            line = sys.stdin.readline()
            parts = line.split()
            if not parts or parts[0] == "stop":
                break
            if parts[0] == "stats":
                reply = {"peak_threads": peak_threads,
                         "cpu_s": time.process_time()}
                peak_threads = threading.active_count()
            elif parts[0] == "trace_start" and recorder is not None:
                recorder.enabled = True
                reply = {"tracing": True}
            elif parts[0] == "trace_dump" and recorder is not None:
                reply = recorder.dump(parts[1])
            else:
                reply = {"error": f"unknown command {parts[0]!r}"}
            print(json.dumps(reply), flush=True)
    finally:
        server.stop(drain_timeout=2.0)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

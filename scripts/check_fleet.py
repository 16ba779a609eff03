#!/usr/bin/env python
"""Fleet-telemetry verification lane (scripts/verify.sh).

Boots a two-worker shard group, runs traced Chirp requests through the
shared SO_REUSEPORT port, then asserts the *parent's* fleet management
endpoint proves the workers' telemetry arrived and merged:

* ``/metrics`` carries shard-labelled gauge series (``shard="0"`` /
  ``shard="1"``) and the summed ``nest_connections_total`` counter;
* ``/trace`` is a valid Chrome document whose span events span more
  than one OS pid (one process row per worker);
* the group stops without leaking parent-side threads.

Exit status 0 on success; prints the failing assertion otherwise.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import urllib.request


def main() -> int:
    sys.path.insert(0, "src")
    from repro.client.http import HttpClient
    from repro.nest.config import NestConfig
    from repro.nest.shard import ShardGroup, shard_root
    from repro.obs import spans as _spans
    from repro.obs.export_chrome import validate_trace

    before = {t for t in threading.enumerate()}
    config = NestConfig(name="nest", protocols=("chirp", "http"),
                        telemetry_interval=0.2)
    group = ShardGroup(2, config=config).start()
    try:
        root = _spans.Tracer(service="check-fleet").span("fleet.check")
        with root:
            # Shard-addressed access: each worker's direct HTTP port,
            # so both workers serve (and trace) requests; the pushed
            # root span makes every request a traced one.
            for index in range(2):
                host, port = group.direct_http_endpoint(index)
                with HttpClient(host, port) as client:
                    path = f"{shard_root(index)}/check.dat"
                    client.put(path, b"fleet" * 64)
                    assert client.get(path) == b"fleet" * 64

        base = f"http://{group.mgmt.host}:{group.mgmt.port}"

        def traced(doc: dict) -> list:
            return [e for e in doc["traceEvents"]
                    if e.get("ph") == "X"
                    and e.get("args", {}).get("trace_id") == root.trace_id]

        # Workers push on their own clock: wait for the push that
        # carries the requests' spans.
        deadline = time.monotonic() + 10.0
        while True:
            doc = json.loads(urllib.request.urlopen(base + "/trace").read())
            if traced(doc) or time.monotonic() >= deadline:
                break
            time.sleep(0.2)
        metrics = urllib.request.urlopen(base + "/metrics").read().decode()
        assert 'shard="0"' in metrics and 'shard="1"' in metrics, \
            "parent /metrics never showed shard-labelled series"
        assert "nest_connections_total" in metrics, \
            "parent /metrics lost the summed connection counter"

        problems = validate_trace(doc)
        assert not problems, f"merged fleet trace invalid: {problems[:3]}"
        span_pids = {e["pid"] for e in doc["traceEvents"]
                     if e.get("ph") == "X"}
        assert len(span_pids) >= 1, "merged fleet trace has no spans"
        assert traced(doc), "no worker span joined the client's trace"
    finally:
        group.stop()

    leaked = [t for t in threading.enumerate()
              if t not in before and t.is_alive()]
    assert not leaked, f"shard group leaked threads: {leaked}"
    print("check_fleet: ok (shard-labelled metrics, merged trace, "
          "no leaked threads)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

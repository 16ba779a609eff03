"""Command-line interface: run appliances and regenerate figures.

::

    python -m repro serve [--name N] [--port-base P] [--protocols ...]
                          [--concurrency-server M] [--shards N]
    python -m repro jbos  [--port-base P]
    python -m repro bench [fig3|fig4|fig5|fig6|ablations|all]
    python -m repro perf  [counters]
    python -m repro replica [status|demo] [--sites N] [--factor K]
    python -m repro tier    [status|demo] [--sites N]
    python -m repro recover --state-dir DIR [--store-root DIR]
    python -m repro stats [host:port]
                          [--path /metrics|/healthz|/trace|/slo|/ad]

``recover`` replays a ``state_dir``'s snapshot + metadata journal into
a fresh storage manager and reports what came back (lots, interrupted
puts, replayed records) without starting a server -- the offline
fsck-style view of durable appliance state.
``serve`` starts a live NeST on consecutive ports (Chirp at the base)
and prints its availability ClassAd; ``jbos`` starts the native bunch;
``bench`` regenerates the paper's figures on the simulated testbed;
``perf`` prints the simulated substrate's hot-path counters after a
representative mixed run (timing anything is the job of
``benchmarks/appliance/run.py``).  ``replica`` stands up an ephemeral
federated fleet: ``status`` shows the catalog for one seeded file,
``demo`` runs the kill-and-heal scenario.  ``tier`` runs the
hierarchical storage + autoscaling scenario: one tiered appliance under
a flash crowd demotes cold files and recalls them on miss while its
autoscaler replicates the hottest files to idle peers, plus a crash
sweep proving residency survives a kill at every journal boundary.
``stats`` scrapes a running appliance's
management endpoint (the ``mgmt`` port ``serve`` prints), or -- with no
target -- runs a small self-contained workload and prints the resulting
telemetry, which is the quickest way to see the observability layer
end to end.
"""

from __future__ import annotations

import argparse
import sys
import threading


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.nest.config import NestConfig
    from repro.nest.server import NestServer

    protocols = tuple(args.protocols.split(","))
    ports = None
    if args.port_base:
        ports = {proto: args.port_base + i
                 for i, proto in enumerate(protocols)}
    config = NestConfig(
        name=args.name,
        protocols=protocols,
        scheduling=args.scheduling,
        concurrency_server=args.concurrency_server,
        require_lots=args.require_lots,
        state_dir=args.state_dir or None,
        shards=args.shards,
    )
    if args.shards:
        return _serve_shards(config, args)
    server = NestServer(config, ports=ports)
    server.start()
    if server.recovery_report is not None:
        rep = server.recovery_report
        print(f"recovered from {rep.state_dir}: "
              f"{rep.replayed_records} records replayed, "
              f"{len(rep.recovered_lots)} lots, epoch {rep.epoch}")
    print(f"NeST {args.name!r} serving:")
    for proto, port in sorted(server.ports.items()):
        print(f"  {proto:<8} {server.host}:{port}")
    print("\nAvailability ClassAd:")
    print(server.advertisement().external_repr())
    return _serve_until_interrupted(server)


def _serve_until_interrupted(serving) -> int:
    """Sleep (no polling) until Ctrl-C, then ``serving.stop()``."""
    print("\nCtrl-C to stop.")
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        print("stopping")
        serving.stop()
    return 0


def _serve_shards(config, args: argparse.Namespace) -> int:
    """Multi-process mode: N shard workers behind one Chirp port."""
    from repro.nest.shard import ShardGroup

    group = ShardGroup(args.shards, config=config,
                       chirp_port=args.port_base or 0)
    group.start()
    host, port = group.endpoint()
    print(f"NeST {args.name!r} shard group: {args.shards} workers "
          f"sharing chirp {host}:{port}")
    for worker in group.workers:
        print(f"  shard {worker.index}  pid {worker.pid:<7} "
              f"owns {worker.shard_root:<10} "
              f"direct http {host}:{worker.http_port}")
    if group.mgmt is not None:
        print(f"  fleet mgmt {group.mgmt.host}:{group.mgmt.port}  "
              f"(/metrics /trace /slo /healthz, shard-merged)")
    return _serve_until_interrupted(group)


def _cmd_jbos(args: argparse.Namespace) -> int:
    from repro.jbos import JbosManager

    manager = JbosManager()
    if args.port_base:
        for i, (proto, srv) in enumerate(sorted(manager.servers.items())):
            srv._requested_port = args.port_base + i
    manager.start()
    manager.store.mkdir("/pub")
    print("JBOS bunch serving (shared /pub):")
    for proto, port in sorted(manager.ports.items()):
        print(f"  {proto:<8} {manager.host}:{port}")
    return _serve_until_interrupted(manager)


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import ablations, fig3, fig4, fig5, fig6

    figures = {
        "fig3": lambda: print(fig3.report(fig3.run())),
        "fig4": lambda: print(fig4.report(fig4.run())),
        "fig5": lambda: print(fig5.report(fig5.run())),
        "fig6": lambda: print(fig6.report(fig6.run())),
        "ablations": lambda: print(ablations.report_all()),
    }
    targets = list(figures) if args.figure == "all" else [args.figure]
    for target in targets:
        figures[target]()
        print()
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    """Run the traced mixed workload and print its counter snapshot."""
    from repro.perf.counters import collect_server
    from repro.perf.workloads import traced_mixed_workload

    result, server = traced_mixed_workload(return_server=True)
    report = collect_server(server)
    report.publish()  # also visible via ``repro stats``
    print(report.render())
    print(f"trace: {len(result.records)} chunk completions, "
          f"sha256 {result.sha256()[:16]}...")
    return 0


def _cmd_replica(args: argparse.Namespace) -> int:
    import json

    from repro.replica.fleet import Fleet, render_status, run_demo

    if args.what == "status":
        # Self-contained: stand up a small fleet, seed one file, and
        # show what the catalog + collector know about it.
        fleet = Fleet(sites=args.sites)
        with fleet:
            catalog, replicator, client = fleet.federate(
                target_count=min(args.factor, args.sites),
                policy=args.policy, seed=args.seed)
            with replicator, client:
                client.write("status-demo.dat", b"s" * 4096)
                print(render_status(replicator))
        return 0

    # demo: seed, kill an appliance mid-workload, heal, verify.
    record = run_demo(sites=args.sites, files=args.files,
                      file_bytes=args.file_bytes,
                      target_count=min(args.factor, args.sites),
                      policy=args.policy, seed=args.seed,
                      kill=not args.no_kill)
    status = record.pop("status")
    print(status)
    print()
    print(json.dumps(record, indent=2, sort_keys=True))
    failed = record["read_errors"] or record["deficits_after_heal"]
    return 1 if failed else 0


def _cmd_tier(args: argparse.Namespace) -> int:
    import json
    import tempfile

    from repro.tier.demo import render_tier_status, run_tier_demo

    with tempfile.TemporaryDirectory(prefix="repro-tier-") as tmp:
        record = run_tier_demo(
            sites=args.sites,
            hot_files=args.hot_files,
            cold_files=args.cold_files,
            cold_bytes=args.cold_bytes,
            crowd_threads=args.crowd,
            tmp_dir=None if args.no_crash else tmp)
    if args.what == "status":
        print(render_tier_status(record))
    else:
        print(json.dumps(record, indent=2, sort_keys=True))
    return 0 if record["ok"] else 1


def _cmd_recover(args: argparse.Namespace) -> int:
    """Offline recovery: rebuild state from a state_dir and report."""
    import json
    import os

    from repro.durability import DurabilityManager
    from repro.nest.backends import LocalFSStore, MemoryStore
    from repro.nest.storage import StorageManager
    from repro.replica.catalog import ReplicaCatalog

    if not os.path.isdir(args.state_dir):
        print(f"recover: no such state dir {args.state_dir!r}",
              file=sys.stderr)
        return 2
    store = (LocalFSStore(args.store_root) if args.store_root
             else MemoryStore())
    storage = StorageManager(store=store)
    catalog = ReplicaCatalog()
    manager = DurabilityManager(args.state_dir, fsync=False)
    report = manager.recover_into(storage, catalog=catalog)
    manager.close(snapshot=False)
    print(json.dumps(report.describe(), indent=2, sort_keys=True))
    print()
    lots = [storage.lots.lots[lot_id].describe()
            for lot_id in sorted(storage.lots.lots)]
    print(f"lots recovered: {len(lots)}")
    for lot in lots:
        print(f"  {lot['lot_id']:<8} owner={lot['owner']:<12} "
              f"used={lot['used']}/{lot['capacity']} state={lot['state']}")
    replicas = catalog.snapshot()
    print(f"replica sets recovered: {len(replicas)}")
    for logical, copies in sorted(replicas.items()):
        sites = ", ".join(f"{c['site']}({c['state']})" for c in copies)
        print(f"  {logical}: {sites}")
    if report.corrupt_tail:
        print("journal ended in a torn/corrupt record "
              "(truncated to the last durable boundary)")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    if args.target:
        return _scrape(args.target, args.path)
    return _stats_demo()


def _fetch(target: str, path: str) -> bytes:
    """GET one management-endpoint document; raises OSError/ValueError."""
    import socket

    from repro.protocols.common import tuned

    host, _, port = target.rpartition(":")
    try:
        portno = int(port)
    except ValueError:
        raise ValueError(f"target must be host:port, got {target!r}")
    with tuned(socket.create_connection((host or "127.0.0.1", portno),
                                        timeout=5.0)) as conn:
        conn.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode())
        chunks = []
        while True:
            data = conn.recv(65536)
            if not data:
                break
            chunks.append(data)
    response = b"".join(chunks)
    head, _, body = response.partition(b"\r\n\r\n")
    status = head.split(b"\r\n", 1)[0].decode("latin-1", "replace")
    if " 200 " not in f" {status} ":
        raise OSError(f"scrape failed: {status}")
    return body


def _scrape(target: str, path: str) -> int:
    """Fetch one management-endpoint document from a live appliance."""
    try:
        body = _fetch(target, path)
    except ValueError as exc:
        print(f"stats: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"stats: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(body.decode("utf-8", "replace"))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace collect``: stitch one cross-node Chrome trace.

    Scrapes ``/trace`` from every named management endpoint (each
    appliance, shard parent, or replicator host involved in a
    distributed operation), merges the documents -- deduplicating
    spans shipped to more than one endpoint -- optionally filters to
    one trace id, validates, and writes the result.
    """
    import json

    from repro.obs.export_chrome import merge_chrome_traces, validate_trace

    docs = []
    for target in args.targets:
        try:
            docs.append(json.loads(_fetch(target, "/trace")))
        except ValueError as exc:
            print(f"trace: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"trace: {target}: {exc}", file=sys.stderr)
            return 1
    merged = merge_chrome_traces(docs, trace_id=args.trace_id)
    problems = validate_trace(merged)
    if problems:
        for problem in problems[:10]:
            print(f"trace: invalid merge: {problem}", file=sys.stderr)
        return 1
    spans = [e for e in merged["traceEvents"] if e.get("ph") == "X"]
    pids = {e["pid"] for e in spans}
    traces = {e.get("args", {}).get("trace_id") for e in spans}
    body = json.dumps(merged, indent=1) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)
    print(f"trace: {len(spans)} spans, {len(pids)} processes, "
          f"{len(traces)} traces, from {len(docs)} endpoints",
          file=sys.stderr)
    return 0


def _stats_demo() -> int:
    """Run a tiny live workload and print the telemetry it produced."""
    import json

    from repro.client.chirp import ChirpClient
    from repro.nest.server import NestServer

    with NestServer() as server:
        host, port = server.endpoint("chirp")
        client = ChirpClient(host, port)
        try:
            client.put("/stats-demo.dat", b"x" * 262144)
            client.get("/stats-demo.dat")
        finally:
            client.close()
        print("# one Chirp put + get against an ephemeral NeST;")
        print(f"# live scrape surface: {server.host}:{server.ports['mgmt']}"
              " (/metrics /healthz /trace /slo /ad)")
        print()
        print(server.obs.render_prometheus())
        print("# live-health ClassAd attributes")
        print(json.dumps(server.obs.health_attributes(), indent=2,
                         sort_keys=True))
        trace = server.obs.chrome_trace()
        print(f"# chrome trace: {len(trace['traceEvents'])} events "
              "(serve + scrape /trace to load in chrome://tracing)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The repro command-line parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="NeST Grid storage appliance (HPDC 2002)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run a live NeST appliance")
    serve.add_argument("--name", default="nest")
    serve.add_argument("--port-base", type=int, default=0,
                       help="first port (0 = ephemeral)")
    serve.add_argument("--protocols",
                       default="chirp,ftp,gridftp,http,nfs,ibp")
    serve.add_argument("--scheduling", default="fcfs",
                       choices=["fcfs", "stride", "cache-aware"])
    serve.add_argument("--concurrency-server", default="threaded",
                       choices=["threaded", "events", "adaptive"],
                       help="how connections are served: a thread per "
                            "connection, the selector-driven event loop, "
                            "or adaptive switching under load")
    serve.add_argument("--shards", type=int, default=0,
                       help="spawn N worker processes sharing one "
                            "SO_REUSEPORT chirp port (0: single process)")
    serve.add_argument("--require-lots", action="store_true")
    serve.add_argument("--state-dir", default="",
                       help="durable state directory (journal + snapshots); "
                            "empty runs memory-only")
    serve.set_defaults(func=_cmd_serve)

    jbos = sub.add_parser("jbos", help="run the native-server baseline")
    jbos.add_argument("--port-base", type=int, default=0)
    jbos.set_defaults(func=_cmd_jbos)

    bench = sub.add_parser("bench", help="regenerate the paper's figures")
    bench.add_argument("figure", nargs="?", default="all",
                       choices=["fig3", "fig4", "fig5", "fig6",
                                "ablations", "all"])
    bench.set_defaults(func=_cmd_bench)

    perf = sub.add_parser(
        "perf", help="hot-path counter snapshot of a simulated mixed run")
    perf.add_argument("what", nargs="?", default="counters",
                      choices=["counters"])
    perf.set_defaults(func=_cmd_perf)

    replica = sub.add_parser(
        "replica", help="replica federation: status or kill-and-heal demo")
    replica.add_argument("what", nargs="?", default="status",
                         choices=["status", "demo"])
    replica.add_argument("--sites", type=int, default=4,
                         help="appliances in the ephemeral fleet")
    replica.add_argument("--factor", type=int, default=3,
                         help="target valid copies per logical file")
    replica.add_argument("--policy", default="throughput",
                         choices=["random", "space", "throughput", "load"])
    replica.add_argument("--seed", type=int, default=7)
    replica.add_argument("--files", type=int, default=6,
                         help="logical files the demo seeds")
    replica.add_argument("--file-bytes", type=int, default=64 * 1024)
    replica.add_argument("--no-kill", action="store_true",
                         help="demo without killing an appliance")
    replica.set_defaults(func=_cmd_replica)

    tier = sub.add_parser(
        "tier",
        help="storage tiers + autoscaling: flash-crowd absorption demo")
    tier.add_argument("what", nargs="?", default="status",
                      choices=["status", "demo"])
    tier.add_argument("--sites", type=int, default=3,
                      help="appliances in the ephemeral fleet")
    tier.add_argument("--hot-files", type=int, default=3,
                      help="files the flash crowd hammers")
    tier.add_argument("--cold-files", type=int, default=4,
                      help="files demoted to the cold tier")
    tier.add_argument("--cold-bytes", type=int, default=64 * 1024)
    tier.add_argument("--crowd", type=int, default=6,
                      help="concurrent reader threads")
    tier.add_argument("--no-crash", action="store_true",
                      help="skip the crash-at-every-journal-boundary sweep")
    tier.set_defaults(func=_cmd_tier)

    recover = sub.add_parser(
        "recover",
        help="replay a state_dir's journal and report recovered state")
    recover.add_argument("--state-dir", required=True,
                         help="durable state directory (journal + snapshot)")
    recover.add_argument("--store-root", default="",
                         help="LocalFSStore root backing the appliance "
                              "(empty: reconcile against an empty store)")
    recover.set_defaults(func=_cmd_recover)

    trace = sub.add_parser(
        "trace", help="distributed-trace tooling")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    collect = trace_sub.add_parser(
        "collect",
        help="scrape /trace from several endpoints and stitch one "
             "cross-node Chrome trace")
    collect.add_argument(
        "targets", nargs="+", metavar="HOST:PORT",
        help="management endpoints to scrape (appliances, shard "
             "parents, replicator hosts)")
    collect.add_argument(
        "--trace-id", default=None,
        help="keep only spans of this trace (default: every trace)")
    collect.add_argument(
        "-o", "--output", default=None,
        help="write the merged document here (default: stdout)")
    collect.set_defaults(func=_cmd_trace)

    stats = sub.add_parser(
        "stats", help="scrape a live appliance's telemetry (or demo it)")
    stats.add_argument("target", nargs="?", default="",
                       help="host:port of the management endpoint "
                            "(empty: run a self-contained demo workload)")
    stats.add_argument("--path", default="/metrics",
                       choices=["/metrics", "/healthz", "/trace", "/slo",
                                "/ad"],
                       help="which management document to fetch")
    stats.set_defaults(func=_cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

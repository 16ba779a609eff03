"""Turning raw observations into the named metrics.

Three sources, kept apart on purpose:

* **client** -- per-operation latencies and byte counts the load
  generator timed itself (always untraced for end-to-end metrics);
* **scrape** -- before/after differences of the server's own
  ``/metrics`` exposition and of ``/proc/<pid>``; works untraced;
* **trace** -- per-name span totals from :mod:`tracing`, traced
  segment only.

Every function returns ``{metric name: value}``; names and units are
fixed by ``BENCHMARK.json`` (the runner refuses a name that is not
there).
"""

from __future__ import annotations

import statistics

from benchmarks.appliance import tracing
from benchmarks.appliance.tracing import LAYERS, layer_of


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(samples: list, p: float) -> float:
    """Nearest-rank percentile of ``samples`` (0 < p <= 100)."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil
    return ordered[int(rank) - 1]


#: candidate tail percentiles, highest first, as (percentile, how many
#: samples in a thousand lie beyond it) -- integers keep the rule exact
TAIL_LADDER = ((99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250))


def tail_percentile(count: int) -> float | None:
    """The highest ladder percentile with at least ten samples beyond
    it, or None when even p75 has fewer (count < 40)."""
    for p, beyond_per_mille in TAIL_LADDER:
        if count * beyond_per_mille >= 10 * 1000:
            return p
    return None


def median_and_spread(values: list[float]) -> tuple[float, float]:
    """Median of per-segment values and (max - min) / median."""
    mid = statistics.median(values)
    spread = (max(values) - min(values)) / mid if mid else 0.0
    return mid, spread


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, the driver's run-to-run spread."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


# ----------------------------------------------------------------------
# client side
# ----------------------------------------------------------------------
def merged_latencies(lane_results) -> dict[str, list[int]]:
    merged: dict[str, list[int]] = {}
    for lane in lane_results:
        for kind, samples in lane.latencies.items():
            merged.setdefault(kind, []).extend(samples)
    return merged


def completed(lane_results) -> int:
    return sum(lane.attempted - lane.failed for lane in lane_results)


def put_totals(lane_results) -> tuple[int, int]:
    """(completed PUTs, their payload bytes) over all lanes."""
    puts = sum(len(samples) for lane in lane_results
               for kind, samples in lane.latencies.items()
               if kind.startswith("put"))
    nbytes = sum(moved for lane in lane_results
                 for kind, moved in lane.bytes_by_kind.items()
                 if kind.startswith("put"))
    return puts, nbytes


def rate_per_s(lane_results) -> float:
    """Completed operations per second, summed over lanes (each lane
    divides by its own elapsed time: the last operation may end after
    the deadline)."""
    return sum((lane.attempted - lane.failed) / lane.elapsed
               for lane in lane_results if lane.elapsed)


def megabytes_per_s(lane_results) -> float:
    """Payload MB (10^6 bytes) per second, summed over lanes."""
    return sum(sum(lane.bytes_by_kind.values()) / lane.elapsed / 1e6
               for lane in lane_results if lane.elapsed)


def p50(latencies: dict, kind: str, scale: float) -> float:
    """Median latency of one op kind in ns / ``scale`` (0.0 if that
    kind never completed)."""
    samples = latencies.get(kind)
    return percentile(samples, 50) / scale if samples else 0.0


def client_metrics(workload, lane_results) -> dict[str, float]:
    """What a user of the appliance sees in one segment."""
    lat = merged_latencies(lane_results)
    out = {"ops_per_s": rate_per_s(lane_results)}
    if workload.name == "small_ops":
        stat = lat.get("stat", [])
        out.update({
            "stat_p50_us": p50(lat, "stat", 1e3),
            "stat_p95_us": percentile(stat, 95) / 1e3 if stat else 0.0,
            "get1k_p50_us": p50(lat, "get1k", 1e3),
            "put1k_p50_us": p50(lat, "put1k", 1e3),
            "connect_auth_p50_us": p50(lat, "connect_auth", 1e3),
        })
    elif workload.name == "bulk_get":
        out.update({
            "get_MBps": megabytes_per_s(lane_results),
            "get8m_p50_ms": p50(lat, "get8m", 1e6),
            "get64k_p50_us": p50(lat, "get64k", 1e3),
        })
    elif workload.name == "durable_put":
        out.update({
            "put_MBps": megabytes_per_s(lane_results),
            "put8m_p50_ms": p50(lat, "put8m", 1e6),
            "put64k_p50_us": p50(lat, "put64k", 1e3),
        })
    return out


# ----------------------------------------------------------------------
# scrape: Prometheus text + /proc
# ----------------------------------------------------------------------
def parse_prometheus(text: str) -> dict[str, float]:
    """``{'name{labels}': value}`` for every sample line."""
    samples = {}
    for line in text.splitlines():
        if not line or line[0] == "#":
            continue
        key, _, value = line.rpartition(" ")
        try:
            samples[key] = float(value)
        except ValueError:
            continue
    return samples


def family_total(samples: dict[str, float], name: str) -> float:
    """Sum of every series of one metric family."""
    return sum(v for k, v in samples.items()
               if k == name or k.startswith(name + "{"))


def histogram_p50(before: dict, after: dict, name: str) -> float:
    """Median of the observations a histogram took between two scrapes
    (all label sets pooled), linearly interpolated inside its bucket."""
    buckets: dict[float, float] = {}
    prefix = name + "_bucket{"
    for key, value in after.items():
        if not key.startswith(prefix):
            continue
        le = key.split('le="', 1)[1].split('"', 1)[0]
        bound = float("inf") if le == "+Inf" else float(le)
        buckets[bound] = (buckets.get(bound, 0.0)
                          + value - before.get(key, 0.0))
    bounds = sorted(buckets)
    if not bounds or buckets[bounds[-1]] <= 0:
        return 0.0
    half = buckets[bounds[-1]] / 2.0
    lower, below = 0.0, 0.0
    for bound in bounds:
        if buckets[bound] >= half:
            if bound == float("inf"):
                return lower
            inside = buckets[bound] - below
            share = (half - below) / inside if inside else 0.0
            return lower + (bound - lower) * share
        lower, below = bound, buckets[bound]
    return lower


def scrape_metrics(before: dict, after: dict, *, ops: int, puts: int,
                   put_bytes: int) -> dict[str, float]:
    """Per-layer numbers from two snapshots ``{"prom", "cpu_s",
    "write_bytes"}`` around a segment (the same formulae traced or
    not)."""
    def delta(name):
        return (family_total(after["prom"], name)
                - family_total(before["prom"], name))

    ratio = _ratio
    sendfile_bytes = delta("nest_fastpath_sendfile_bytes")
    fallback_bytes = delta("nest_fastpath_fallback_bytes")
    pool_hits = delta("nest_buffer_pool_hits")
    pool_misses = delta("nest_buffer_pool_misses")
    fsyncs = delta("journal_fsync_seconds_count")
    records = delta("journal_records_total")
    written = after["write_bytes"] - before["write_bytes"]
    return {
        "nest.acl.denials": delta("nest_acl_denials_total"),
        "durability.records_per_put": ratio(records, puts),
        "durability.fsyncs_per_put": ratio(fsyncs, puts),
        "durability.records_per_fsync": ratio(records, fsyncs),
        # everything the server wrote beyond the payload itself
        # (journal, snapshots, epoch file), page-granular
        "durability.journal_bytes_per_user_byte":
            ratio(max(0.0, written - put_bytes), put_bytes),
        "nest.transfer.queue_wait_p50_us": 1e6 * histogram_p50(
            before["prom"], after["prom"], "nest_queue_wait_seconds"),
        "nest.transfer.failures": delta("nest_transfer_failures_total"),
        "nest.io.sendfile_byte_share":
            ratio(sendfile_bytes, sendfile_bytes + fallback_bytes),
        "nest.io.fallback_sends": delta("nest_fastpath_fallback_sends"),
        "nest.io.pool_hit_rate": ratio(pool_hits, pool_hits + pool_misses),
        "nest.io.crc_folds": delta("nest_fastpath_crc_folds"),
        "nest.server.cpu_us_per_op":
            ratio(1e6 * (after["cpu_s"] - before["cpu_s"]), ops),
    }


# ----------------------------------------------------------------------
# trace
# ----------------------------------------------------------------------
def trace_metrics(agg: tracing.Aggregate, *, ops: int,
                  puts: int) -> dict[str, float]:
    """Per-layer numbers from one traced segment's server-side spans;
    per-op figures divide by the client-side operation count."""
    ratio = _ratio

    def us(ns):
        return ns / 1e3

    get = agg.get

    def per_call_us(name):
        total = get(name)
        return ratio(us(total.wall), total.calls)

    def request_self_us_per_op(*names):
        return ratio(us(sum(get(n).request_self for n in names)), ops)

    layer_self: dict[str, int] = {}
    layer_calls: dict[str, int] = {}
    for name, total in agg.totals.items():
        layer = layer_of(name)
        layer_self[layer] = layer_self.get(layer, 0) + total.request_self
        layer_calls[layer] = layer_calls.get(layer, 0) + total.calls
    layer_wait = agg.layer_wait

    pump = get("nest.transfer.pump_chunk")
    megabytes = pump.value / 1e6
    span_opens = sum(get(f"obs.span.{m}").calls
                     for m in ("child", "child_at", "start_trace", "adopt"))
    span_self = sum(t.self_time for n, t in agg.totals.items()
                    if n.startswith("obs.span."))
    out = {
        "protocols.parse_us_per_op": request_self_us_per_op(
            "protocols.read_line", "protocols.http.read_request",
            "protocols.chirp.decode_request"),
        "protocols.encode_us_per_op": request_self_us_per_op(
            "protocols.write_line", "protocols.http.write_response_head",
            "protocols.chirp.encode_response", "protocols.chirp.encode_stat"),
        "protocols.calls_per_op": ratio(layer_calls.get("protocols", 0), ops),
        "nest.auth.accept_us": per_call_us("nest.auth.accept"),
        "nest.auth.handshakes": get("nest.auth.accept").calls,
        "nest.acl.allows_us_per_op":
            ratio(us(get("nest.acl.allows").wall), ops),
        "nest.acl.checks_per_op": ratio(get("nest.acl.allows").calls, ops),
        "nest.lots.charge_us_per_put":
            ratio(us(get("nest.lots.charge").wall), puts),
        "nest.lots.charges_per_put":
            ratio(get("nest.lots.charge").calls, puts),
        "nest.lots.verb_us": per_call_us("nest.lots.verb"),
        "nest.storage.stat_us": per_call_us("nest.storage.stat"),
        "nest.storage.approve_get_us":
            per_call_us("nest.storage.approve_get"),
        "nest.storage.approve_put_us":
            per_call_us("nest.storage.approve_put"),
        "nest.storage.settle_us": per_call_us("nest.storage.settle"),
        "nest.storage.wait_us_per_op":
            ratio(us(layer_wait.get("nest.storage", 0)), ops),
        "durability.append_us_per_record": per_call_us("durability.append"),
        "durability.wait_durable_us_per_put":
            ratio(us(get("durability.wait_durable").wall), puts),
        "nest.backends.open_read_us": per_call_us("nest.backends.open_read"),
        "nest.backends.open_write_us":
            per_call_us("nest.backends.open_write"),
        "nest.backends.commit_us": per_call_us("nest.backends.commit"),
        "nest.scheduling.select_us_per_quantum":
            ratio(us(get("nest.scheduling.select").wall), pump.calls),
        "nest.scheduling.charge_us_per_quantum":
            ratio(us(get("nest.scheduling.charge").wall), pump.calls),
        "nest.scheduling.selects_per_MB":
            ratio(get("nest.scheduling.select").calls, megabytes),
        "nest.transfer.submit_to_first_chunk_us":
            us(statistics.median(agg.submit_to_first_chunk))
            if agg.submit_to_first_chunk else 0.0,
        "nest.transfer.wait_us_per_transfer":
            per_call_us("nest.transfer.wait"),
        "nest.transfer.quanta_per_MB": ratio(pump.calls, megabytes),
        "nest.transfer.pump_us_per_MB": ratio(us(pump.wall), megabytes),
        "nest.io.copy_stream_us_per_MB": ratio(
            us(get("nest.io.copy_stream").wall),
            get("nest.io.copy_stream").value / 1e6),
        "obs.span_us_per_op": ratio(us(span_self), ops),
        "obs.spans_per_op": ratio(span_opens, ops),
        "obs.metric_us_per_op":
            ratio(us(get("obs.metric.update").self_time), ops),
        "obs.metric_updates_per_op":
            ratio(get("obs.metric.update").calls, ops),
        "nest.handlers.self_us_per_op":
            request_self_us_per_op(tracing.REQUEST),
        "nest.server.accept_to_first_reply_us":
            us(statistics.median(agg.accept_to_first_reply))
            if agg.accept_to_first_reply else 0.0,
        "trace.request_wall_us_per_op": ratio(us(agg.request_wall), ops),
        "trace.self_coverage":
            ratio(sum(layer_self.values()), agg.request_wall),
        "trace.spans": agg.spans,
        "trace.dropped_spans": agg.dropped,
    }
    for layer in LAYERS:
        if layer in ("nest.handlers", "nest.server", "client",
                     "nest.scheduling"):
            continue  # handlers has self_us_per_op above; the others
            # never run under a request
        out[f"{layer}.self_us_per_op"] = ratio(
            us(layer_self.get(layer, 0)), ops)
    return out


def client_trace_metrics(agg: tracing.Aggregate, ops: int) -> dict[str, float]:
    """Client-library CPU spent encoding requests and decoding replies
    (thread CPU, not wall: ``read_response_head`` also waits)."""
    cpu = sum(t.cpu for n, t in agg.totals.items() if n.startswith("client."))
    return {"client.encode_decode_us_per_op": cpu / 1e3 / ops if ops else 0.0}

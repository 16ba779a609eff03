"""Ablation experiments for the design choices DESIGN.md calls out.

These go beyond the paper's figures to exercise its discussion
sections: cache-aware scheduling (section 4.2), the non-work-conserving
stride variant (section 7.2's future work), NeST-managed versus
quota-backed lot enforcement (sections 5 and 7.4), and the Apache
mod_throttle comparison (section 4.2's related-work argument).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.fairness import jains_fairness, proportional_shares
from repro.bench.fig6 import measure_write
from repro.models.platform import LINUX, PlatformProfile
from repro.nest.config import NestConfig
from repro.sim.core import Environment
from repro.simnest.clients import ClientLog, whole_file_client
from repro.simnest.server import SimNest
from repro.simnest.workload import run_mixed_protocols

MB = 1_000_000


# ---------------------------------------------------------------------------
# 1. cache-aware scheduling vs FIFO
# ---------------------------------------------------------------------------


@dataclass
class CacheAwareResult:
    """Mean response times and throughput under both schedulers."""

    fifo_mean_response: float = 0.0
    cache_aware_mean_response: float = 0.0
    fifo_throughput_mbps: float = 0.0
    cache_aware_throughput_mbps: float = 0.0
    #: mean response of the *cached* requests only (the SJF winners)
    fifo_cached_response: float = 0.0
    cache_aware_cached_response: float = 0.0


def _cache_mix_run(policy: str, platform: PlatformProfile,
                   n_cached: int = 18, n_uncached: int = 18,
                   file_bytes: int = 10 * MB) -> tuple[float, float, float]:
    """One burst of cached+uncached requests under ``policy``.

    The cached working set nearly fills the buffer cache, so under FIFO
    the cold streams' reads evict cached files *before they are served*
    -- turning hits into misses.  Cache-aware scheduling serves them
    first, which is exactly the paper's reduced-disk-contention
    throughput argument.

    Returns (mean response, mean cached-only response, throughput MB/s).
    """
    env = Environment()
    cfg = NestConfig(scheduling=policy, transfer_workers=4)
    server = SimNest(env, platform, cfg, concurrency="threads")
    logs: list[ClientLog] = []
    cached_paths = set()
    for i in range(n_cached):
        path = f"/mix/cached-{i}"
        server.populate(path, file_bytes, resident=True)
        cached_paths.add(path)
        log = ClientLog(protocol="chirp")
        logs.append(log)
        env.process(whole_file_client(env, server, "chirp", [path], log))
    for i in range(n_uncached):
        path = f"/mix/cold-{i}"
        server.populate(path, file_bytes, resident=False)
        log = ClientLog(protocol="chirp")
        logs.append(log)
        env.process(whole_file_client(env, server, "chirp", [path], log))
    env.run()
    responses = [r.elapsed for log in logs for r in log.results]
    cached = [r.elapsed for log in logs for r in log.results
              if r.path in cached_paths]
    total_bytes = sum(r.nbytes for log in logs for r in log.results)
    makespan = max(r.end for log in logs for r in log.results)
    return (
        sum(responses) / len(responses),
        sum(cached) / len(cached),
        total_bytes / makespan / MB,
    )


def run_cache_aware(platform: PlatformProfile = LINUX) -> CacheAwareResult:
    """Cache-aware scheduling approximates SJF: cached requests finish
    first, improving mean response time; throughput should not
    regress."""
    result = CacheAwareResult()
    (result.fifo_mean_response, result.fifo_cached_response,
     result.fifo_throughput_mbps) = _cache_mix_run("fcfs", platform)
    (result.cache_aware_mean_response, result.cache_aware_cached_response,
     result.cache_aware_throughput_mbps) = _cache_mix_run("cache-aware", platform)
    return result


# ---------------------------------------------------------------------------
# 2. work-conserving vs non-work-conserving stride (1:1:1:4)
# ---------------------------------------------------------------------------


@dataclass
class IdlenessResult:
    """The NFS-heavy allocation under both stride variants."""

    work_conserving_fairness: float = 0.0
    anticipatory_fairness: float = 0.0
    work_conserving_total_mbps: float = 0.0
    anticipatory_total_mbps: float = 0.0


PROTOCOLS = ("chirp", "gridftp", "http", "nfs")
NFS_HEAVY = {"chirp": 1.0, "gridftp": 1.0, "http": 1.0, "nfs": 4.0}


def run_idleness(platform: PlatformProfile = LINUX,
                 horizon: float = 12.0) -> IdlenessResult:
    """Does anticipatory idling repair 1:1:1:4 fairness, at what cost?

    The paper proposes the non-work-conserving policy precisely for
    this case: "such a policy might pay a slight penalty in average
    response time for improved allocation control"."""
    result = IdlenessResult()
    for work_conserving in (True, False):
        cfg = NestConfig(scheduling="stride", shares=dict(NFS_HEAVY),
                         work_conserving=work_conserving)
        m = run_mixed_protocols(platform, "nest", config=cfg,
                                protocols=PROTOCOLS, horizon=horizon)
        per = [m.bandwidth_mbps(p) for p in PROTOCOLS]
        total = m.bandwidth_mbps()
        desired = proportional_shares(total, [NFS_HEAVY[p] for p in PROTOCOLS])
        fairness = jains_fairness(per, desired)
        if work_conserving:
            result.work_conserving_fairness = fairness
            result.work_conserving_total_mbps = total
        else:
            result.anticipatory_fairness = fairness
            result.anticipatory_total_mbps = total
    return result


# ---------------------------------------------------------------------------
# 3. lot enforcement: quota-backed vs NeST-managed
# ---------------------------------------------------------------------------


@dataclass
class EnforcementResult:
    """Write overhead and accounting precision of the two modes."""

    quota_write_mbps: float = 0.0
    nest_write_mbps: float = 0.0
    #: In quota mode a user can overfill one lot (the paper's caveat);
    #: NeST-managed enforcement rejects the overfill.
    quota_allows_overfill: bool = False
    nest_allows_overfill: bool = False


def run_enforcement(platform: PlatformProfile = LINUX,
                    write_mb: int = 200) -> EnforcementResult:
    """The paper's section 7.4 question: is NeST-managed enforcement
    "worth the performance improvement and the ability to distinguish
    lots correctly"?"""
    from repro.nest.lots import LotError, LotManager

    result = EnforcementResult()
    # Overhead: quota mode pays the kernel quota I/O (Fig. 6); NeST
    # accounting is user-level bookkeeping on the write path.
    result.quota_write_mbps = measure_write(write_mb * MB, True, platform)
    result.nest_write_mbps = measure_write(write_mb * MB, False, platform)
    # Accounting: two 100-byte lots, one 150-byte file.
    for mode in ("quota", "nest"):
        mgr = LotManager(10_000, clock=lambda: 0.0, enforcement=mode)
        mgr.create_lot("u", 100, duration=10)
        mgr.create_lot("u", 100, duration=10)
        try:
            mgr.charge("u", "/f", 150)
            first_lot = next(iter(mgr.lots.values()))
            overfilled = first_lot.used > first_lot.capacity
        except LotError:
            overfilled = False
        if mode == "quota":
            result.quota_allows_overfill = overfilled
        else:
            result.nest_allows_overfill = overfilled
    return result


# ---------------------------------------------------------------------------
# 4. per-user proportional shares (§4.2's stated extension)
# ---------------------------------------------------------------------------


@dataclass
class UserShareResult:
    """Two users on the same protocol under user-keyed stride shares."""

    vip_mbps: float = 0.0
    guest_mbps: float = 0.0
    requested_ratio: float = 3.0

    @property
    def achieved_ratio(self) -> float:
        return self.vip_mbps / self.guest_mbps if self.guest_mbps else 0.0


def run_user_shares(platform: PlatformProfile = LINUX,
                    ratio: float = 3.0,
                    horizon: float = 10.0,
                    warmup: float = 2.0) -> UserShareResult:
    """Same protocol, different users: the per-protocol scheduler is
    blind here, but ``share_by="user"`` stride can still split the
    bandwidth ``ratio`` : 1."""
    from repro.sim.core import Environment
    from repro.simnest.clients import whole_file_client
    from repro.simnest.server import SimNest

    env = Environment()
    # Fewer worker slots than jobs, so the scheduler (not free slots)
    # decides who pumps next.
    cfg = NestConfig(scheduling="stride", share_by="user",
                     shares={"vip": ratio, "guest": 1.0},
                     transfer_workers=4)
    server = SimNest(env, platform, cfg)
    for user in ("vip", "guest"):
        for i in range(4):
            path = f"/us/{user}-{i}"
            server.populate(path, 10 * MB, resident=True)
            log = ClientLog(protocol="http")
            env.process(whole_file_client(
                env, server, "http", [path] * 10_000, log, user=user))
    env.run(until=warmup)
    before = _bytes_by_user(server)
    env.run(until=horizon)
    after = _bytes_by_user(server)
    window = horizon - warmup
    return UserShareResult(
        vip_mbps=(after.get("vip", 0) - before.get("vip", 0)) / window / MB,
        guest_mbps=(after.get("guest", 0) - before.get("guest", 0)) / window / MB,
        requested_ratio=ratio,
    )


def _bytes_by_user(server) -> dict[str, int]:
    """Bytes delivered per user: completed requests plus the partial
    progress of jobs still in flight."""
    totals: dict[str, int] = dict(server.stats.bytes_by_user)
    for job in server.scheduler._jobs:
        totals[job.user] = totals.get(job.user, 0) + job.bytes_moved
    return totals


# ---------------------------------------------------------------------------
# 5. JBOS + Apache-style throttling cannot shape cross-protocol traffic
# ---------------------------------------------------------------------------


@dataclass
class ThrottleResult:
    """Mixed workload under JBOS with only the HTTP server throttled."""

    unthrottled: dict[str, float] = field(default_factory=dict)
    throttled: dict[str, float] = field(default_factory=dict)
    nfs_gain_mbps: float = 0.0  #: how much of the freed bandwidth NFS got


def run_throttle(platform: PlatformProfile = LINUX,
                 http_cap_mbps: float = 2.0,
                 horizon: float = 12.0) -> ThrottleResult:
    """Throttling Apache shapes only HTTP: the freed bandwidth goes to
    whoever TCP favours (the other whole-file protocols), not to a
    protocol an administrator might want to boost (NFS) -- NeST's
    cross-protocol stride has no JBOS equivalent."""
    result = ThrottleResult()
    base = run_mixed_protocols(platform, "jbos", protocols=PROTOCOLS,
                               horizon=horizon)
    capped = run_mixed_protocols(platform, "jbos", protocols=PROTOCOLS,
                                 horizon=horizon,
                                 throttle={"http": http_cap_mbps * MB})
    for p in PROTOCOLS:
        result.unthrottled[p] = base.bandwidth_mbps(p)
        result.throttled[p] = capped.bandwidth_mbps(p)
    result.nfs_gain_mbps = result.throttled["nfs"] - result.unthrottled["nfs"]
    return result



# ---------------------------------------------------------------------------
# 6. SEDA-style staged concurrency (§4.1's "more advanced architectures")
# ---------------------------------------------------------------------------


@dataclass
class SedaResult:
    """Mixed-overload behaviour of threads / events / seda."""

    bandwidth_mbps: dict[str, float] = field(default_factory=dict)
    small_latency_ms: dict[str, float] = field(default_factory=dict)


def run_seda_overload(platform: PlatformProfile = LINUX,
                      n_small: int = 300, n_big: int = 8,
                      horizon: float = 12.0, warmup: float = 3.0) -> SedaResult:
    """Hundreds of small cached requests plus a few disk-bound streams.

    The paper plans to investigate "more advanced concurrency
    architectures (e.g., SEDA ...)".  This ablation shows why: under
    mixed overload, thread-per-request pays growing scheduling costs,
    the event loop's small-request latency is poisoned by disk reads
    blocking the loop, and the staged design (fast path for cache hits,
    bounded disk stage for misses) keeps both metrics healthy.
    """
    from repro.sim.core import Environment
    from repro.simnest.server import SimNest

    result = SedaResult()
    for model in ("threads", "events", "seda"):
        env = Environment()
        cfg = NestConfig(transfer_workers=1024, scheduling="fcfs",
                         capacity_bytes=50 * (1 << 30))
        server = SimNest(env, platform, cfg, concurrency=model,
                         models=(model,))
        small_logs: list[ClientLog] = []
        server.populate("/hot", 4096, resident=True)
        for _ in range(n_small):
            log = ClientLog(protocol="chirp")
            small_logs.append(log)
            env.process(whole_file_client(env, server, "chirp",
                                          ["/hot"] * 100_000, log))
        for c in range(n_big):
            paths = [f"/cold/{c}-{i}" for i in range(40)]
            for p in paths:
                server.populate(p, 10 * MB, resident=False)
            log = ClientLog(protocol="chirp")
            env.process(whole_file_client(env, server, "chirp", paths, log))
        env.run(until=warmup)
        before = sum(server.stats.progress_by_protocol.values())
        env.run(until=horizon)
        after = sum(server.stats.progress_by_protocol.values())
        lats = [r.elapsed for log in small_logs for r in log.results
                if r.start >= warmup]
        result.bandwidth_mbps[model] = (after - before) / (horizon - warmup) / MB
        result.small_latency_ms[model] = (
            sum(lats) / len(lats) * 1e3 if lats else float("nan")
        )
    return result

def report_all() -> str:  # pragma: no cover - convenience entry point
    """Run every ablation and render a combined report."""
    lines = []
    ca = run_cache_aware()
    lines += [
        "Ablation: cache-aware vs FIFO",
        f"  mean response  fifo={ca.fifo_mean_response:.2f}s "
        f"cache-aware={ca.cache_aware_mean_response:.2f}s",
        f"  cached-only    fifo={ca.fifo_cached_response:.2f}s "
        f"cache-aware={ca.cache_aware_cached_response:.2f}s",
        f"  throughput     fifo={ca.fifo_throughput_mbps:.1f} "
        f"cache-aware={ca.cache_aware_throughput_mbps:.1f} MB/s",
    ]
    idle = run_idleness()
    lines += [
        "Ablation: work-conserving vs anticipatory stride (1:1:1:4)",
        f"  fairness  wc={idle.work_conserving_fairness:.3f} "
        f"anticipatory={idle.anticipatory_fairness:.3f}",
        f"  total     wc={idle.work_conserving_total_mbps:.1f} "
        f"anticipatory={idle.anticipatory_total_mbps:.1f} MB/s",
    ]
    enf = run_enforcement()
    lines += [
        "Ablation: lot enforcement",
        f"  200MB write  quota={enf.quota_write_mbps:.1f} "
        f"nest-managed={enf.nest_write_mbps:.1f} MB/s",
        f"  overfill one lot allowed?  quota={enf.quota_allows_overfill} "
        f"nest={enf.nest_allows_overfill}",
    ]
    seda = run_seda_overload()
    lines += [
        "Ablation: SEDA staged concurrency under mixed overload",
        f"  bandwidth MB/s   { {k: round(v, 1) for k, v in seda.bandwidth_mbps.items()} }",
        f"  small-req ms     { {k: round(v, 1) for k, v in seda.small_latency_ms.items()} }",
    ]
    shares = run_user_shares()
    lines += [
        "Ablation: per-user proportional shares (3:1, same protocol)",
        f"  vip={shares.vip_mbps:.1f} guest={shares.guest_mbps:.1f} MB/s "
        f"achieved={shares.achieved_ratio:.2f}",
    ]
    thr = run_throttle()
    lines += [
        "Ablation: JBOS + Apache-style HTTP throttle",
        f"  unthrottled {thr.unthrottled}",
        f"  throttled   {thr.throttled}",
        f"  NFS gained  {thr.nfs_gain_mbps:.1f} MB/s of the freed bandwidth",
    ]
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    from repro.obs.log import console

    console(report_all())

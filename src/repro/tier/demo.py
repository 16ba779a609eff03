"""The tiering + autoscaling acceptance demo (CLI ``repro tier demo``).

Two harnesses:

* :func:`run_crash_harness` -- the deterministic half.  A tiered store
  journaling through a real durability manager is killed (simulated
  SIGKILL via :class:`~repro.faults.disk.DiskFaultPlan`) at *every*
  journal boundary of a migrate + recall + rename script; each time, a
  fresh boot must recover every file intact in exactly one tier.  This
  is the "residency survives a mid-migration crash" proof.

* :func:`run_tier_demo` -- the live half.  A small fleet where one
  appliance tiers its storage; three hot files take a skewed flash
  crowd while cold files are demoted and recalled on miss.  The
  overloaded appliance's autoscaler must absorb the crowd by
  replicating the hot files to under-loaded peers with **zero**
  client-visible read errors.

The returned record is what ``repro tier demo`` prints and what
``tests/tier`` asserts on (absorption, zero read errors, crash-sweep
survival); its throughput fields describe this one run and are kept
nowhere.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from repro.client.chirp import ChirpClient
from repro.durability import DurabilityManager
from repro.faults.disk import DiskFaultPlan, SimulatedCrash
from repro.nest.backends import MemoryStore
from repro.nest.storage import StorageManager
from repro.obs.log import get_logger
from repro.replica.federation import FederatedClient
from repro.replica.fleet import Fleet
from repro.tier.store import COLD, HOT, TieredStore

logger = get_logger(__name__)

__all__ = ["run_crash_harness", "run_tier_demo", "render_tier_status"]


# ---------------------------------------------------------------------------
# deterministic crash harness: migrate/recall under fire
# ---------------------------------------------------------------------------
_PAYLOADS = {
    "/data/alpha": b"A" * 4096,
    "/data/beta": b"B" * 2048,
    "/data/gamma": b"C" * 1024,
}

#: The COLD file the workload renames, and its new name.
_RENAME = ("/data/gamma", "/data/delta")


def _put(storage: StorageManager, path: str, data: bytes) -> None:
    ticket = storage.approve_put("anonymous", path, len(data))
    ticket.stream.write(data)
    ticket.settle(len(data))


def _tier_boot(state_dir: str, fast: MemoryStore, cold: MemoryStore,
               faults: DiskFaultPlan | None = None):
    tiered = TieredStore(fast, cold)
    storage = StorageManager(store=tiered, capacity_bytes=1 << 20)
    manager = DurabilityManager(str(state_dir), fsync=False, faults=faults)
    report = manager.recover_into(storage, tier=tiered)
    return storage, tiered, manager, report


def _tier_workload(storage: StorageManager, tiered: TieredStore) -> None:
    """Puts, demotions, a recall, a write-over-cold and a rename of a
    COLD file: every tier journal record type crosses the journal at
    least once."""
    storage.mkdir("anonymous", "/data")
    for path, data in _PAYLOADS.items():
        _put(storage, path, data)
    tiered.migrate("/data/alpha")
    tiered.migrate("/data/beta")
    tiered.migrate("/data/gamma")
    # Recall on miss.
    ticket = storage.approve_get("anonymous", "/data/alpha")
    got = bytearray()
    while chunk := ticket.stream.read(4096):
        got += chunk
    assert bytes(got) == _PAYLOADS["/data/alpha"]
    ticket.stream.close()
    # Overwrite a cold file: the new hot bytes must win.
    _put(storage, "/data/beta", _PAYLOADS["/data/beta"] + b"!")
    # Rename a cold file: its residency moves, its bytes stay cold.
    storage.rename("anonymous", *_RENAME)


def _workload_records(tmp_dir: str) -> int:
    fast, cold = MemoryStore(), MemoryStore()
    storage, tiered, manager, _ = _tier_boot(f"{tmp_dir}/probe", fast, cold)
    _tier_workload(storage, tiered)
    n = manager.journal.last_seq
    manager.close(snapshot=False)
    return n


def _expected_sizes() -> dict[str, int]:
    """Each file's size under its name when the workload is done."""
    sizes = {path: len(data) for path, data in _PAYLOADS.items()}
    sizes["/data/beta"] += 1  # the overwrite appends one byte
    old, new = _RENAME
    sizes[new] = sizes.pop(old)
    return sizes


def run_crash_harness(tmp_dir: str) -> dict[str, Any]:
    """Kill the tiered appliance at every journal boundary; each boot
    must recover every file intact in exactly one tier.

    Returns ``{"crash_points": n, "survived": bool, "failures": [...]}``.
    """
    total = _workload_records(tmp_dir)
    failures: list[str] = []
    first_sizes = {path: len(data) for path, data in _PAYLOADS.items()}
    final_sizes = _expected_sizes()
    for k in range(1, total + 1):
        state_dir = f"{tmp_dir}/state{k}"
        fast, cold = MemoryStore(), MemoryStore()
        storage, tiered, manager, _ = _tier_boot(
            state_dir, fast, cold, faults=DiskFaultPlan.crash_at_record(k))
        crashed = False
        try:
            _tier_workload(storage, tiered)
        except SimulatedCrash:
            crashed = True
        finally:
            try:
                manager.journal.close()
            except OSError:
                pass
        if not crashed:
            failures.append(f"point {k}: crash never fired")
            continue
        s2, t2, m2, report = _tier_boot(state_dir, fast, cold)
        # Residency must have settled: only HOT/COLD remain, and every
        # surviving file's bytes are whole in exactly the tier its
        # residency names.
        for path, state in t2.residency.items():
            if state not in (HOT, COLD):
                failures.append(f"point {k}: {path} stuck {state}")
        for path in sorted(set(_PAYLOADS) | set(final_sizes)):
            if s2.exists(path) != t2.exists(path):
                failures.append(f"point {k}: {path} namespace and store "
                                f"disagree")
            if not t2.exists(path):
                continue  # crashed before this file's put committed
            got = t2.size(path)
            if got not in (first_sizes.get(path), final_sizes.get(path)):
                failures.append(
                    f"point {k}: {path} has {got} bytes between tiers")
            state = t2.state_of(path)
            if path == _RENAME[1] and state != COLD:
                failures.append(f"point {k}: {path} recalled by rename")
            in_fast = t2.fast.exists(path)
            in_cold = t2.cold.exists(path)
            if state == HOT and not in_fast:
                failures.append(f"point {k}: {path} HOT without fast bytes")
            if state == COLD and not in_cold:
                failures.append(f"point {k}: {path} COLD without cold bytes")
            if in_fast and in_cold:
                failures.append(f"point {k}: {path} doubled across tiers")
        m2.close(snapshot=False)
    return {
        "crash_points": total,
        "survived": not failures,
        "failures": failures[:10],
    }


# ---------------------------------------------------------------------------
# live flash-crowd demo
# ---------------------------------------------------------------------------
def run_tier_demo(
    sites: int = 3,
    hot_files: int = 3,
    hot_bytes: int = 48 * 1024,
    cold_files: int = 4,
    cold_bytes: int = 64 * 1024,
    crowd_threads: int = 6,
    crowd_reads: int = 12,
    scale_deadline: float = 20.0,
    tmp_dir: str | None = None,
) -> dict[str, Any]:
    """Flash crowd + concurrent migration/recall, end to end.

    One appliance (``tier-0``) runs hierarchical tiers; every appliance
    runs an autoscaler with deliberately twitchy thresholds.  Three hot
    files take a skewed crowd through the federated client while cold
    files are demoted to the cold tier and read back (recall on miss).
    The crowd is a closed loop defined by its outcome, not its length:
    each reader makes at least ``crowd_reads`` reads and keeps reading
    until every hot file has a second holder or ``scale_deadline``
    passes -- a crowd counted in reads alone is over before the
    autoscaler's second tick when a read takes half a millisecond.
    Success: zero client-visible errors, every hot file replicated to a
    second site, all cold data intact, and (when ``tmp_dir`` is given)
    the crash harness green.
    """
    started = time.perf_counter()
    fleet = Fleet(sites=sites, name_prefix="tier",
                  readvertise_interval=0.2, ad_ttl=5.0,
                  cold_stores={"tier-0": MemoryStore()})
    origin = fleet.server("tier-0")
    # The demo demotes by hand (scan_once) for determinism.
    # demote_after=0 makes every file old enough; the heat ceiling is
    # what keeps the crowd's files in the fast tier.
    origin.tier_manager.interval = 0.0
    origin.tier_manager.policy.demote_after = 0.0
    for server in fleet.servers.values():
        if server is not origin:
            server.heat.halflife = 5.0
    record: dict[str, Any] = {
        "benchmark": "tier_flash_crowd_demo",
        "sites": sites,
        "hot_files": hot_files,
        "hot_bytes": hot_bytes,
        "cold_files": cold_files,
        "cold_bytes": cold_bytes,
    }
    with fleet:
        catalog, replicator, client = fleet.federate(
            target_count=1, policy="load", data_protocol="chirp")
        # Twitchy autoscalers: two consecutive ticks (the default
        # hysteresis) of >= 8 req/s, or any queueing, trigger a
        # scale-out.
        scalers = [server.attach_autoscaler(
                       replicator, rate_high=8.0, queue_high=2.0,
                       cooldown=0.5, interval=0.2,
                       max_replicas=max(2, sites - 1))
                   for server in fleet.servers.values()]
        #: set once the crowd is absorbed or the deadline passes.
        crowd_over = threading.Event()
        try:
            payloads = {
                f"hot-{i}.dat": bytes([65 + i]) * hot_bytes
                for i in range(hot_files)
            }
            for logical, data in payloads.items():
                replicator.store(logical, data)

            # -- cold data on the tiered appliance -----------------------
            cold_payloads = {
                f"/colddata/c{i}.dat": bytes([97 + i]) * cold_bytes
                for i in range(cold_files)
            }
            origin.storage.mkdir("anonymous", "/colddata")
            for path, data in cold_payloads.items():
                _put(origin.storage, path, data)

            # Warm the hot files' heat on the origin so the demotion
            # policy (heat ceiling) keeps them in the fast tier while
            # everything genuinely cold goes down.
            host, port = origin.endpoint("chirp")
            warm = ChirpClient(host, port)
            try:
                for logical in payloads:
                    warm.get(f"/replicas/{logical}")
            finally:
                warm.close()

            # -- flash crowd on the hot files ----------------------------
            errors = [0]
            reads = [0]
            lock = threading.Lock()
            hot_names = list(payloads)

            def crowd(seed: int) -> None:
                # One federated client per reader: the client pins one
                # connection per site, so sharing one across threads
                # would interleave protocol frames.
                mine = FederatedClient(
                    catalog, fleet.collector, replicator,
                    credential=fleet.credential, data_protocol="chirp")
                try:
                    j = 0
                    while j < crowd_reads or not crowd_over.is_set():
                        logical = hot_names[(seed + j) % len(hot_names)]
                        j += 1
                        try:
                            got = mine.read(logical)
                            ok = got == payloads[logical]
                        except Exception:  # noqa: BLE001 - counted below
                            ok = False
                        with lock:
                            reads[0] += 1
                            if not ok:
                                errors[0] += 1
                finally:
                    mine.close()

            threads = [threading.Thread(target=crowd, args=(i,), daemon=True)
                       for i in range(crowd_threads)]
            for t in threads:
                t.start()

            # -- concurrent demotion + recall on miss --------------------
            t0 = time.perf_counter()
            migrated = origin.tier_manager.scan_once()
            migrate_seconds = time.perf_counter() - t0
            migrated_bytes = sum(len(cold_payloads[p]) for p in migrated
                                 if p in cold_payloads)
            recall_errors = 0
            recalled_bytes = 0
            t0 = time.perf_counter()
            chirp = ChirpClient(host, port)
            try:
                for path, data in cold_payloads.items():
                    got = chirp.get(path)
                    recalled_bytes += len(got)
                    if got != data:
                        recall_errors += 1
            finally:
                chirp.close()
            recall_seconds = time.perf_counter() - t0

            # -- the crowd reads on until the autoscalers absorb it ------
            deadline = time.monotonic() + scale_deadline
            def spread() -> dict[str, int]:
                return {logical: len(catalog.valid_locations(logical))
                        for logical in payloads}
            while (min(spread().values()) < 2
                   and time.monotonic() < deadline):
                time.sleep(0.1)
            crowd_over.set()
            for t in threads:
                t.join()
            replica_spread = spread()

            # Post-crowd reads must also be clean (served by any holder).
            for logical, data in payloads.items():
                if client.read(logical) != data:
                    errors[0] += 1
                reads[0] += 1

            residency = {path: origin.tiered.state_of(path)
                         for path in cold_payloads}
            elapsed = time.perf_counter() - started
            record.update({
                "reads": reads[0],
                "read_errors": errors[0] + recall_errors,
                "replica_spread": replica_spread,
                "absorbed": min(replica_spread.values()) >= 2,
                "migrated_files": len(migrated),
                "migrated_bytes": migrated_bytes,
                "migrate_mbps": round(
                    migrated_bytes / max(migrate_seconds, 1e-9) / 1e6, 3),
                "recalled_bytes": recalled_bytes,
                "recall_mbps": round(
                    recalled_bytes / max(recall_seconds, 1e-9) / 1e6, 3),
                "cold_residency": residency,
                "autoscalers": {s.name: s.describe() for s in scalers},
                "seconds": round(elapsed, 4),
            })
        finally:
            crowd_over.set()  # a failed run must not leave readers spinning
            for scaler in scalers:
                scaler.stop()
    if tmp_dir is not None:
        crash = run_crash_harness(tmp_dir)
        record["crash_points"] = crash["crash_points"]
        record["migration_crash_survived"] = crash["survived"]
        if crash["failures"]:
            record["crash_failures"] = crash["failures"]
    record["ok"] = bool(
        record.get("read_errors", 1) == 0
        and record.get("absorbed", False)
        and record.get("migration_crash_survived", True))
    return record


def render_tier_status(record: dict[str, Any]) -> str:
    """Human-readable summary of a demo record (CLI ``tier status``)."""
    lines = [
        f"flash crowd: {record.get('reads', 0)} reads, "
        f"{record.get('read_errors', '?')} errors",
        f"absorbed: {record.get('absorbed')} "
        f"(spread {record.get('replica_spread', {})})",
        f"migration: {record.get('migrated_files', 0)} file(s), "
        f"{record.get('migrate_mbps', 0)} MB/s down, "
        f"{record.get('recall_mbps', 0)} MB/s back",
        f"cold residency after recall: {record.get('cold_residency', {})}",
    ]
    if "migration_crash_survived" in record:
        lines.append(
            f"crash harness: {record.get('crash_points', 0)} points, "
            f"survived={record['migration_crash_survived']}")
    lines.append(f"ok: {record.get('ok')}")
    return "\n".join(lines)

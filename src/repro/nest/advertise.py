"""ClassAd advertisement of resource and data availability.

"The dispatcher also periodically consolidates information about
resource and data availability in the NeST and can publish this
information as a ClassAd into a global scheduling system" (paper,
section 2.1).  A global execution manager then discovers NeSTs by
matchmaking request ads against these advertisements
(:mod:`repro.grid.discovery`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.classads import ClassAd
from repro.classads.parser import parse_expression
from repro.obs.log import get_logger
from repro.protocols.runtime import Periodic

if TYPE_CHECKING:  # pragma: no cover
    from repro.nest.storage import StorageManager

logger = get_logger(__name__)


def build_advertisement(
    name: str,
    storage: "StorageManager",
    protocols: list[str] | tuple[str, ...],
    host: str = "localhost",
    ports: dict[str, int] | None = None,
    health: dict[str, Any] | None = None,
) -> ClassAd:
    """Consolidate one NeST's state into its availability ClassAd.

    The ad carries the attributes a global scheduler needs: total and
    free space, space grantable as a new lot (free + reclaimable
    best-effort), the protocol list, and a standard Requirements
    expression accepting storage requests that fit.  ``health`` merges
    the live measured-performance block
    (:meth:`repro.obs.health.HealthMonitor.ad_attributes`) -- rolling
    throughput, queue depth, per-protocol error rates -- so
    matchmakers can rank NeSTs by what they are *doing*, not just what
    they could hold.
    """
    lots = storage.lots
    free_for_lot = lots.available_for_new_lot() + lots.reclaimable_bytes()
    ad = ClassAd(
        {
            "Type": "Storage",
            "Name": name,
            "Host": host,
            "Protocols": list(protocols),
            "TotalSpace": storage.capacity_bytes,
            "UsedSpace": storage.used_bytes,
            "FreeSpace": storage.capacity_bytes - storage.used_bytes,
            "GrantableSpace": free_for_lot,
            "ActiveLots": sum(
                1 for l in lots.lots.values() if l.state.value == "active"
            ),
            "FilesStored": _count_files(storage),
        }
    )
    if ports:
        for proto, port in ports.items():
            ad[f"{proto.capitalize()}Port"] = port
    if health:
        for attr, value in health.items():
            ad[attr] = value
    ad["Requirements"] = parse_expression(
        "other.Type == \"Request\" && other.RequestedSpace <= my.GrantableSpace"
    )
    return ad


class Advertiser(Periodic):
    """One appliance's ad in a collector -- the server's "advertisement"
    part.

    :meth:`start` publishes the ad and begins the heartbeat (thread
    ``nest-advertise-<name>``) that re-publishes it every ``interval``
    seconds, before the collector's TTL lets it lapse; :meth:`stop`
    ends the heartbeat and withdraws the ad, so a stopping appliance
    leaves matchmaking at once -- unless the stop is a crash (``grace``
    None), which leaves the ad to lapse.  Until :meth:`retarget` names a
    collector there is nothing to publish or withdraw.
    """

    def __init__(self, name: str, build: Callable[[], ClassAd]):
        super().__init__(f"nest-advertise-{name}", 0.0, self.publish)
        self.name = name
        self.build = build
        self.collector = None
        self.ttl: float | None = None

    def retarget(self, collector, ttl: float | None, interval: float) -> None:
        """Advertise into ``collector`` with ``ttl``, every ``interval``
        seconds (0: a one-shot ad).  A changed period stops the running
        heartbeat -- joined, never left re-reading the period -- and the
        next :meth:`start` begins the new one."""
        if interval != self.interval:
            Periodic.stop(self)
            self.interval = interval
        self.collector, self.ttl = collector, ttl

    def start(self) -> "Advertiser":
        self.publish()
        return super().start()

    def stop(self, grace: float | None = None) -> None:
        super().stop()
        if self.collector is not None and grace is not None:
            try:
                self.collector.withdraw(self.name)
            except Exception:  # noqa: BLE001 - withdrawal is best-effort
                logger.warning("%s: advertisement withdraw failed",
                               self.name, exc_info=True)

    def publish(self) -> None:
        if self.collector is None:
            return
        try:
            self.collector.advertise(self.build(), ttl=self.ttl)
        except Exception:  # noqa: BLE001 - ads are best-effort
            logger.warning("%s: advertisement publish failed",
                           self.name, exc_info=True)


def storage_request_ad(
    requested_space: int,
    protocol: str | None = None,
    rank: str = "other.GrantableSpace",
) -> ClassAd:
    """Build the request ad an execution manager submits for matching."""
    requirements = 'other.Type == "Storage"'
    if protocol:
        requirements += f' && member("{protocol}", other.Protocols)'
    ad = ClassAd({"Type": "Request", "RequestedSpace": int(requested_space)})
    ad["Requirements"] = parse_expression(requirements)
    ad["Rank"] = parse_expression(rank)
    return ad


def throughput_request_ad(
    requested_space: int,
    protocol: str | None = None,
) -> ClassAd:
    """A request ad ranking candidates by *measured* throughput.

    Uses the live-health ``ThroughputMBps`` attribute the appliance
    advertises, so the matchmaker prefers the NeST that is actually
    moving data fastest right now over the one with the most free
    space -- observed performance as the selection signal.
    """
    return storage_request_ad(
        requested_space, protocol=protocol, rank="other.ThroughputMBps"
    )


def _count_files(storage: "StorageManager") -> int:
    from repro.nest.storage import DirNode

    count = 0
    stack = [storage.root]
    while stack:
        node = stack.pop()
        for child in node.children.values():
            if isinstance(child, DirNode):
                stack.append(child)
            else:
                count += 1
    return count

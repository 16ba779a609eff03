"""NeST: the Grid storage appliance (the paper's primary contribution).

The four major components of Figure 1, plus their supporting policy
modules:

* **protocol layer** -- live socket handlers in
  :mod:`repro.nest.handlers` translate each wire protocol to the common
  request interface of :mod:`repro.protocols.common`;
* **dispatcher** -- :mod:`repro.nest.dispatcher` routes requests:
  transfers to the transfer manager, everything else synchronously to
  the storage manager, and periodically publishes a ClassAd of
  resource/data availability (:mod:`repro.nest.advertise`);
* **storage manager** -- :mod:`repro.nest.storage` virtualizes physical
  storage behind pluggable backends, enforces ACLs
  (:mod:`repro.nest.acl`) and lots (:mod:`repro.nest.lots`);
* **transfer manager** -- :mod:`repro.nest.transfer` moves data between
  protocol connections under pluggable schedulers
  (:mod:`repro.nest.scheduling`: FCFS, proportional-share stride,
  cache-aware); which concurrency architecture serves a connection is
  chosen adaptively per accept (:mod:`repro.nest.concurrency`).

The schedulers are *pure* data structures, shared verbatim between
this live server and the simulated substrate in :mod:`repro.simnest`
-- the reproduction's embodiment of the paper's claim that
transfer-manager optimizations apply to every protocol at once.
"""

from repro.nest.config import NestConfig
from repro.nest.storage import StorageManager
from repro.nest.lots import Lot, LotManager, LotError
from repro.nest.acl import AccessControl, Rights
from repro.nest.auth import CertificateAuthority, Credential, GSIContext

__all__ = [
    "NestConfig",
    "StorageManager",
    "Lot",
    "LotManager",
    "LotError",
    "AccessControl",
    "Rights",
    "CertificateAuthority",
    "Credential",
    "GSIContext",
]

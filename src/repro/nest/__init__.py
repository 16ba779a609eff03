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

The package re-exports nothing on purpose: importing one policy module
(as the simulator does) must not load the live server, its sockets or
the authentication layer's OpenSSL.
"""

"""Hardware and operating-system models for the simulated substrate.

The NeST paper's evaluation ran on 2002 hardware: Pentium/Linux-2.2
machines with IBM 9LZX disks on Gigabit Ethernet, and Netra-T1/Solaris-8
machines on 100 Mbit Ethernet.  These modules model that testbed on top
of the DES kernel in :mod:`repro.sim`:

* :mod:`repro.models.network` -- a max-min fair-share link (TCP flows
  sharing a switch port),
* :mod:`repro.models.disk` -- a seek-aware disk with serialized access,
* :mod:`repro.models.cache` -- an LRU kernel buffer cache (block
  bookkeeping; the *time* of hits/misses is charged by the filesystem),
* :mod:`repro.models.quota` -- per-user disk quotas and the synchronous
  quota-update traffic they add,
* :mod:`repro.models.filesystem` -- the composition: a local filesystem
  with write-behind caching, quota enforcement, and space accounting,
* :mod:`repro.models.platform` -- per-platform cost profiles ("linux",
  "solaris") covering thread/process/event dispatch costs, NIC and disk
  speeds, and cache sizes.

Calibration targets come from the paper's own measurements (e.g. the
delivered single-protocol peak of ~35 MB/s on the GigE cluster) --
see DESIGN.md section 1.

The package re-exports nothing on purpose: the live gray-box shadow
(:mod:`repro.nest.graybox`) imports the cache model alone and must not
load the DES kernel with it.
"""

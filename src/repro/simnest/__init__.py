"""The simulated substrate: NeST and JBOS on the DES testbed.

This package binds the *pure* NeST policy code (schedulers, storage
manager) to the modelled 2002 testbed of :mod:`repro.models`, so the
paper's performance experiments run deterministically at laptop scale:

* :mod:`repro.simnest.protocolspec` -- per-protocol wire behaviour
  constants (setup round trips, per-request CPU, block vs whole-file
  framing), calibrated against Fig. 3;
* :mod:`repro.simnest.gate` -- the pump gate that enforces a
  scheduler's decisions over concurrent transfers;
* :mod:`repro.simnest.concurrency` -- the per-transfer concurrency-model
  selector of Fig. 5 (fixed, or explore-then-bias adaptive);
* :mod:`repro.simnest.server` -- :class:`SimNest` (one appliance, all
  protocols, shared transfer manager) and :class:`SimJbos` (the "Just a
  Bunch Of Servers" baseline: independent native servers sharing only
  the hardware);
* :mod:`repro.simnest.clients` -- client processes: whole-file
  fetch/store sessions and block-based NFS readers;
* :mod:`repro.simnest.workload` -- the paper's workloads (e.g. four
  clients requesting 10 MB files per protocol) and measurement
  plumbing.
"""

from repro.simnest.protocolspec import ProtocolSpec, spec_for, DEFAULT_SPECS
from repro.simnest.server import SimNest, SimJbos
from repro.simnest.clients import FetchResult
from repro.simnest.workload import (
    WorkloadResult,
    run_single_protocol,
    run_mixed_protocols,
)

__all__ = [
    "ProtocolSpec",
    "spec_for",
    "DEFAULT_SPECS",
    "SimNest",
    "SimJbos",
    "FetchResult",
    "WorkloadResult",
    "run_single_protocol",
    "run_mixed_protocols",
]

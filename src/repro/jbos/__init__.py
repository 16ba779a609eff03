"""JBOS: "Just a Bunch Of Servers" -- the paper's baseline (§3).

The alternative to NeST's single multi-protocol server is to run one
*native* server per protocol side by side: wu-ftpd, Apache, the kernel
nfsd, and the Globus GridFTP server.  This package provides live
stand-ins for those: small, independent, single-protocol servers that
share only a data directory.

What a daemon shares with NeST is how its protocol is *spoken*: the
codec and the session (request loop, verb table, reply encoding, data
channels) are the classes in :mod:`repro.protocols` that NeST's own
handlers run, so the two sides cannot drift on the wire.  What it does
not share -- because the point of the comparison is their absence, and
``scripts/lint_datapath.py`` (rule 5) checks the imports:

* no storage manager -- a flat in-memory store, every path open to
  everyone;
* no shared transfer manager and no scheduler -- each connection copies
  its own bytes, so nothing can schedule *across* protocols;
* no lots, no ClassAd ACLs, no advertisement.

The one cross-cutting control a JBOS admin does have is Apache-style
per-server bandwidth throttling (:mod:`repro.jbos.throttle`), which the
paper contrasts with NeST's proportional-share scheduling: it "only
applies to the HTTP requests the Apache server processes".
"""

from repro.jbos.store import SimpleStore
from repro.jbos.throttle import Throttle
from repro.jbos.manager import (
    JbosManager,
    NativeChirpd,
    NativeFtpd,
    NativeGridFtpd,
    NativeHttpd,
    NativeNfsd,
)

__all__ = [
    "SimpleStore",
    "Throttle",
    "NativeHttpd",
    "NativeFtpd",
    "NativeGridFtpd",
    "NativeNfsd",
    "NativeChirpd",
    "JbosManager",
]

"""Wire protocols and the common request interface.

The paper's central flexibility mechanism is the *virtual protocol
layer* (section 3): every protocol handler transforms its own wire
format to and from a **common request interface** understood by the
rest of NeST, much like the VFS layer in an operating system.

This package provides:

* :mod:`repro.protocols.common` -- the common request/response objects
  and stream helpers shared by all protocols;
* :mod:`repro.protocols.runtime` -- socket tuning and the accept and
  periodic loops every live server shares;
* :mod:`repro.protocols.chirp` -- Chirp, NeST's native text protocol
  (the only protocol with lot management and ACL operations);
* :mod:`repro.protocols.http` -- an HTTP/1.0 subset (GET/PUT/HEAD);
* :mod:`repro.protocols.ftp` -- an FTP subset (RFC 765 lineage):
  control/data channels, passive mode, RETR/STOR/LIST/MKD/DELE;
* :mod:`repro.protocols.gridftp` -- FTP extended with GSI
  authentication (ADAT), extended-block mode (MODE E) with parallel
  data streams, and third-party transfers;
* :mod:`repro.protocols.nfs` -- a restricted NFS subset: framed
  RPC with XDR-style marshalling, file handles, MOUNT and LOOKUP,
  block-granular READ/WRITE (the only *block-based* protocol, which
  matters for byte-based stride scheduling).

Codecs are written against buffered binary streams so the same code
serves the live socket servers, the clients, and the unit tests.

**Sessions.**  Beside its codec each module holds the protocol's
*session* -- ``ChirpSession``, ``HttpSession``, ``FtpSession``,
``GridFtpSession``, ``NfsSession``: request loop, verb table, reply
encoding, data channels -- written once as a mixin over the connection
object that hosts it.  A session knows nothing of its server beyond
this **host contract**:

* ``rfile`` / ``wfile`` / ``user`` (``AUTH`` and ``ADAT`` assign it);
* ``files``: ``stat``, ``listdir``, ``mkdir``, ``rmdir``, ``delete``
  ``(user, path)``, ``exists(path)``, ``approve_get/put/read/write``
  -> a :class:`~repro.protocols.common.TransferTicket`, and
  ``execute(request) -> Response`` for every other Chirp verb; failures
  are :class:`~repro.protocols.common.StorageError`;
* the door: ``send(ticket, sink=None, mover=None)`` and
  ``receive(ticket, source=None, length=-1, mover=None)`` move a
  ticket's bytes and settle it, returning ``(moved, crc)``;
* ``request_scope(op, path="", trace=None)`` around each request and
  ``mark_request_error()`` for failures answered in-band;
* the environment: ``gsi`` (``challenge``/``accept``, or None where
  nothing authenticates) with ``map_subject(subject)``, the ``host``
  data-channel listeners bind, ``faults`` (a plan whose ``wrap_socket``
  sees each data socket, or None), and NFS's ``fhandles`` registry.

NeST's ``ConnectionHandler`` is one host, the native daemons'
connection class the other.  A session never asks which it has: a
difference is a difference in what the host provides.
"""

from repro.protocols.common import (
    Request,
    Response,
    RequestType,
    Status,
    ProtocolError,
    PROTOCOL_NAMES,
)

__all__ = [
    "Request",
    "Response",
    "RequestType",
    "Status",
    "ProtocolError",
    "PROTOCOL_NAMES",
]

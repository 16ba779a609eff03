"""A minimal standalone Chirp file server.

Chirp has no "native" third-party implementation -- it is NeST's own
protocol -- so the JBOS bunch carries this bare file server: get/put
and directory operations only, no lots, no ACLs, no authentication.
Its existence makes the single-protocol Chirp comparison in Fig. 3
meaningful.
"""

from __future__ import annotations

import json
import socket
import zlib

from repro.jbos.base import NativeServer
from repro.jbos.store import SimpleStoreError
from repro.protocols import chirp
from repro.protocols.common import (
    ProtocolError,
    RequestType,
    Response,
    Status,
    read_exact,
    read_line,
    write_line,
)


class NativeChirpd(NativeServer):
    """Single-protocol Chirp server over a :class:`SimpleStore`."""

    protocol = "chirp"

    def handle(self, conn: socket.socket, addr) -> None:
        rfile = conn.makefile("rb")
        wfile = conn.makefile("wb")
        try:
            while True:
                try:
                    line = read_line(rfile)
                    request = chirp.decode_request(line)
                except ProtocolError:
                    return
                try:
                    if not self._serve(request, rfile, wfile):
                        return
                except SimpleStoreError as exc:
                    write_line(wfile, chirp.encode_response(
                        Response(Status.NOT_FOUND, message=str(exc))))
        finally:
            wfile.close()
            rfile.close()

    def _serve(self, request, rfile, wfile) -> bool:
        store = self.store
        if request.rtype is RequestType.QUIT:
            write_line(wfile, "ok")
            return False
        if request.rtype is RequestType.GET:
            data = store.read(request.path)
            write_line(wfile, chirp.encode_response(Response(Status.OK),
                                                    [str(len(data))]),
                       flush=False)
            self.send_all(wfile, data)
        elif request.rtype is RequestType.PUT:
            write_line(wfile, "ok")
            data = read_exact(rfile, request.length)
            store.write(request.path, data)
            write_line(wfile, "ok")
        elif request.rtype is RequestType.CHECKSUM:
            data = store.read(request.path)
            write_line(wfile, chirp.encode_response(
                Response(Status.OK),
                [str(zlib.crc32(data) & 0xFFFFFFFF), str(len(data))]))
        elif request.rtype is RequestType.STAT:
            size = store.size(request.path)
            kind = "dir" if store.is_dir(request.path) else "file"
            write_line(wfile, chirp.encode_response(
                Response(Status.OK),
                chirp.encode_stat({"size": size, "type": kind, "owner": ""})))
        elif request.rtype is RequestType.MKDIR:
            store.mkdir(request.path)
            write_line(wfile, "ok")
        elif request.rtype is RequestType.RMDIR:
            store.rmdir(request.path)
            write_line(wfile, "ok")
        elif request.rtype is RequestType.DELETE:
            store.delete(request.path)
            write_line(wfile, "ok")
        elif request.rtype is RequestType.LIST:
            entries = [
                {"name": n, "type": t, "size": s, "owner": ""}
                for n, t, s in store.listdir(request.path)
            ]
            payload = json.dumps(entries).encode()
            write_line(wfile, chirp.encode_response(Response(Status.OK),
                                                    [str(len(payload))]),
                       flush=False)
            wfile.write(payload)
            wfile.flush()
        else:
            write_line(wfile, chirp.encode_response(
                Response(Status.BAD_REQUEST,
                         message=f"chirpd has no {request.rtype.value}")))
        return True

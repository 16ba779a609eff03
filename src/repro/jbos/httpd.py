"""The native HTTP daemon ("Apache" in Fig. 3's JBOS bars)."""

from __future__ import annotations

import socket

from repro.jbos.base import NativeServer
from repro.jbos.store import SimpleStoreError
from repro.protocols import http
from repro.protocols.common import ProtocolError, Response, Status, read_exact


class NativeHttpd(NativeServer):
    """Single-protocol HTTP file server over a :class:`SimpleStore`."""

    protocol = "http"

    def handle(self, conn: socket.socket, addr) -> None:
        rfile = conn.makefile("rb")
        wfile = conn.makefile("wb")
        try:
            while True:
                try:
                    request = http.read_request(rfile)
                except ProtocolError:
                    return
                if request is None:
                    return
                keep_alive = request.params.get("keep_alive", False)
                try:
                    self._serve(request, rfile, wfile, keep_alive)
                except SimpleStoreError:
                    http.write_response_head(
                        wfile, Response(Status.NOT_FOUND), keep_alive=keep_alive
                    )
                if not keep_alive:
                    return
        finally:
            wfile.close()
            rfile.close()

    def _serve(self, request, rfile, wfile, keep_alive: bool) -> None:
        from repro.protocols.common import RequestType

        if request.rtype is RequestType.GET:
            data = self.store.read(request.path)
            http.write_response_head(wfile, Response(Status.OK),
                                     content_length=len(data),
                                     keep_alive=keep_alive, flush=False)
            self.send_all(wfile, data)
        elif request.rtype is RequestType.STAT:
            size = self.store.size(request.path)
            http.write_response_head(wfile, Response(Status.OK),
                                     content_length=size,
                                     keep_alive=keep_alive)
        elif request.rtype is RequestType.PUT:
            body = read_exact(rfile, request.length)
            self.store.write(request.path, body)
            http.write_response_head(wfile, Response(Status.OK),
                                     keep_alive=keep_alive)
        elif request.rtype is RequestType.DELETE:
            self.store.delete(request.path)
            http.write_response_head(wfile, Response(Status.OK),
                                     keep_alive=keep_alive)
        else:
            http.write_response_head(wfile, Response(Status.BAD_REQUEST),
                                     keep_alive=keep_alive)

"""The native FTP daemon ("wu-ftpd" in Fig. 3's JBOS bars)."""

from __future__ import annotations

import socket

from repro.jbos.base import NativeServer
from repro.jbos.store import SimpleStoreError
from repro.protocols import ftp
from repro.protocols.common import (
    ProtocolError,
    read_line,
    tuned,
    write_line,
)


class NativeFtpd(NativeServer):
    """Single-protocol FTP server over a :class:`SimpleStore`."""

    protocol = "ftp"
    greeting = "wu-ftpd (repro) ready"

    def handle(self, conn: socket.socket, addr) -> None:
        session = _FtpSession(self, conn)
        session.run()


class _FtpSession:
    def __init__(self, server: NativeFtpd, conn: socket.socket):
        self.server = server
        self.conn = conn
        self.rfile = conn.makefile("rb")
        self.wfile = conn.makefile("wb")
        self.cwd = "/"
        self._pasv: socket.socket | None = None
        self._port_target: tuple[str, int] | None = None

    def reply(self, code: int, text: str) -> None:
        write_line(self.wfile, ftp.format_reply(code, text))

    def resolve(self, path: str) -> str:
        if not path.startswith("/"):
            return self.cwd.rstrip("/") + "/" + path
        return path

    def run(self) -> None:
        self.reply(ftp.READY, self.server.greeting)
        while True:
            try:
                line = read_line(self.rfile)
                verb, arg = ftp.parse_command(line)
            except ProtocolError:
                return
            try:
                if not self.dispatch(verb, arg):
                    return
            except SimpleStoreError as exc:
                self.reply(ftp.ACTION_FAILED, str(exc))

    def dispatch(self, verb: str, arg: str) -> bool:
        store = self.server.store
        if verb == "USER":
            self.reply(ftp.NEED_PASSWORD, "anonymous ok")
        elif verb == "PASS":
            self.reply(ftp.LOGGED_IN, "logged in")
        elif verb == "TYPE":
            self.reply(200, "type set")
        elif verb == "NOOP":
            self.reply(200, "ok")
        elif verb == "QUIT":
            self.reply(ftp.GOODBYE, "bye")
            return False
        elif verb == "PWD":
            self.reply(ftp.PATH_CREATED, f'"{self.cwd}"')
        elif verb == "CWD":
            target = self.resolve(arg)
            if not store.is_dir(target):
                self.reply(ftp.ACTION_FAILED, "not a directory")
            else:
                self.cwd = target
                self.reply(ftp.ACTION_OK, "cwd ok")
        elif verb == "MKD":
            store.mkdir(self.resolve(arg))
            self.reply(ftp.PATH_CREATED, f'"{arg}"')
        elif verb == "RMD":
            store.rmdir(self.resolve(arg))
            self.reply(ftp.ACTION_OK, "removed")
        elif verb == "DELE":
            store.delete(self.resolve(arg))
            self.reply(ftp.ACTION_OK, "deleted")
        elif verb == "SIZE":
            self.reply(213, str(store.size(self.resolve(arg))))
        elif verb == "PASV":
            self._open_pasv()
        elif verb == "PORT":
            self._set_port(arg)
        elif verb == "RETR":
            self._retr(self.resolve(arg))
        elif verb == "STOR":
            self._stor(self.resolve(arg))
        elif verb == "LIST":
            self._list(self.resolve(arg) if arg else self.cwd)
        else:
            self.reply(ftp.NOT_IMPLEMENTED, f"{verb}?")
        return True

    # -- data connections ------------------------------------------------------
    def _open_pasv(self) -> None:
        if self._pasv is not None:
            self._pasv.close()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind((self.server.host, 0))
        listener.listen(2)
        self._pasv = listener
        self._port_target = None
        host, port = listener.getsockname()
        write_line(self.wfile, ftp.format_pasv_reply(host, port))

    def _set_port(self, arg: str) -> None:
        try:
            nums = [int(x) for x in arg.split(",")]
            self._port_target = (
                ".".join(map(str, nums[:4])), nums[4] * 256 + nums[5]
            )
        except (ValueError, IndexError):
            self.reply(ftp.SYNTAX_ERROR, "bad PORT")
            return
        if self._pasv is not None:
            self._pasv.close()
            self._pasv = None
        self.reply(200, "PORT ok")

    def _data_conn(self) -> socket.socket:
        if self._pasv is not None:
            self._pasv.settimeout(10)
            conn, _ = self._pasv.accept()
            self._pasv.close()
            self._pasv = None
            return tuned(conn)
        if self._port_target is not None:
            target, self._port_target = self._port_target, None
            return tuned(socket.create_connection(target, timeout=10))
        raise SimpleStoreError("no data connection")

    def _retr(self, path: str) -> None:
        data = self.server.store.read(path)
        self.reply(ftp.OPENING_DATA, "sending")
        conn = self._data_conn()
        out = conn.makefile("wb")
        try:
            self.server.send_all(out, data)
        finally:
            out.close()
            conn.close()
        self.reply(ftp.TRANSFER_OK, "done")

    def _stor(self, path: str) -> None:
        self.reply(ftp.OPENING_DATA, "receiving")
        conn = self._data_conn()
        chunks = []
        with conn:
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        self.server.store.write(path, b"".join(chunks))
        self.reply(ftp.TRANSFER_OK, "stored")

    def _list(self, path: str) -> None:
        entries = self.server.store.listdir(path)
        text = "".join(f"{t:<4} {s:>12} {n}\r\n" for n, t, s in entries).encode()
        self.reply(ftp.OPENING_DATA, "listing")
        conn = self._data_conn()
        try:
            conn.sendall(text)
        finally:
            conn.close()
        self.reply(ftp.TRANSFER_OK, "done")

"""GridFTP: FTP extended for the Grid (Allcock et al. draft, 2001).

On top of the FTP dialect in :mod:`repro.protocols.ftp`, GridFTP adds:

* **GSI authentication** via ``AUTH GSSAPI`` + ``ADAT`` exchanges --
  here carried over the toy PKI of :mod:`repro.nest.auth` (see
  DESIGN.md for the substitution);
* **extended block mode** (``MODE E``): data flows as framed blocks
  carrying (flags, length, offset) headers so multiple parallel data
  streams can interleave and a receiver can reassemble out-of-order
  blocks;
* **parallelism** (``OPTS RETR Parallelism=N;``) with multiple passive
  data connections (``SPAS``/one PASV per stream in this subset);
* **third-party transfers**: a client holds two control connections
  and pairs one server's passive endpoint with the other's ``PORT``.

The extended-block framing implemented here is a faithful subset of the
draft's EBLOCK: a 17-byte header of one flag byte, a 64-bit length, and
a 64-bit offset, with the EOF flag on a zero-length trailer block.
"""

from __future__ import annotations

import base64
import socket
import struct
import threading
from typing import BinaryIO, Iterator

from repro.nest.auth import AuthError
from repro.protocols import common, ftp
from repro.protocols.common import ProtocolError, read_exact
from repro.protocols.runtime import tuned

#: EBLOCK header: flags byte, 64-bit big-endian length and offset.
_HEADER = struct.Struct(">BQQ")
HEADER_SIZE = _HEADER.size

#: Flag bits (from the GridFTP draft's extended-block mode).
FLAG_EOF = 0x40
FLAG_EOD = 0x08

#: Largest extended block a receiver will buffer.  The header's length
#: is 64 bits of peer-supplied data; senders here stripe at 256 KiB.
MAX_BLOCK_BYTES = 16 * 1024 * 1024

#: Most parallel data streams ``OPTS RETR Parallelism=`` may ask for
#: (``SPAS`` opens one listening socket per stream).
MAX_PARALLELISM = 16


def write_block(stream: BinaryIO, offset: int, payload: bytes, flags: int = 0) -> None:
    """Write one extended block."""
    stream.write(_HEADER.pack(flags, len(payload), offset))
    if payload:
        stream.write(payload)
    stream.flush()


def write_eod(stream: BinaryIO, eof: bool = False) -> None:
    """Write the end-of-data trailer block (optionally also end-of-file)."""
    flags = FLAG_EOD | (FLAG_EOF if eof else 0)
    stream.write(_HEADER.pack(flags, 0, 0))
    stream.flush()


def read_block(stream: BinaryIO) -> tuple[int, int, bytes]:
    """Read one extended block; returns (flags, offset, payload)."""
    header = read_exact(stream, HEADER_SIZE)
    flags, length, offset = _HEADER.unpack(header)
    if length > MAX_BLOCK_BYTES:
        raise ProtocolError(
            f"extended block of {length} bytes exceeds {MAX_BLOCK_BYTES}")
    payload = read_exact(stream, length) if length else b""
    return flags, offset, payload


def iter_blocks(stream: BinaryIO) -> Iterator[tuple[int, bytes]]:
    """Yield (offset, payload) blocks until the EOD trailer."""
    while True:
        flags, offset, payload = read_block(stream)
        if payload:
            yield offset, payload
        if flags & FLAG_EOD:
            return


def stripe_ranges(total: int, streams: int, block: int) -> list[list[tuple[int, int]]]:
    """Partition ``[0, total)`` into per-stream round-robin block ranges.

    Stream ``i`` carries blocks ``i, i+streams, i+2*streams, ...`` of
    size ``block`` -- the round-robin striping parallel GridFTP senders
    use.  Returns, per stream, a list of (offset, length) extents.
    """
    if streams < 1 or block < 1:
        raise ProtocolError("invalid striping parameters")
    out: list[list[tuple[int, int]]] = [[] for _ in range(streams)]
    index = 0
    offset = 0
    while offset < total:
        length = min(block, total - offset)
        out[index % streams].append((offset, length))
        offset += length
        index += 1
    return out


def parse_opts_retr(arg: str) -> dict[str, int]:
    """Parse ``OPTS RETR Parallelism=4;StartingParallelism=4;...``."""
    if not arg.upper().startswith("RETR "):
        raise ProtocolError(f"unsupported OPTS {arg!r}")
    opts: dict[str, int] = {}
    for piece in arg[5:].strip().rstrip(";").split(";"):
        if not piece:
            continue
        if "=" not in piece:
            raise ProtocolError(f"malformed OPTS piece {piece!r}")
        key, _, value = piece.partition("=")
        try:
            opts[key.strip().lower()] = int(value)
        except ValueError:
            raise ProtocolError(f"malformed OPTS value {piece!r}") from None
    if opts.get("parallelism", 1) > MAX_PARALLELISM:
        raise ProtocolError(
            f"parallelism above {MAX_PARALLELISM} not supported")
    return opts


def format_opts_retr(parallelism: int) -> str:
    """Render the Parallelism OPTS command argument."""
    return f"RETR Parallelism={parallelism};"


# ---------------------------------------------------------------------------
# the server side of a connection
# ---------------------------------------------------------------------------


class GridFtpSession(ftp.FtpSession):
    """FTP + GSI (ADAT), extended-block mode, parallel streams."""

    protocol = "gridftp"

    mode = "S"
    parallelism = 1
    _gsi_challenge: bytes | None = None
    _gsi_cert: bytes | None = None
    _spas_listeners: tuple[socket.socket, ...] = ()

    def cmd_auth(self, arg: str) -> bool:
        if arg.upper() not in ("GSSAPI", "GSI"):
            self.reply(ftp.NOT_IMPLEMENTED, "only GSSAPI")
            return True
        self.reply(334, "ADAT must follow")
        return True

    def cmd_adat(self, arg: str) -> bool:
        try:
            payload = base64.b64decode(arg)
        except ValueError:
            self.reply(ftp.SYNTAX_ERROR, "bad base64")
            return True
        if self._gsi_challenge is None:
            # Step 1: certificate in, challenge out.
            self._gsi_cert = payload
            self._gsi_challenge = self.gsi.challenge()
            token = base64.b64encode(self._gsi_challenge).decode()
            self.reply(ftp.AUTH_CONTINUE, f"ADAT={token}")
            return True
        # Step 2: challenge response in.
        try:
            subject = self.gsi.accept(
                self._gsi_cert, self._gsi_challenge, payload
            )
        except AuthError as exc:
            self.reply(ftp.NOT_LOGGED_IN, str(exc))
            self._gsi_challenge = None
            return True
        self.user = self.map_subject(subject)
        self.logged_in = True
        self.reply(ftp.AUTH_OK, f"authenticated as {self.user}")
        return True

    def cmd_mode(self, arg: str) -> bool:
        mode = arg.upper()
        if mode not in ("S", "E"):
            self.reply(ftp.NOT_IMPLEMENTED, "modes S and E only")
            return True
        self.mode = mode
        self.reply(200, f"mode {mode}")
        return True

    def cmd_opts(self, arg: str) -> bool:
        try:
            opts = parse_opts_retr(arg)
        except ProtocolError as exc:
            self.reply(ftp.SYNTAX_ERROR, str(exc))
            return True
        self.parallelism = max(1, opts.get("parallelism", 1))
        self.reply(200, f"parallelism {self.parallelism}")
        return True

    def cmd_spas(self, arg: str) -> bool:
        """Striped passive: one listener per parallel stream."""
        self.close_data_state()
        listeners, lines = [], []
        for _ in range(self.parallelism):
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.bind((self.host, 0))
            listener.listen(2)
            listeners.append(listener)
            host, port = listener.getsockname()
            h = host.split(".")
            lines.append(f" {h[0]},{h[1]},{h[2]},{h[3]},{port // 256},{port % 256}")
        self._spas_listeners = tuple(listeners)
        common.write_line(self.wfile, "229-Entering Striped Passive Mode",
                          flush=False)
        for line in lines:
            common.write_line(self.wfile, line, flush=False)
        common.write_line(self.wfile, "229 End")
        return True

    def data_channel_configured(self) -> bool:
        return bool(self._spas_listeners) or super().data_channel_configured()

    def close_data_state(self) -> None:
        for listener in self._spas_listeners:
            listener.close()
        self._spas_listeners = ()
        super().close_data_state()

    def _data_connections(self) -> list[socket.socket]:
        if not self._spas_listeners:
            return [self.open_data_connection()]
        conns: list[socket.socket] = []
        try:
            for listener in self._spas_listeners:
                listener.settimeout(self.data_timeout)
                conn, _ = listener.accept()
                conns.append(
                    self.wrap_data_socket(tuned(conn), "gridftp-stripe"))
        except OSError:
            for conn in conns:
                conn.close()
            raise
        return conns

    def _run_lanes(self, lane, what: str) -> list[BaseException]:
        """Extended-block data movement: open the data channel(s) and
        run ``lane(conn, index)`` on one thread per connection.  Called
        from a mover, i.e. inside the ticket's scope: a stripe that
        never connects raises out of here and the ticket settles like
        any failed transfer.  Returns what the lanes themselves raised
        -- those are reported in-band, the control connection lives."""
        errors: list[BaseException] = []

        def guarded(conn: socket.socket, index: int) -> None:
            try:
                lane(conn, index)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                conn.close()

        try:
            threads = [
                threading.Thread(target=guarded, args=(conn, i), daemon=True)
                for i, conn in enumerate(self._data_connections())
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            if any(t.is_alive() for t in threads):
                errors.append(TimeoutError(f"parallel {what} lane hung"))
        finally:
            self.close_data_state()
        return errors

    def _lanes_reply(self, errors: list[BaseException], done: str) -> bool:
        if errors:
            self.reply(ftp.ACTION_FAILED, f"transfer failed: {errors[0]}")
        else:
            self.reply(ftp.TRANSFER_OK, done)
        return True

    def cmd_retr(self, arg: str) -> bool:
        if self.mode != "E":
            return super().cmd_retr(arg)
        ticket = self.files.approve_get(self.user, self.resolve(arg))
        self.reply(ftp.OPENING_DATA, "opening extended-block channels")
        errors: list[BaseException] = []

        def send_lanes(ticket):
            extents = stripe_ranges(
                ticket.size, max(1, len(self._spas_listeners)), 256 * 1024)
            # Lanes share the ticket's stream: each extent is one
            # bounded seek+read under this lock, so memory per lane is
            # one stripe block -- never the whole file.
            source_lock = threading.Lock()

            def lane(conn: socket.socket, index: int) -> None:
                with conn.makefile("wb") as out:
                    for offset, length in extents[index]:
                        with source_lock:
                            ticket.stream.seek(offset)
                            payload = read_exact(ticket.stream, length)
                        write_block(out, offset, payload)
                    write_eod(out, eof=index == 0)

            errors.extend(self._run_lanes(lane, "send"))
            return ticket.size, None

        self.send(ticket, mover=send_lanes)
        return self._lanes_reply(errors, "transfer complete")

    def cmd_stor(self, arg: str) -> bool:
        if self.mode != "E":
            return super().cmd_stor(arg)
        ticket = self.files.approve_put(self.user, self.resolve(arg), 0)
        self.reply(ftp.OPENING_DATA, "opening extended-block channels")
        errors: list[BaseException] = []

        def receive_lanes(ticket):
            # Blocks land directly at their offsets in the ticket's
            # stream (one seek+write per block under this lock): memory
            # per lane is one wire block, never the whole file, and
            # sparse regions zero-fill.
            sink_lock = threading.Lock()
            high_water = 0

            def lane(conn: socket.socket, index: int) -> None:
                nonlocal high_water
                with conn.makefile("rb") as stream:
                    for offset, payload in iter_blocks(stream):
                        with sink_lock:
                            ticket.stream.seek(offset)
                            ticket.stream.write(payload)
                            high_water = max(high_water,
                                             offset + len(payload))

            errors.extend(self._run_lanes(lane, "receive"))
            # A failed or hung lane means missing stripes: abort the
            # STOR, leaving what was there before, rather than commit a
            # silently truncated file.
            if errors:
                ticket.aborted = True
                return 0, None
            return high_water, None

        moved, _ = self.receive(ticket, mover=receive_lanes)
        return self._lanes_reply(errors, f"received {moved} bytes")

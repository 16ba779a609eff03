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

import struct
from typing import BinaryIO, Iterator

from repro.protocols.common import ProtocolError, read_exact

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

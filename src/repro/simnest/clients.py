"""Simulated client processes.

The paper's workloads are closed-loop: each client requests files
back-to-back for the duration of the experiment.  Whole-file clients
(Chirp/HTTP/FTP/GridFTP) fetch or store entire files; the NFS client
reads files as a stream of 8 KB block RPCs with a small outstanding
window, matching the kernel client's behaviour that makes NFS both
block-based and latency-bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Iterable

from repro.sim.core import Environment
from repro.simnest.protocolspec import ProtocolSpec
from repro.simnest.server import Connection, SimNest


@dataclass
class FetchResult:
    """Measurement record for one completed file operation."""

    protocol: str
    path: str
    nbytes: int
    start: float
    end: float

    @property
    def elapsed(self) -> float:
        return self.end - self.start

    @property
    def bandwidth(self) -> float:
        """Bytes per second for this operation."""
        return self.nbytes / self.elapsed if self.elapsed > 0 else 0.0


@dataclass
class ClientLog:
    """All results one client accumulated."""

    protocol: str
    results: list[FetchResult] = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        return sum(r.nbytes for r in self.results)


def whole_file_client(
    env: Environment,
    server: SimNest,
    protocol: str,
    paths: Iterable[str],
    log: ClientLog | None,
    client_cap: float | None = None,
    user: str = "anonymous",
    put_size: int | None = None,
) -> Generator:
    """Fetch (or store, when ``put_size`` is set) each path in turn.

    ``paths`` is consumed lazily, one path per request, so a closed
    loop over one file can be ``itertools.repeat(path, n)``.  With
    ``log=None`` no per-request record is kept, for callers that read
    the server's own statistics."""
    conn = yield from server.connect(protocol, user)
    for path in paths:
        start = env.now
        if put_size is None:
            nbytes, _lat = yield from server.serve_get(conn, path, client_cap)
        else:
            nbytes, _lat = yield from server.serve_put(conn, path, put_size, client_cap)
        if log is not None:
            log.results.append(
                FetchResult(protocol=protocol, path=path, nbytes=nbytes,
                            start=start, end=env.now)
            )


def nfs_client(
    env: Environment,
    server: SimNest,
    paths: Iterable[str],
    sizes: Iterable[int],
    log: ClientLog,
    spec: ProtocolSpec,
    client_cap: float | None = None,
    user: str = "anonymous",
) -> Generator:
    """Read each file as a stream of block RPCs with ``spec.window``
    outstanding requests (round-robin striped across sub-loops).

    ``paths`` and ``sizes`` are consumed lazily and pairwise; the
    shorter one ends the loop, so ``sizes`` may be an endless
    ``itertools.repeat(size)``."""
    conn = yield from server.connect("nfs", user)
    for path, size in zip(paths, sizes):
        start = env.now
        window = max(1, spec.window)
        bs = spec.block_size

        def lane(first_block: int, conn: Connection = conn, path: str = path,
                 size: int = size) -> Generator:
            offset = first_block * bs
            while offset < size:
                n = min(bs, size - offset)
                if spec.client_block_cpu:
                    yield spec.client_block_cpu
                yield from server.serve_block_read(conn, path, offset, n, client_cap)
                offset += window * bs

        lanes = [env.process(lane(i)) for i in range(window)]
        yield env.all_of(lanes)
        log.results.append(
            FetchResult(protocol="nfs", path=path, nbytes=size,
                        start=start, end=env.now)
        )


def nfs_writer(
    env: Environment,
    server: SimNest,
    path: str,
    size: int,
    log: ClientLog,
    spec: ProtocolSpec,
    client_cap: float | None = None,
    user: str = "anonymous",
) -> Generator:
    """Write a file as sequential block WRITE rpcs (window 1: the 2002
    kernel client serialized writes without write-behind gathering)."""
    conn = yield from server.connect("nfs", user)
    start = env.now
    bs = spec.block_size
    offset = 0
    while offset < size:
        n = min(bs, size - offset)
        if spec.client_block_cpu:
            yield spec.client_block_cpu
        yield from server.serve_block_write(conn, path, offset, n, client_cap)
        offset += n
    log.results.append(
        FetchResult(protocol="nfs", path=path, nbytes=size, start=start, end=env.now)
    )

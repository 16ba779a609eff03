"""The three live workloads: what the server is, what is seeded, which
operations each of the two connections performs, and what is checked.

Everything a run sends is a function of ``--seed``: :func:`schedule`
is a pure generator of ``(kind, *args)`` tuples per workload and lane
(connection), built in shuffled fixed-composition blocks so the mix is
exact over every block whatever the seed.  The server sees only those
requests.  A lane object turns one tuple into calls on the repo's own
client library (``repro.client``), checks what comes back, and returns
the payload bytes it moved; any exception is a failed operation.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

KIB = 1024
MIB = 1024 * KIB

#: payload variants per size class: a PUT picks one, so overwrites
#: change content and the final ``checksum`` comparison means something.
VARIANTS = 8
_VARIANT_STRIDE = 4096


@dataclass(frozen=True)
class Sizes:
    """Data-set dimensions; ``smoke`` shrinks them for the self-test."""

    small_files: int      #: small_ops: files in /s (= listdir entries)
    small_bytes: int      #: small_ops: file size
    pread_bytes: int
    big_count: int        #: bulk_get / durable_put: large files (slots)
    big_bytes: int
    little_count: int     #: bulk_get / durable_put: small files (slots)
    little_bytes: int
    lot_bytes: int        #: durable_put: the lot attached to /w
    warm_ops: int         #: operations per lane before timing starts


FULL = Sizes(small_files=32, small_bytes=KIB, pread_bytes=512,
             big_count=8, big_bytes=8 * MIB,
             little_count=64, little_bytes=64 * KIB,
             lot_bytes=2 * 1024 * MIB, warm_ops=36)
SMOKE = Sizes(small_files=32, small_bytes=KIB, pread_bytes=512,
              big_count=2, big_bytes=256 * KIB,
              little_count=8, little_bytes=8 * KIB,
              lot_bytes=64 * MIB, warm_ops=9)

#: small_ops lane 0 (authenticated Chirp): the mix of one 32-op block.
SMALL_OPS_BLOCK = (("stat",) * 20 + ("get1k",) * 4 + ("put1k",) * 2
                   + ("listdir",) * 2 + ("pread",) * 2
                   + ("lot_cycle", "connect_auth"))
#: small_ops lane 1 (anonymous HTTP): 3 HEAD to 1 GET.
SMALL_HTTP_BLOCK = ("head",) * 3 + ("hget1k",)
#: files lane 0 overwrites; lane 1 and concurrent reads stay off them.
SMALL_PUT_TARGETS = 8
#: durable_put: 64 KiB PUTs per 8 MiB PUT
DURABLE_SMALL_PER_BIG = 32


def schedule(workload: str, seed: int, lane: int, sizes: Sizes = FULL):
    """Endless, deterministic operation stream for one connection."""
    rng = random.Random(f"{workload}/{seed}/{lane}")
    pick = rng.randrange
    while True:
        if workload == "small_ops":
            block = list(SMALL_OPS_BLOCK if lane == 0 else SMALL_HTTP_BLOCK)
        elif workload == "bulk_get":
            block = ["get8m"] + ["get64k"] * 8
        elif workload == "durable_put":
            # 1:32, not bulk_get's 1:8: at 1:8 the 8 MiB PUTs are half
            # the run's time and 180 MB/s of fsynced writes, and the
            # shared disk's stall episodes (8 MiB fsync 10 -> 80 ms for
            # seconds on end) decide the rate; at 1:32 they are a fifth.
            block = ["put8m"] + ["put64k"] * DURABLE_SMALL_PER_BIG
        else:
            raise ValueError(f"no live schedule for workload {workload!r}")
        rng.shuffle(block)
        for kind in block:
            if kind == "stat":
                yield kind, pick(sizes.small_files)
            elif kind in ("head", "hget1k"):
                yield kind, pick(SMALL_PUT_TARGETS, sizes.small_files)
            elif kind == "get1k":
                yield kind, pick(sizes.small_files)
            elif kind == "put1k":
                yield kind, pick(SMALL_PUT_TARGETS), pick(VARIANTS)
            elif kind == "pread":
                yield (kind, pick(sizes.small_files),
                       pick(sizes.small_bytes - sizes.pread_bytes + 1))
            elif kind == "get8m":
                yield kind, pick(sizes.big_count)
            elif kind == "get64k":
                yield kind, pick(sizes.little_count)
            elif kind == "put8m":
                yield kind, pick(sizes.big_count), pick(VARIANTS)
            elif kind == "put64k":
                yield kind, pick(sizes.little_count), pick(VARIANTS)
            else:  # listdir, lot_cycle, connect_auth
                yield (kind,)


class Mismatch(Exception):
    """The server returned bytes (or a checksum) that are wrong."""


def crc(data) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


class Payloads:
    """``VARIANTS`` overlapping slices of one seeded random buffer."""

    def __init__(self, seed: str, nbytes: int, variants: int = VARIANTS):
        base = random.Random(seed).randbytes(
            nbytes + (variants - 1) * _VARIANT_STRIDE)
        self.data = [base[v * _VARIANT_STRIDE:v * _VARIANT_STRIDE + nbytes]
                     for v in range(variants)]
        self.crcs = [crc(d) for d in self.data]
        self.nbytes = nbytes


def check(data, expected_crc: int, expected_len: int, what: str) -> int:
    if len(data) != expected_len or crc(data) != expected_crc:
        raise Mismatch(f"{what}: got {len(data)} bytes crc {crc(data):#x}, "
                       f"want {expected_len} bytes crc {expected_crc:#x}")
    return len(data)


# ----------------------------------------------------------------------
# lanes: one connection each
# ----------------------------------------------------------------------
class Lane:
    """One connection: turns schedule tuples into client calls.  File
    names are shared by both protocols: ``<prefix>/fNN`` (small_ops)
    and ``<prefix>-bigNN`` / ``<prefix>-littleNN`` (the other two)."""

    protocol = ""

    def __init__(self, client, expected: dict, prefix: str):
        self.client = client
        #: path -> (size, crc32) of the last acknowledged content
        self.expected = expected
        self.prefix = prefix

    def close(self) -> None:
        self.client.close()

    def perform(self, op: tuple) -> int:
        return getattr(self, "op_" + op[0])(*op[1:])

    def _small(self, index: int) -> str:
        return f"{self.prefix}/f{index:02d}"

    def _slot(self, kind: str, index: int) -> str:
        return f"{self.prefix}-{kind}{index:02d}"

    def _get(self, path: str) -> int:
        size, want = self.expected[path]
        return check(self.client.get(path), want, size,
                     f"{self.protocol} get {path}")

    def op_get8m(self, index: int) -> int:
        return self._get(self._slot("big", index))

    def op_get64k(self, index: int) -> int:
        return self._get(self._slot("little", index))

    def verify_written(self) -> tuple[int, int]:
        """(files checked, files wrong); read-only lanes wrote none."""
        return 0, 0


class ChirpLane(Lane):
    """An authenticated Chirp session that knows what every file it
    touches should contain.  Paths under ``written`` were PUT by this
    lane since set-up and get a server-side ``checksum`` before the run
    ends."""

    protocol = "chirp"

    def __init__(self, endpoint, credential, expected: dict, sizes: Sizes,
                 prefix: str, payloads: dict[str, Payloads] | None = None):
        from repro.client import NO_RETRY, ChirpClient

        self._new = lambda: ChirpClient(*endpoint, retry=NO_RETRY)
        super().__init__(self._new(), expected, prefix)
        self.credential = credential
        self.written: set[str] = set()
        #: small_ops only: the bytes themselves, for pread comparisons
        self.contents: dict[str, bytes] = {}
        self.sizes = sizes
        self.payloads = payloads or {}
        self.client.authenticate(credential)

    # -- small_ops ---------------------------------------------------------
    def op_stat(self, index: int) -> int:
        path = self._small(index)
        if self.client.stat(path)["size"] != self.expected[path][0]:
            raise Mismatch(f"stat {path}: wrong size")
        return 0

    def op_get1k(self, index: int) -> int:
        return self._get(self._small(index))

    def op_put1k(self, index: int, variant: int) -> int:
        return self._put(self._small(index), "small", variant)

    def op_listdir(self) -> int:
        entries = self.client.listdir(self.prefix)
        if len(entries) != self.sizes.small_files:
            raise Mismatch(f"listdir: {len(entries)} entries")
        return 0

    def op_pread(self, index: int, offset: int) -> int:
        path = self._small(index)
        data = self.client.pread(path, offset, self.sizes.pread_bytes)
        want = self.contents[path][offset:offset + self.sizes.pread_bytes]
        if data != want:
            raise Mismatch(f"pread {path}@{offset}: wrong bytes")
        return len(data)

    def op_lot_cycle(self) -> int:
        lot = self.client.lot_create(MIB, 60.0)
        self.client.lot_renew(lot["lot_id"], 120.0)
        self.client.lot_delete(lot["lot_id"])
        return 0

    def op_connect_auth(self) -> int:
        self.client.close()
        self.client = self._new()
        self.client.authenticate(self.credential)
        return 0

    # -- durable_put -------------------------------------------------------
    def op_put8m(self, index: int, variant: int) -> int:
        return self._put(self._slot("big", index), "big", variant)

    def op_put64k(self, index: int, variant: int) -> int:
        return self._put(self._slot("little", index), "little", variant)

    def _put(self, path: str, size_class: str, variant: int) -> int:
        payloads = self.payloads[size_class]
        data = payloads.data[variant]
        self.client.put(path, data)
        self.expected[path] = (len(data), payloads.crcs[variant])
        self.written.add(path)
        if size_class == "small":
            self.contents[path] = data
        return len(data)

    def verify_written(self) -> tuple[int, int]:
        """Server-side ``checksum`` of every file this lane PUT;
        returns (checked, wrong)."""
        wrong = 0
        for path in sorted(self.written):
            size, want = self.expected[path]
            got = self.client.checksum(path)
            if got["size"] != size or got["crc32"] != want:
                wrong += 1
        return len(self.written), wrong


class HttpLane(Lane):
    """An anonymous keep-alive HTTP session (read-only here)."""

    protocol = "http"

    def __init__(self, endpoint, expected: dict, prefix: str):
        from repro.client import NO_RETRY, HttpClient

        super().__init__(HttpClient(*endpoint, retry=NO_RETRY), expected,
                         prefix)

    def op_head(self, index: int) -> int:
        path = self._small(index)
        if self.client.head(path)["size"] != self.expected[path][0]:
            raise Mismatch(f"head {path}: wrong size")
        return 0

    def op_hget1k(self, index: int) -> int:
        return self._get(self._small(index))


# ----------------------------------------------------------------------
# workloads: server config + seeding + lanes + end-of-segment checks
# ----------------------------------------------------------------------
USER = "bench-a"


class LiveWorkload:
    """Base of the three live workloads.  One instance per segment: it
    owns that segment's expectations about the server's contents."""

    name = ""
    durable = False

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self.expected: dict[str, tuple[int, int]] = {}
        self.lanes: list = []

    def launch_config(self, workdir: str) -> dict:
        raise NotImplementedError

    def prepare(self, ports: dict, credential) -> None:
        """Seed the server and open the two lanes."""
        raise NotImplementedError

    def schedules(self):
        return [schedule(self.name, self.seed, lane, self.sizes)
                for lane in (0, 1)]

    def verify(self) -> tuple[int, int]:
        """After the last timed op: checksum every PUT.  Returns
        (checks attempted, checks failed)."""
        results = [lane.verify_written() for lane in self.lanes]
        return (sum(n for n, _ in results), sum(bad for _, bad in results))

    def close(self) -> None:
        for lane in self.lanes:
            try:
                lane.close()
            except Exception:  # noqa: BLE001 - the server may be dead
                pass
        self.lanes = []


class SmallOps(LiveWorkload):
    name = "small_ops"

    def launch_config(self, workdir: str) -> dict:
        # Default NestConfig (threaded, memory store, no state_dir);
        # only the listener set is trimmed to what the lanes speak.
        return {"nest": {"protocols": ["chirp", "http"]}, "store_dir": None}

    def prepare(self, ports: dict, credential) -> None:
        payloads = Payloads(f"small/{self.seed}", self.sizes.small_bytes,
                            variants=max(VARIANTS, self.sizes.small_files))
        lane = ChirpLane(("127.0.0.1", ports["chirp"]), credential,
                         self.expected, self.sizes, "/s",
                         {"small": payloads})
        lane.client.mkdir("/s")
        for index in range(self.sizes.small_files):
            lane.op_put1k(index, index % len(payloads.data))
        lane.written.clear()   # seeding was verified by the put acks
        self.lanes = [lane, HttpLane(("127.0.0.1", ports["http"]),
                                     self.expected, "/s")]


class BulkGet(LiveWorkload):
    name = "bulk_get"

    def launch_config(self, workdir: str) -> dict:
        return {"nest": {"protocols": ["chirp", "http"]},
                "store_dir": f"{workdir}/store"}

    def prepare(self, ports: dict, credential) -> None:
        sizes = self.sizes
        big = Payloads(f"big/{self.seed}", sizes.big_bytes,
                       variants=sizes.big_count)
        little = Payloads(f"little/{self.seed}", sizes.little_bytes,
                          variants=sizes.little_count)
        lane = ChirpLane(("127.0.0.1", ports["chirp"]), credential,
                         self.expected, sizes, "/b/f")
        lane.client.mkdir("/b")
        for kind, payloads in (("big", big), ("little", little)):
            for index, data in enumerate(payloads.data):
                path = lane._slot(kind, index)
                lane.client.put(path, data)
                self.expected[path] = (len(data), payloads.crcs[index])
        self.lanes = [lane, HttpLane(("127.0.0.1", ports["http"]),
                                     self.expected, "/b/f")]


class DurablePut(LiveWorkload):
    name = "durable_put"
    durable = True
    lot_id = ""   #: the lot attached to /w, set by prepare()

    def launch_config(self, workdir: str) -> dict:
        return {"nest": {"protocols": ["chirp"],
                         "state_dir": f"{workdir}/state",
                         "journal_fsync": True,
                         "require_lots": True},
                "store_dir": f"{workdir}/store"}

    def prepare(self, ports: dict, credential) -> None:
        sizes = self.sizes
        endpoint = ("127.0.0.1", ports["chirp"])
        self.lanes = []
        for writer in (0, 1):
            payloads = {
                "big": Payloads(f"wbig/{self.seed}/{writer}",
                                sizes.big_bytes),
                "little": Payloads(f"wlittle/{self.seed}/{writer}",
                                   sizes.little_bytes),
            }
            self.lanes.append(ChirpLane(
                endpoint, credential, self.expected, sizes,
                f"/w/w{writer}", payloads))
        admin = self.lanes[0].client
        self.lot_id = admin.lot_create(sizes.lot_bytes, 3600.0)["lot_id"]
        admin.mkdir("/w")
        admin.lot_attach(self.lot_id, "/w")

    def verify_after_restart(self, ports: dict, credential) -> tuple[int, int]:
        """Against the *restarted* server: every acknowledged PUT has
        its size and CRC, and the lot's ``used`` equals the live bytes.
        Returns (checks attempted, checks failed)."""
        lane = ChirpLane(("127.0.0.1", ports["chirp"]), credential,
                         self.expected, self.sizes, "/w/verify")
        try:
            lane.written = set(self.expected)
            checked, wrong = lane.verify_written()
            live = sum(size for size, _ in self.expected.values())
            used = lane.client.lot_stat(self.lot_id)["used"]
            return checked + 1, wrong + (used != live)
        finally:
            lane.close()


WORKLOADS = {cls.name: cls for cls in (SmallOps, BulkGet, DurablePut)}

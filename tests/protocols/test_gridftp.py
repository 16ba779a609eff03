"""Unit tests for GridFTP extended-block mode and striping."""

import io

import pytest

from repro.protocols import gridftp
from repro.protocols.common import ProtocolError


class TestBlockFraming:
    def test_block_round_trip(self):
        buf = io.BytesIO()
        gridftp.write_block(buf, offset=4096, payload=b"hello")
        buf.seek(0)
        flags, offset, payload = gridftp.read_block(buf)
        assert (flags, offset, payload) == (0, 4096, b"hello")

    def test_eod_trailer(self):
        buf = io.BytesIO()
        gridftp.write_eod(buf)
        buf.seek(0)
        flags, _, payload = gridftp.read_block(buf)
        assert flags & gridftp.FLAG_EOD
        assert payload == b""

    def test_eod_with_eof(self):
        buf = io.BytesIO()
        gridftp.write_eod(buf, eof=True)
        buf.seek(0)
        flags, _, _ = gridftp.read_block(buf)
        assert flags & gridftp.FLAG_EOF and flags & gridftp.FLAG_EOD

    def test_iter_blocks_reassembles(self):
        buf = io.BytesIO()
        gridftp.write_block(buf, 0, b"aaaa")
        gridftp.write_block(buf, 8, b"cccc")
        gridftp.write_block(buf, 4, b"bbbb")
        gridftp.write_eod(buf)
        buf.seek(0)
        blocks = dict(gridftp.iter_blocks(buf))
        data = bytearray(12)
        for offset, payload in blocks.items():
            data[offset:offset + len(payload)] = payload
        assert bytes(data) == b"aaaabbbbcccc"

    def test_truncated_stream_rejected(self):
        buf = io.BytesIO()
        gridftp.write_block(buf, 0, b"full block")
        truncated = io.BytesIO(buf.getvalue()[:-3])
        with pytest.raises(ProtocolError):
            gridftp.read_block(truncated)

    def test_hostile_block_length_refused_before_allocating(self):
        import struct
        header = struct.pack(">BQQ", 0, 1 << 40, 0)  # a 1 TiB block
        with pytest.raises(ProtocolError, match="exceeds"):
            gridftp.read_block(io.BytesIO(header))


class TestStriping:
    def test_round_robin_assignment(self):
        lanes = gridftp.stripe_ranges(total=10, streams=2, block=3)
        assert lanes[0] == [(0, 3), (6, 3)]
        assert lanes[1] == [(3, 3), (9, 1)]

    def test_covers_everything_exactly_once(self):
        lanes = gridftp.stripe_ranges(total=1000, streams=3, block=64)
        seen = sorted(
            (off, length) for lane in lanes for off, length in lane
        )
        position = 0
        for off, length in seen:
            assert off == position
            position += length
        assert position == 1000

    def test_single_stream(self):
        lanes = gridftp.stripe_ranges(total=10, streams=1, block=4)
        assert lanes == [[(0, 4), (4, 4), (8, 2)]]

    def test_empty_total(self):
        assert gridftp.stripe_ranges(0, 2, 4) == [[], []]

    def test_invalid_parameters(self):
        with pytest.raises(ProtocolError):
            gridftp.stripe_ranges(10, 0, 4)
        with pytest.raises(ProtocolError):
            gridftp.stripe_ranges(10, 2, 0)


class TestOpts:
    def test_parse_parallelism(self):
        opts = gridftp.parse_opts_retr("RETR Parallelism=4;")
        assert opts["parallelism"] == 4

    def test_multiple_options(self):
        opts = gridftp.parse_opts_retr(
            "RETR Parallelism=4;StartingParallelism=2;"
        )
        assert opts == {"parallelism": 4, "startingparallelism": 2}

    def test_format_round_trip(self):
        arg = gridftp.format_opts_retr(8)
        assert gridftp.parse_opts_retr(arg)["parallelism"] == 8

    def test_malformed_rejected(self):
        with pytest.raises(ProtocolError):
            gridftp.parse_opts_retr("STOR Parallelism=4;")
        with pytest.raises(ProtocolError):
            gridftp.parse_opts_retr("RETR Parallelism;")
        with pytest.raises(ProtocolError):
            gridftp.parse_opts_retr("RETR Parallelism=lots;")

    def test_parallelism_is_capped(self):
        top = gridftp.MAX_PARALLELISM
        assert gridftp.parse_opts_retr(
            f"RETR Parallelism={top};")["parallelism"] == top
        with pytest.raises(ProtocolError, match="parallelism"):
            gridftp.parse_opts_retr(f"RETR Parallelism={top + 1};")

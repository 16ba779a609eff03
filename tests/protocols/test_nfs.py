"""Unit tests for the NFS wire pieces: XDR, RPC envelope, record marking."""

import io

import pytest

from repro.protocols import nfs
from repro.protocols.common import ProtocolError
from repro.protocols.xdr import Packer, Unpacker


class TestXdr:
    def test_uint_round_trip(self):
        p = Packer()
        p.pack_uint(0)
        p.pack_uint(2**32 - 1)
        u = Unpacker(p.get_buffer())
        assert u.unpack_uint() == 0
        assert u.unpack_uint() == 2**32 - 1
        u.done()

    def test_int_negative(self):
        p = Packer()
        p.pack_int(-42)
        assert Unpacker(p.get_buffer()).unpack_int() == -42

    def test_hyper(self):
        p = Packer()
        p.pack_hyper(2**63 + 1)
        assert Unpacker(p.get_buffer()).unpack_hyper() == 2**63 + 1

    def test_bool(self):
        p = Packer()
        p.pack_bool(True)
        p.pack_bool(False)
        u = Unpacker(p.get_buffer())
        assert u.unpack_bool() is True
        assert u.unpack_bool() is False

    def test_opaque_padding(self):
        p = Packer()
        p.pack_opaque(b"abc")  # 3 bytes -> 1 pad byte
        buf = p.get_buffer()
        assert len(buf) == 4 + 4
        assert Unpacker(buf).unpack_opaque() == b"abc"

    def test_string_unicode(self):
        p = Packer()
        p.pack_string("héllo/wörld")
        assert Unpacker(p.get_buffer()).unpack_string() == "héllo/wörld"

    def test_mixed_sequence(self):
        p = Packer()
        p.pack_uint(7)
        p.pack_string("name")
        p.pack_hyper(1 << 40)
        u = Unpacker(p.get_buffer())
        assert (u.unpack_uint(), u.unpack_string(), u.unpack_hyper()) == (
            7, "name", 1 << 40
        )
        u.done()

    def test_underflow_rejected(self):
        with pytest.raises(ProtocolError):
            Unpacker(b"\x00\x00").unpack_uint()

    def test_trailing_bytes_detected(self):
        u = Unpacker(b"\x00" * 8)
        u.unpack_uint()
        assert u.remaining == 4
        with pytest.raises(ProtocolError):
            u.done()


class TestRecordMarking:
    def test_round_trip(self):
        buf = io.BytesIO()
        nfs.write_record(buf, b"payload")
        buf.seek(0)
        assert nfs.read_record(buf) == b"payload"

    def test_multiple_records(self):
        buf = io.BytesIO()
        nfs.write_record(buf, b"one")
        nfs.write_record(buf, b"two")
        buf.seek(0)
        assert nfs.read_record(buf) == b"one"
        assert nfs.read_record(buf) == b"two"

    def test_multi_fragment_record(self):
        import struct
        buf = io.BytesIO()
        buf.write(struct.pack(">I", 3))          # fragment, not last
        buf.write(b"abc")
        buf.write(struct.pack(">I", 0x80000000 | 3))  # last fragment
        buf.write(b"def")
        buf.seek(0)
        assert nfs.read_record(buf) == b"abcdef"

    def test_eof_mid_record_rejected(self):
        buf = io.BytesIO()
        nfs.write_record(buf, b"full")
        truncated = io.BytesIO(buf.getvalue()[:-2])
        with pytest.raises(ProtocolError):
            nfs.read_record(truncated)

    def test_hostile_fragment_length_refused_before_allocating(self):
        import struct
        # Four bytes claiming a 2 GiB fragment, and nothing behind them.
        with pytest.raises(ProtocolError, match="exceeds"):
            nfs.read_record(io.BytesIO(struct.pack(">I", 0x7FFFFFFF)))

    def test_fragments_are_bounded_in_total(self):
        import struct
        piece = struct.pack(">I", 4096) + b"x" * 4096  # never the last
        with pytest.raises(ProtocolError, match="exceeds"):
            nfs.read_record(io.BytesIO(piece * 8))

    def test_largest_legitimate_call_fits(self):
        import struct
        body = b"w" * (nfs.BLOCK_SIZE + 1200)  # a WRITE block + envelope
        buf = io.BytesIO(struct.pack(">I", 0x80000000 | len(body)) + body)
        assert nfs.read_record(buf) == body


class TestRpcEnvelope:
    def test_call_round_trip(self):
        args = Packer()
        args.pack_string("/export")
        record = nfs.pack_call(xid=7, prog=nfs.PROG_MOUNT,
                               proc=nfs.MOUNTPROC_MNT,
                               args=args.get_buffer())
        xid, prog, proc, u = nfs.unpack_call(record)
        assert (xid, prog, proc) == (7, nfs.PROG_MOUNT, nfs.MOUNTPROC_MNT)
        assert u.unpack_string() == "/export"

    def test_reply_round_trip(self):
        results = Packer()
        results.pack_uint(nfs.NFS_OK)
        record = nfs.pack_reply(xid=9, results=results.get_buffer())
        xid, u = nfs.unpack_reply(record)
        assert xid == 9
        assert u.unpack_uint() == nfs.NFS_OK

    def test_reply_is_not_a_call(self):
        record = nfs.pack_reply(1, b"")
        with pytest.raises(ProtocolError):
            nfs.unpack_call(record)

    def test_call_is_not_a_reply(self):
        record = nfs.pack_call(1, nfs.PROG_NFS, nfs.PROC_NULL, b"")
        with pytest.raises(ProtocolError):
            nfs.unpack_reply(record)


class TestFileHandles:
    def test_round_trip(self):
        handle = nfs.make_fhandle(123456)
        assert len(handle) == nfs.FHSIZE
        assert nfs.fhandle_token(handle) == 123456

    def test_wrong_length_rejected(self):
        with pytest.raises(ProtocolError):
            nfs.fhandle_token(b"short")


class TestFattr:
    def test_round_trip(self):
        p = Packer()
        nfs.pack_fattr(p, nfs.NFREG, 4096)
        u = Unpacker(p.get_buffer())
        attrs = nfs.unpack_fattr(u)
        assert attrs["type"] == nfs.NFREG
        assert attrs["size"] == 4096

    def test_directory_mode(self):
        p = Packer()
        nfs.pack_fattr(p, nfs.NFDIR, 0)
        attrs = nfs.unpack_fattr(Unpacker(p.get_buffer()))
        assert attrs["mode"] == 0o755

"""Unit tests for the stream helpers the codecs share."""

import io

import pytest

from repro.protocols.common import ProtocolError, read_exact

PAYLOAD = bytes(range(256)) * 1024  # 256 KiB: larger than any buffer


class Forwarding:
    """Shaped like the fault-injection wrappers: no class-level
    ``readinto``, everything else forwarded to the raw stream."""

    def __init__(self, raw):
        self.raw = raw
        self.reads = 0

    def read(self, n=-1):
        self.reads += 1
        return self.raw.read(min(n, 1000))  # short reads, as a socket's

    def __getattr__(self, name):
        return getattr(self.raw, name)


class ReadOnly:
    def __init__(self, data):
        self.raw = io.BytesIO(data)

    def read(self, n=-1):
        return self.raw.read(n)


def sources(data):
    return {
        "buffered": io.BufferedReader(io.BytesIO(data)),
        "readinto": io.BytesIO(data),
        "wrapper": Forwarding(io.BufferedReader(io.BytesIO(data))),
        "read-only": ReadOnly(data),
    }


class TestReadExact:
    def test_every_kind_of_source_returns_the_same_bytes(self):
        for kind, stream in sources(PAYLOAD + b"tail").items():
            got = read_exact(stream, len(PAYLOAD))
            assert type(got) is bytes and got == PAYLOAD, kind
            assert read_exact(stream, 4) == b"tail", kind
            assert read_exact(stream, 0) == b"", kind

    def test_a_wrapper_is_read_through_its_own_read(self):
        """A class that merely forwards to a BufferedReader must stay
        on its guarded path: that is where injected faults fire."""
        wrapper = Forwarding(io.BufferedReader(io.BytesIO(PAYLOAD)))
        assert read_exact(wrapper, len(PAYLOAD)) == PAYLOAD
        assert wrapper.reads > 1

    def test_early_eof_raises_with_the_bytes_still_pending(self):
        for stream in sources(PAYLOAD[:1000]).values():
            with pytest.raises(ProtocolError,
                               match="connection closed with 24 bytes "
                                     "pending"):
                read_exact(stream, 1024)

    def test_a_negative_count_never_reads_to_eof(self):
        for stream in sources(PAYLOAD).values():
            with pytest.raises(ValueError):
                read_exact(stream, -1)

"""Unit tests for NestConfig validation."""

import pytest

from repro.nest.config import NestConfig


class TestValidation:
    def test_defaults_valid(self):
        NestConfig().validate()

    def test_bad_scheduling(self):
        with pytest.raises(ValueError):
            NestConfig(scheduling="lottery").validate()

    def test_bad_enforcement(self):
        with pytest.raises(ValueError):
            NestConfig(lot_enforcement="none").validate()

    def test_bad_protocol(self):
        with pytest.raises(ValueError):
            NestConfig(protocols=("chirp", "gopher")).validate()

    def test_bad_workers(self):
        with pytest.raises(ValueError):
            NestConfig(transfer_workers=0).validate()

    def test_bad_quantum(self):
        with pytest.raises(ValueError):
            NestConfig(quantum_bytes=0).validate()

    def test_paper_defaults(self):
        cfg = NestConfig()
        assert set(cfg.protocols) == {"chirp", "ftp", "gridftp", "http", "nfs"}
        assert cfg.scheduling == "fcfs"
        assert cfg.concurrency_server == "threaded"
        assert cfg.lot_enforcement == "quota"

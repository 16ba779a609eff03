"""Unit tests for the disk-fault plan and the FaultyStore wrapper."""

from __future__ import annotations

import errno

import pytest

from repro.faults.disk import (
    DiskFaultPlan,
    DiskFaultRule,
    FaultyStore,
    SimulatedCrash,
)
from repro.nest.backends import (
    TEMP_SUFFIX,
    LocalFSStore,
    MemoryStore,
    staged_name,
)


def test_rule_validation():
    with pytest.raises(ValueError):
        DiskFaultRule(op="bogus", action="crash")
    with pytest.raises(ValueError):
        DiskFaultRule(op="append", action="bogus")


def test_plan_matches_by_ordinal_and_caps_firings():
    plan = DiskFaultPlan([DiskFaultRule(op="write", action="eio", at=2)])
    assert plan.check("write") is None          # call 1
    assert plan.check("write") is not None      # call 2: fires
    assert plan.check("write") is None          # call 3: times=1 spent
    assert plan.fired() == 1
    assert plan.events[0].op == "write" and plan.events[0].at == 2


def test_plan_matches_journal_records_by_seq():
    plan = DiskFaultPlan.crash_at_record(17)
    assert plan.check("append", at=16) is None
    rule = plan.check("append", at=17)
    assert rule is not None and rule.action == "crash"
    assert plan.describe()["rules"][0]["fired"] == 1


def test_faulty_store_crash_mid_write_never_publishes(tmp_path):
    plan = DiskFaultPlan.crash_on_store_write(at_call=2)
    store = FaultyStore(LocalFSStore(str(tmp_path)), plan)
    w = store.open_write(staged_name("/data/f"))
    w.write(b"a" * 10)
    with pytest.raises(SimulatedCrash):
        w.write(b"b" * 10)
    # The staged file was never committed: the file is absent, only the
    # staged fragment remains, and a sweep removes it.
    assert not store.exists("/data/f")
    inner = store.inner
    assert inner.sweep_temp() == 1
    assert inner.sweep_temp() == 0


def test_faulty_store_crash_preserves_old_version(tmp_path):
    inner = LocalFSStore(str(tmp_path))
    with inner.open_write("/f") as w:
        w.write(b"old-contents")
    plan = DiskFaultPlan.crash_on_store_write(at_call=1)
    store = FaultyStore(inner, plan)
    w = store.open_write(staged_name("/f"))
    with pytest.raises(SimulatedCrash):
        w.write(b"new-contents-that-die")
    with inner.open_read("/f") as r:
        assert r.read() == b"old-contents"  # never torn


def test_faulty_store_eio_and_enospc_are_typed(tmp_path):
    plan = DiskFaultPlan([
        DiskFaultRule(op="write", action="eio", at=1),
        DiskFaultRule(op="write", action="enospc", at=2),
    ])
    store = FaultyStore(MemoryStore(), plan)
    w = store.open_write("/f")
    with pytest.raises(OSError) as exc:
        w.write(b"x")
    assert exc.value.errno == errno.EIO
    with pytest.raises(OSError) as exc:
        w.write(b"x")
    assert exc.value.errno == errno.ENOSPC


def test_faulty_store_short_write_reports_success():
    plan = DiskFaultPlan([
        DiskFaultRule(op="write", action="short", at=1, keep_bytes=3)])
    store = FaultyStore(MemoryStore(), plan)
    w = store.open_write("/f")
    assert w.write(b"0123456789") == 10  # claims all ten bytes
    w.close()
    assert store.size("/f") == 3  # only three landed


def test_clean_plan_is_transparent(tmp_path):
    store = FaultyStore(LocalFSStore(str(tmp_path)), DiskFaultPlan.clean())
    with store.open_write("/f") as w:
        w.write(b"hello")
    assert store.exists("/f") and store.size("/f") == 5
    with store.open_read("/f") as r:
        assert r.read() == b"hello"
    store.delete("/f")
    assert not store.exists("/f")


def test_memory_store_exists():
    store = MemoryStore()
    assert not store.exists("/f")
    with store.open_write("/f") as w:
        w.write(b"")
    assert store.exists("/f")  # even empty files exist


def test_atomic_writer_unclosed_leaves_no_file(tmp_path):
    store = LocalFSStore(str(tmp_path))
    w = store.open_write(staged_name("/g"))
    w.write(b"half-finished")
    # No close: simulates a killed process.  Nothing published.
    assert not store.exists("/g")
    assert store.size("/g") == 0
    files = list((tmp_path).iterdir())
    assert any(f.name.endswith(TEMP_SUFFIX) for f in files)
    assert store.sweep_temp() == 1
